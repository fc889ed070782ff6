/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All randomness in the repository flows from explicitly named 64-bit
 * seeds through this generator (SplitMix64 for seeding, xoshiro256**
 * for the stream), so every experiment is bit-reproducible across
 * platforms — no std::random_device, no wall clock.
 */

#ifndef HWGC_SIM_RANDOM_H
#define HWGC_SIM_RANDOM_H

#include <array>
#include <cstdint>
#include <vector>

#include "sim/logging.h"

namespace hwgc
{

/** A small, fast, fully deterministic PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Seeds the stream from a single 64-bit value via SplitMix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL)
    {
        std::uint64_t x = seed;
        for (auto &word : state_) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            word = z ^ (z >> 31);
        }
    }

    /** Returns the next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        panic_if(bound == 0, "Rng::below(0)");
        // Debiased via rejection from the top of the range.
        const std::uint64_t limit = ~0ULL - (~0ULL % bound);
        std::uint64_t v;
        do {
            v = next();
        } while (v > limit);
        return v % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        panic_if(lo > hi, "Rng::range: lo > hi");
        return lo + below(hi - lo + 1);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p) { return uniform() < p; }

    /**
     * Geometric-ish discrete sample in [0, max] with mean roughly
     * @p mean; used for reference-degree and payload-size draws.
     */
    std::uint64_t
    geometric(double mean, std::uint64_t max)
    {
        if (mean <= 0.0) {
            return 0;
        }
        const double p = 1.0 / (mean + 1.0);
        std::uint64_t k = 0;
        while (k < max && !chance(p)) {
            ++k;
        }
        return k;
    }

    /**
     * Zipf-like sample over [0, n) with exponent @p s, computed by
     * inverse transform over a precomputed CDF owned by the caller.
     */
    std::size_t
    indexFromCdf(const std::vector<double> &cdf)
    {
        panic_if(cdf.empty(), "Rng::indexFromCdf: empty CDF");
        const double u = uniform() * cdf.back();
        std::size_t lo = 0, hi = cdf.size() - 1;
        while (lo < hi) {
            const std::size_t mid = (lo + hi) / 2;
            if (cdf[mid] < u) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }

    /** Checkpoint field list: the four state words. */
    template <class Ar> void fields(Ar &ar) { ar(state_); }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_;
};

} // namespace hwgc

#endif // HWGC_SIM_RANDOM_H
