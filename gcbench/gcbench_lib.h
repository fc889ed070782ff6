/**
 * @file
 * The simulator-independent arithmetic of the repo benchmark: seed
 * mixing, span self times, medians and shares. Kept apart from
 * gcbench.cc so gcbench_test.cc checks it without running a workload.
 */

#ifndef HWGC_GCBENCH_GCBENCH_LIB_H
#define HWGC_GCBENCH_GCBENCH_LIB_H

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gcbench
{

/** The seed that reproduces the calibrated profile and fleet seeds. */
inline constexpr std::uint64_t defaultSeed = 0;

/** SplitMix64 finalizer: a bijective 64-bit mix. */
constexpr std::uint64_t
splitmix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Mixes the workload seed into a calibrated seed. The two mixes of
 * the default seed cancel, so defaultSeed leaves @p base unchanged
 * and every other seed gives a different, well-spread value.
 */
constexpr std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    return base ^ splitmix64(seed) ^ splitmix64(defaultSeed);
}

/** One timed call: host-time interval plus its parent and pause. */
struct Span
{
    const char *name = "";  //!< The call, "core.mark".
    const char *layer = ""; //!< The src/ module it belongs to.
    double start = 0.0;     //!< Seconds since the run started.
    double end = 0.0;
    int parent = -1;        //!< Index of the enclosing span, or -1.
    unsigned pause = 0;     //!< Pause id (0 outside any pause).
};

/**
 * Self time per layer: each span's duration minus the part of its
 * interval that its child spans cover, summed by layer. Children are
 * clipped to the parent's interval, and the spans of one thread nest,
 * so the covered part never exceeds the duration.
 */
inline std::map<std::string, double>
layerSelfTimes(const std::vector<Span> &spans)
{
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span &s : spans) {
        if (s.parent < 0 || std::size_t(s.parent) >= spans.size()) {
            continue;
        }
        const Span &p = spans[std::size_t(s.parent)];
        const double lo = std::max(s.start, p.start);
        const double hi = std::min(s.end, p.end);
        if (hi > lo) {
            covered[std::size_t(s.parent)] += hi - lo;
        }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double own = spans[i].end - spans[i].start - covered[i];
        self[spans[i].layer] += std::max(0.0, own);
    }
    return self;
}

/** Median of @p v (mean of the middle two for even sizes; 0 if empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** @p part over @p whole, 0 when nothing was measured. */
inline double
share(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

} // namespace gcbench

#endif // HWGC_GCBENCH_GCBENCH_LIB_H
