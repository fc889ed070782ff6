/**
 * @file
 * Unit tests of the benchmark's own arithmetic (gcbench_lib.h): span
 * self times, medians and shares, and seed mixing. Exits nonzero on
 * the first failed check.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "gcbench_lib.h"

namespace
{

int failures = 0;

void
expect(bool cond, const char *what)
{
    if (!cond) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

void
testSelfTimes()
{
    using gcbench::Span;
    // round [0, 10) holds pause [1, 9), which holds mark [2, 5) and
    // sweep [5, 6); build [9, 10) is a second child of round.
    const std::vector<Span> spans = {
        {"round", "bench", 0.0, 10.0, -1, 0},
        {"pause", "bench", 1.0, 9.0, 0, 1},
        {"core.mark", "core", 2.0, 5.0, 1, 1},
        {"core.sweep", "core", 5.0, 6.0, 1, 1},
        {"workload.build", "workload", 9.0, 10.0, 0, 0},
    };
    const auto self = gcbench::layerSelfTimes(spans);
    // round: 10 - 8 - 1 = 1; pause: 8 - 4 = 4.
    expect(near(self.at("bench"), 5.0), "bench self time");
    expect(near(self.at("core"), 4.0), "core self time");
    expect(near(self.at("workload"), 1.0), "workload self time");
    double total = 0.0;
    for (const auto &[layer, s] : self) {
        total += s;
    }
    expect(near(total, 10.0), "self times add up to the root span");

    // A child reaching past its parent only covers the overlap.
    const std::vector<Span> ragged = {
        {"a", "x", 0.0, 2.0, -1, 0},
        {"b", "y", 1.0, 3.0, 0, 0},
    };
    const auto rs = gcbench::layerSelfTimes(ragged);
    expect(near(rs.at("x"), 1.0), "clipped child coverage");
    expect(near(rs.at("y"), 2.0), "child keeps its own duration");
    expect(gcbench::layerSelfTimes({}).empty(), "no spans, no layers");
}

void
testAggregation()
{
    expect(near(gcbench::median({3.0, 1.0, 2.0}), 2.0), "odd median");
    expect(near(gcbench::median({4.0, 1.0, 3.0, 2.0}), 2.5),
           "even median");
    expect(near(gcbench::median({}), 0.0), "empty median");
    expect(near(gcbench::share(1.0, 4.0), 0.25), "share");
    expect(near(gcbench::share(5.0, 0.0), 0.0), "share of nothing");
}

void
testSeedMixing()
{
    using gcbench::mixSeed;
    // The calibrated seeds: the DaCapo profiles (src/workload/
    // dacapo.cc), the chain shape, and the fleet tenant seeds.
    const std::uint64_t calibrated[] = {
        0xa17a01, 0x10da11, 0x105ea, 0x9319d, 0x50f107, 0xa1a9, 17,
        0xa17a01 + 7919 * 2, 0x9319d + 7919, 0xa1a9 + 7919 * 3,
        100, 101, 102, 103, 7, 8, 9, 10,
    };
    for (const std::uint64_t base : calibrated) {
        expect(mixSeed(base, gcbench::defaultSeed) == base,
               "default seed keeps the calibrated seed");
        expect(mixSeed(base, 1) != base, "seed 1 changes the seed");
        expect(mixSeed(base, 1) != mixSeed(base, 2),
               "distinct seeds give distinct inputs");
    }
    expect(mixSeed(17, 1) == mixSeed(17, 1), "mixing is deterministic");
}

} // namespace

int
main()
{
    testSelfTimes();
    testAggregation();
    testSeedMixing();
    if (failures == 0) {
        std::printf("gcbench_test: all checks passed\n");
    }
    return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
