/**
 * @file
 * Checkpoint round-trips with the cycle-accounting profiler active
 * (satellite of DESIGN.md §11):
 *
 *  1. Writing a mid-mark checkpoint from a profiled run perturbs
 *     neither the simulation nor the attribution — the writer matches
 *     a reference profiled run bit for bit.
 *  2. A profiled device that *restores* a mid-mark checkpoint observes
 *     exactly the resumed suffix: the accounting identity holds with
 *     `observedCycles == finalCycle - restorePoint`, and no
 *     per-class count exceeds the full run's (the suffix is a slice
 *     of the reference attribution, never an invention).
 *  3. The suffix attribution is bit-identical whichever kernel the
 *     checkpoint restores under — classification is a pure function
 *     of architectural state, and restore cannot break that.
 *
 * Every run also checks the profiler after each phase against a
 * reference that classifies every component on every observation.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/hwgc_device.h"
#include "ref_profiler.h"
#include "sim/cycle_class.h"
#include "sim/profiler.h"
#include "sim/telemetry.h"
#include "workload/graph_gen.h"

namespace hwgc
{
namespace
{

using core::HwgcConfig;

/** Restores the process-global telemetry options on scope exit. */
struct OptionsGuard
{
    telemetry::Options saved = telemetry::options();
    ~OptionsGuard() { telemetry::options() = saved; }
};

/** A heap + device built for one shape/seed (same rig as test_hwgc). */
struct Rig
{
    Rig(const workload::GraphParams &graph, const HwgcConfig &config)
        : heap(mem), builder(heap, graph)
    {
        builder.build();
        heap.clearAllMarks();
        heap.publishRoots();
        device = std::make_unique<core::HwgcDevice>(
            mem, heap.pageTable(), config);
        device->configure(heap);
    }

    mem::PhysMem mem;
    runtime::Heap heap;
    workload::GraphBuilder builder;
    std::unique_ptr<core::HwgcDevice> device;
};

workload::GraphParams
testGraph(std::uint64_t seed)
{
    workload::GraphParams p;
    p.liveObjects = 900;
    p.garbageObjects = 450;
    p.numRoots = 8;
    p.arrayFraction = 0.15;
    p.seed = seed;
    return p;
}

/** A scratch path private to the running test, so tests that ctest
 *  runs concurrently never share a checkpoint file. */
std::string
tmpPath(const std::string &name)
{
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->test_suite_name() + "." +
        info->name() + "." + name;
}

HwgcConfig
withKernel(HwgcConfig config, KernelMode kernel)
{
    config.kernel = kernel;
    return config;
}

/** The profiler's full class matrix, flattened for comparison. */
struct Attribution
{
    std::uint64_t observed = 0;
    Tick finalNow = 0;
    Tick markCycles = 0;
    std::uint64_t freed = 0;
    std::vector<std::string> names;
    std::vector<std::array<std::uint64_t, numCycleClasses>> cycles;
};

Attribution
capture(const Rig &rig, const core::HwPhaseResult &mark,
        const core::HwPhaseResult &sweep)
{
    const telemetry::CycleProfiler *prof = rig.device->profiler();
    EXPECT_NE(prof, nullptr);
    Attribution a;
    a.observed = prof->observedCycles();
    a.finalNow = rig.device->system().now();
    a.markCycles = mark.cycles;
    a.freed = sweep.cellsFreed;
    for (std::size_t i = 0; i < prof->numComponents(); ++i) {
        a.names.push_back(prof->componentName(i));
        std::array<std::uint64_t, numCycleClasses> row{};
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            row[c] = prof->cycles(i, CycleClass(c));
        }
        a.cycles.push_back(row);
        // The accounting identity, for every component, whatever
        // prefix of the run this profiler actually watched.
        EXPECT_EQ(prof->accounted(i), a.observed)
            << "component " << a.names.back();
    }
    return a;
}

/** Builds a rig, lets @p setup arm/restore, runs mark + sweep. */
template <typename Setup>
Attribution
profiledRun(const workload::GraphParams &graph, const HwgcConfig &config,
            Setup &&setup)
{
    telemetry::StatsRegistry::global().clearRetired();
    Rig rig(graph, config);
    setup(rig);
    // Lockstep with the reference profiler, checked after each phase.
    test::RefProfiler ref(*rig.device);
    const auto mark = rig.device->runMark();
    ref.expectMatch();
    const auto sweep = rig.device->runSweep();
    ref.expectMatch();
    return capture(rig, mark, sweep);
}

void
expectSameAttribution(const Attribution &want, const Attribution &got)
{
    ASSERT_EQ(want.names.size(), got.names.size());
    EXPECT_EQ(want.observed, got.observed);
    for (std::size_t i = 0; i < want.names.size(); ++i) {
        ASSERT_EQ(want.names[i], got.names[i]);
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            EXPECT_EQ(want.cycles[i][c], got.cycles[i][c])
                << want.names[i] << "." << cycleClassName(CycleClass(c));
        }
    }
}

void
expectProfiledRoundTrip(const HwgcConfig &config)
{
    OptionsGuard guard;
    telemetry::options().profile = true;
    const auto graph = testGraph(31);

    // Reference: one uninterrupted profiled run (dense kernel).
    const Attribution ref = profiledRun(
        graph, withKernel(config, KernelMode::Dense), [](Rig &) {});
    ASSERT_GT(ref.markCycles, 200u);
    ASSERT_GT(ref.freed, 0u);
    EXPECT_EQ(ref.observed, std::uint64_t(ref.finalNow));
    const Tick at = ref.markCycles / 2;

    // (1) A profiled writer checkpoints mid-mark and still matches
    //     the reference exactly, attribution included.
    const std::string path = tmpPath("profiled-midmark.ckpt");
    const Attribution writer = profiledRun(
        graph, withKernel(config, KernelMode::Dense),
        [&](Rig &rig) { rig.device->armCheckpoint(path, at); });
    EXPECT_EQ(ref.finalNow, writer.finalNow);
    EXPECT_EQ(ref.freed, writer.freed);
    expectSameAttribution(ref, writer);

    // (2) + (3) Restore under every kernel: the restored profiler saw
    //     only the suffix, the identity holds over it, and the suffix
    //     is kernel-independent.
    std::unique_ptr<Attribution> suffix_ref;
    for (const KernelMode kernel : {KernelMode::Dense, KernelMode::Event}) {
        SCOPED_TRACE(std::string("restore under ") +
                     kernelModeName(kernel));
        const Attribution run = profiledRun(
            graph, withKernel(config, kernel),
            [&](Rig &rig) {
                rig.device->restoreCheckpoint(path);
                EXPECT_EQ(rig.device->system().now(), at);
            });
        // The restored device finishes at the reference's final cycle
        // with the reference's functional outcome...
        EXPECT_EQ(ref.finalNow, run.finalNow);
        EXPECT_EQ(ref.freed, run.freed);
        // ...but its profiler observed exactly the resumed suffix.
        EXPECT_EQ(run.observed, std::uint64_t(ref.finalNow - at));
        // The suffix is a slice of the full attribution: per
        // component and class it can never exceed the reference, and
        // the implied prefix (ref - suffix) adds up to `at` cycles.
        ASSERT_EQ(ref.names.size(), run.names.size());
        for (std::size_t i = 0; i < ref.names.size(); ++i) {
            std::uint64_t prefix_sum = 0;
            for (std::size_t cls = 0; cls < numCycleClasses; ++cls) {
                EXPECT_GE(ref.cycles[i][cls], run.cycles[i][cls])
                    << ref.names[i] << "."
                    << cycleClassName(CycleClass(cls));
                prefix_sum += ref.cycles[i][cls] - run.cycles[i][cls];
            }
            EXPECT_EQ(prefix_sum, std::uint64_t(at)) << ref.names[i];
        }
        if (suffix_ref == nullptr) {
            suffix_ref = std::make_unique<Attribution>(run);
        } else {
            expectSameAttribution(*suffix_ref, run);
        }
    }
}

TEST(ProfilerCheckpoint, MidMarkRoundTripBaseline)
{
    expectProfiledRoundTrip(HwgcConfig{});
}

TEST(ProfilerCheckpoint, MidMarkRoundTripIdealMemory)
{
    HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    expectProfiledRoundTrip(config);
}

TEST(ProfilerCheckpoint, MidMarkRoundTripSpillPressure)
{
    HwgcConfig config;
    config.markQueueEntries = 32;
    expectProfiledRoundTrip(config);
}

} // namespace
} // namespace hwgc
