/**
 * @file
 * Cycle-accounting profiler tests (DESIGN.md §10):
 *
 *  1. The accounting identity `busy + Σstalls + idle == observed
 *     cycles` holds for every component on every modeled
 *     configuration of the determinism matrix, under both
 *     kernels — classification is a pure function of architectural
 *     state, so no kernel can over- or under-count.
 *  2. Profiling is observational: a profiled run is bit-identical to
 *     an unprofiled run in cycle counts and every core statistic.
 *  3. Attribution tracks the machine: a config whose bottleneck is
 *     known (bandwidth throttle, tiny mark queue) shifts the top
 *     stall class to the matching cause.
 *  4. The progress watchdog dumps diagnostics and aborts instead of
 *     hanging when a run exceeds its host-time budget.
 *
 * (1) also runs the profiler in lockstep with a reference that
 * classifies every component on every observation, and checks that
 * stats exports and retired groups include the profiler's open spans.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "driver/gc_lab.h"
#include "ref_profiler.h"
#include "sim/cycle_class.h"
#include "sim/profiler.h"
#include "sim/telemetry.h"
#include "test_util.h"
#include "workload/graph_gen.h"

namespace hwgc
{
namespace
{

/** Restores the process-global telemetry options on scope exit. */
struct OptionsGuard
{
    telemetry::Options saved = telemetry::options();
    ~OptionsGuard() { telemetry::options() = saved; }
};

/** A smoke-profile lab for @p config, HW collector only, not run. */
std::unique_ptr<driver::GcLab>
makeLab(core::HwgcConfig config,
        workload::BenchmarkProfile profile = workload::smokeProfile())
{
    driver::LabConfig lab_config;
    lab_config.runSw = false;
    lab_config.hwgc = config;
    lab_config.heap.layout = config.layout;
    telemetry::StatsRegistry::global().clearRetired();
    return std::make_unique<driver::GcLab>(profile, lab_config);
}

/** Runs the smoke profile with the profiler attached and returns the
 *  lab so the caller can interrogate the profiler before teardown. */
std::unique_ptr<driver::GcLab>
profiledRun(core::HwgcConfig config,
            workload::BenchmarkProfile profile = workload::smokeProfile())
{
    auto lab = makeLab(config, std::move(profile));
    lab->run();
    return lab;
}

// ---------------------------------------------------------------------
// (1) The accounting identity, config matrix x kernel matrix.
// ---------------------------------------------------------------------

void
expectIdentityHolds(core::HwgcConfig config)
{
    OptionsGuard guard;
    telemetry::options().profile = true;
    for (const KernelMode kernel : {KernelMode::Dense, KernelMode::Event}) {
        SCOPED_TRACE(kernelModeName(kernel));
        config.kernel = kernel;
        const auto lab = profiledRun(config);
        const telemetry::CycleProfiler *prof = lab->device().profiler();
        ASSERT_NE(prof, nullptr);
        ASSERT_GT(prof->observedCycles(), 0u);
        for (std::size_t i = 0; i < prof->numComponents(); ++i) {
            SCOPED_TRACE(prof->componentName(i));
            EXPECT_EQ(prof->accounted(i), prof->observedCycles());
        }
        // Phase attribution never invents cycles: per class, the
        // phase totals are bounded by the run total.
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            const auto cls = CycleClass(c);
            std::uint64_t phase_sum = 0;
            for (const auto &phase : prof->phases()) {
                phase_sum += prof->phaseAggregate(phase, cls);
            }
            EXPECT_LE(phase_sum, prof->aggregate(cls))
                << cycleClassName(cls);
        }
    }
}

TEST(ProfilerIdentity, BaselineDdr3)
{
    expectIdentityHolds(core::HwgcConfig{});
}

TEST(ProfilerIdentity, SharedCache)
{
    core::HwgcConfig config;
    config.sharedCache = true;
    expectIdentityHolds(config);
}

TEST(ProfilerIdentity, IdealMemory)
{
    core::HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    expectIdentityHolds(config);
}

TEST(ProfilerIdentity, SpillPressure)
{
    core::HwgcConfig config;
    config.markQueueEntries = 32;
    expectIdentityHolds(config);
}

TEST(ProfilerIdentity, BandwidthThrottle)
{
    core::HwgcConfig config;
    config.bus.throttleBytesPerCycle = 1.0;
    expectIdentityHolds(config);
}

TEST(ProfilerIdentity, TibLayout)
{
    core::HwgcConfig config;
    config.layout = runtime::Layout::Tib;
    expectIdentityHolds(config);
}

// ---------------------------------------------------------------------
// (1b) Lockstep with the reference profiler: the activity-driven
//      profiler attributes exactly what classifying every component on
//      every observation does, after every phase and every pause.
// ---------------------------------------------------------------------

void
expectLockstep(core::HwgcConfig config)
{
    OptionsGuard guard;
    telemetry::options().profile = true;
    for (const KernelMode kernel : {KernelMode::Dense, KernelMode::Event}) {
        SCOPED_TRACE(kernelModeName(kernel));
        config.kernel = kernel;
        const auto lab = makeLab(config);
        test::RefProfiler ref(lab->device());
        for (unsigned p = 0; p < lab->profile().numGCs; ++p) {
            SCOPED_TRACE("pause " + std::to_string(p));
            lab->run(1);
            ref.expectMatch();
        }
        EXPECT_GT(ref.observed(), 0u);
    }
}

TEST(ProfilerLockstep, BaselineDdr3)
{
    expectLockstep(core::HwgcConfig{});
}

TEST(ProfilerLockstep, SharedCache)
{
    core::HwgcConfig config;
    config.sharedCache = true;
    expectLockstep(config);
}

TEST(ProfilerLockstep, IdealMemory)
{
    core::HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    expectLockstep(config);
}

TEST(ProfilerLockstep, SpillPressure)
{
    core::HwgcConfig config;
    config.markQueueEntries = 32;
    expectLockstep(config);
}

TEST(ProfilerLockstep, BandwidthThrottle)
{
    core::HwgcConfig config;
    config.bus.throttleBytesPerCycle = 1.0;
    expectLockstep(config);
}

TEST(ProfilerLockstep, TibLayout)
{
    core::HwgcConfig config;
    config.layout = runtime::Layout::Tib;
    expectLockstep(config);
}

TEST(ProfilerLockstep, CoupledTracer)
{
    core::HwgcConfig config;
    config.decoupledTracer = false;
    expectLockstep(config);
}

// ---------------------------------------------------------------------
// (1c) Every read path sees the open spans: a stats export taken
//      mid-phase, and the values a device retires when it dies
//      mid-phase, satisfy the identity.
// ---------------------------------------------------------------------

/** A heap with a device configured on it, mid-mark at cycle @p at. */
struct MidMarkRig
{
    explicit MidMarkRig(Tick at) : heap(mem), builder(heap, graph())
    {
        builder.build();
        heap.clearAllMarks();
        heap.publishRoots();
        device = std::make_unique<core::HwgcDevice>(
            mem, heap.pageTable(), core::HwgcConfig{});
        device->configure(heap);
        device->startMark();
        device->profiler()->beginPhase("mark");
        stop = device->system().runUntilIdleStop(at);
    }

    static workload::GraphParams
    graph()
    {
        workload::GraphParams p;
        p.liveObjects = 900;
        p.garbageObjects = 450;
        p.numRoots = 8;
        p.seed = 7;
        return p;
    }

    mem::PhysMem mem;
    runtime::Heap heap;
    workload::GraphBuilder builder;
    std::unique_ptr<core::HwgcDevice> device;
    System::StopReason stop;
};

/**
 * Reads every "<prefix>.profile.<component>" group back from a stats
 * JSON export and returns the sum of its vector @p vec per group.
 */
std::map<std::string, std::uint64_t>
exportedProfileSums(const std::string &prefix, const std::string &vec)
{
    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(os, {});
    std::istringstream in(os.str());
    const std::string key = "\"" + prefix + ".profile.";
    const std::string vec_key = "\"" + vec + "\": {\"labels\": {";
    const std::string sum_key = "}, \"total\": ";
    std::map<std::string, std::uint64_t> sums;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t at = line.find(key);
        if (at == std::string::npos) {
            continue;
        }
        const std::string path =
            line.substr(at + 1, line.find('"', at + 1) - at - 1);
        const std::size_t v = line.find(vec_key);
        if (v == std::string::npos) {
            ADD_FAILURE() << path << " has no vector " << vec;
            continue;
        }
        const std::size_t sum = line.find(sum_key, v);
        sums[path] = std::stoull(line.substr(sum + sum_key.size()));
    }
    return sums;
}

TEST(ProfilerReadPaths, MidMarkExportIncludesOpenSpans)
{
    OptionsGuard guard;
    telemetry::options().profile = true;
    telemetry::StatsRegistry::global().clearRetired();
    MidMarkRig rig(400);
    ASSERT_EQ(rig.stop, System::StopReason::Stopped);
    const telemetry::CycleProfiler &prof = *rig.device->profiler();
    ASSERT_EQ(prof.observedCycles(), 400u);
    for (const char *vec : {"total", "mark"}) {
        SCOPED_TRACE(vec);
        const auto sums =
            exportedProfileSums(rig.device->statsPrefix(), vec);
        EXPECT_EQ(sums.size(), prof.numComponents());
        for (const auto &[path, sum] : sums) {
            EXPECT_EQ(sum, prof.observedCycles()) << path;
        }
    }
}

TEST(ProfilerReadPaths, DeviceDestroyedMidPhaseRetiresFullSpans)
{
    OptionsGuard guard;
    telemetry::options().profile = true;
    telemetry::StatsRegistry::global().clearRetired();
    MidMarkRig rig(400);
    ASSERT_EQ(rig.stop, System::StopReason::Stopped);
    const std::string prefix = rig.device->statsPrefix();
    const std::size_t components = rig.device->profiler()->numComponents();
    const std::uint64_t observed =
        rig.device->profiler()->observedCycles();
    rig.device.reset(); // Retires the groups with the mark phase open.
    for (const char *vec : {"total", "mark"}) {
        SCOPED_TRACE(vec);
        const auto sums = exportedProfileSums(prefix, vec);
        EXPECT_EQ(sums.size(), components);
        for (const auto &[path, sum] : sums) {
            EXPECT_EQ(sum, observed) << path;
        }
    }
}

// ---------------------------------------------------------------------
// (2) Profiler on/off is bit-identical in cycles and core stats.
// ---------------------------------------------------------------------

/** Drops the "<prefix>.profile.<comp>" sections the profiler itself
 *  registers — they exist only in the profiled run by design; every
 *  *other* stat must match bit for bit. */
std::string
dropProfileSections(const std::string &dump)
{
    std::istringstream in(dump);
    std::ostringstream out;
    std::string line;
    bool skipping = false;
    while (std::getline(in, line)) {
        if (line.rfind("==========", 0) == 0) {
            skipping = line.find(".profile.") != std::string::npos;
        }
        if (!skipping) {
            out << line << '\n';
        }
    }
    return out.str();
}

TEST(ProfilerObservational, OnOffBitIdentical)
{
    struct Result
    {
        Tick hwMark = 0;
        Tick hwSweep = 0;
        std::uint64_t marked = 0;
        std::uint64_t freed = 0;
        std::string stats;
    };
    auto run = [](bool profile_on) {
        OptionsGuard guard;
        telemetry::options().profile = profile_on;
        const auto lab = profiledRun(core::HwgcConfig{});
        EXPECT_EQ(lab->device().profiler() != nullptr, profile_on);
        Result r;
        for (const auto &pause : lab->results()) {
            r.hwMark += pause.hwMarkCycles;
            r.hwSweep += pause.hwSweepCycles;
            r.marked += pause.objectsMarked;
            r.freed += pause.cellsFreed;
        }
        std::ostringstream os;
        telemetry::StatsRegistry::global().dump(os);
        r.stats = test::normalizeInstanceIds(
            dropProfileSections(os.str()), {"system.hwgc", "system.cpu"});
        return r;
    };
    const Result off = run(false);
    const Result on = run(true);
    EXPECT_EQ(off.hwMark, on.hwMark);
    EXPECT_EQ(off.hwSweep, on.hwSweep);
    EXPECT_EQ(off.marked, on.marked);
    EXPECT_EQ(off.freed, on.freed);
    EXPECT_EQ(off.stats, on.stats);
}

// ---------------------------------------------------------------------
// (3) Known bottlenecks shift the top attribution.
// ---------------------------------------------------------------------

/** Component @p name's whole-run share of class @p cls. */
double
componentShare(const telemetry::CycleProfiler &prof,
               const std::string &name, CycleClass cls)
{
    for (std::size_t i = 0; i < prof.numComponents(); ++i) {
        if (prof.componentName(i) == name) {
            return double(prof.cycles(i, cls)) /
                   double(prof.accounted(i));
        }
    }
    ADD_FAILURE() << "no component named " << name;
    return 0.0;
}

TEST(ProfilerBottleneck, BandwidthThrottleShiftsMarkToDram)
{
    OptionsGuard guard;
    telemetry::options().profile = true;

    const auto baseline = profiledRun(core::HwgcConfig{});
    const double base_bus = componentShare(
        *baseline->device().profiler(), "bus", CycleClass::StallDram);
    const std::uint64_t base_dram_cycles =
        baseline->device().profiler()->phaseAggregate(
            "mark", CycleClass::StallDram);

    core::HwgcConfig throttled;
    throttled.bus.throttleBytesPerCycle = 0.25; // 0.25 GB/s cap.
    const auto lab = profiledRun(throttled);
    const telemetry::CycleProfiler &prof = *lab->device().profiler();

    // The capped machine is bandwidth-bound: DRAM stalls top the mark
    // phase, the bus spends nearly everything token-starved, and the
    // absolute DRAM-stall cycle count balloons with the longer run.
    EXPECT_EQ(prof.topStallClass("mark"), CycleClass::StallDram);
    EXPECT_GT(componentShare(prof, "bus", CycleClass::StallDram),
              base_bus + 0.2);
    EXPECT_GT(prof.phaseAggregate("mark", CycleClass::StallDram),
              base_dram_cycles);
}

TEST(ProfilerBottleneck, TinyMarkQueueShiftsQueueToSpillDram)
{
    OptionsGuard guard;
    telemetry::options().profile = true;

    auto queue_dram_share = [](core::HwgcConfig config) {
        const auto lab = profiledRun(config);
        return componentShare(*lab->device().profiler(), "markQueue",
                              CycleClass::StallDram);
    };

    core::HwgcConfig tiny;
    tiny.markQueueEntries = 16; // Baseline: 1024.

    // Shrinking the on-chip queue forces constant spill/refill memory
    // round trips: the markQueue's cycles move into StallDram.
    EXPECT_GT(queue_dram_share(tiny),
              queue_dram_share(core::HwgcConfig{}) + 0.05);
}

// ---------------------------------------------------------------------
// (4) The watchdog aborts a wedged run with diagnostics.
// ---------------------------------------------------------------------

using WatchdogDeathTest = ::testing::Test;

TEST(WatchdogDeathTest, AbortsAndReportsWhenBudgetExceeded)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            // A budget no real run can meet: the first 64Ki-cycle
            // check fires, dumps the live report, and panics.
            telemetry::options().watchdogSecs = 1e-9;
            telemetry::options().profile = true;
            driver::LabConfig lab_config;
            lab_config.runSw = false;
            driver::GcLab lab(workload::smokeProfile(), lab_config);
            lab.run();
        },
        "watchdog");
}

} // namespace
} // namespace hwgc
