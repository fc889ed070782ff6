/**
 * @file
 * Differential fuzzing harness tests (DESIGN.md §11):
 *
 *  1. Schedules are pure functions of the seed and round-trip through
 *     the text format byte-identically; malformed files are rejected
 *     with line-numbered errors.
 *  2. Config specs apply exactly the named knobs and reject unknown
 *     keys/values with a message naming the offender.
 *  3. The differential matrix runs green on healthy schedules of
 *     every shape family.
 *  4. An intentionally injected mark-bit bug is *caught*: the run
 *     fails with a mark-set divergence, writes the schedule + a
 *     pid-suffixed crash checkpoint, and composes a repro line that
 *     does reproduce the failure. (The acceptance criterion for the
 *     whole harness: a real bug cannot slip through silently.)
 *  5. Shrinking produces a smaller schedule that still fails.
 *  6. Farm snapshots reconstruct a warm heap bit-identically: the
 *     forked universe's next pause and next mutation match the
 *     original's exactly.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "core/hwgc_device.h"
#include "fuzz/differ.h"
#include "fuzz/farm.h"
#include "fuzz/shrink.h"
#include "gc/verifier.h"
#include "sim/checkpoint.h"

namespace hwgc
{
namespace
{

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

bool
fileExists(const std::string &path)
{
    std::ifstream f(path);
    return f.good();
}

/** A small schedule that keeps matrix replays fast. */
fuzz::Schedule
smallSchedule(std::uint64_t seed = 7)
{
    fuzz::Schedule s;
    s.seed = seed;
    s.shape = fuzz::Shape::Random;
    s.liveObjects = 150;
    s.garbageObjects = 80;
    s.ops = {{fuzz::Op::Kind::Collect, 0},
             {fuzz::Op::Kind::Mutate, 250},
             {fuzz::Op::Kind::Collect, 0}};
    return s;
}

// ---------------------------------------------------------------------
// (1) Schedule generation and the text format.
// ---------------------------------------------------------------------

TEST(FuzzSchedule, GenerateIsDeterministic)
{
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const fuzz::Schedule a = fuzz::generate(seed);
        const fuzz::Schedule b = fuzz::generate(seed);
        EXPECT_EQ(fuzz::toText(a), fuzz::toText(b)) << "seed " << seed;
        EXPECT_GE(a.collects(), 1u) << "seed " << seed;
        EXPECT_EQ(a.seed, seed);
    }
}

TEST(FuzzSchedule, SeedsCoverEveryShapeFamily)
{
    bool seen[4] = {};
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        seen[unsigned(fuzz::generate(seed).shape)] = true;
    }
    EXPECT_TRUE(seen[unsigned(fuzz::Shape::Random)]);
    EXPECT_TRUE(seen[unsigned(fuzz::Shape::Chain)]);
    EXPECT_TRUE(seen[unsigned(fuzz::Shape::SpillStorm)]);
    EXPECT_TRUE(seen[unsigned(fuzz::Shape::Sparse)]);
}

TEST(FuzzSchedule, TextRoundTripsEveryShape)
{
    for (const fuzz::Shape shape :
         {fuzz::Shape::Random, fuzz::Shape::Chain, fuzz::Shape::SpillStorm,
          fuzz::Shape::Sparse}) {
        fuzz::Schedule s = smallSchedule(11);
        s.shape = shape;
        const std::string text = fuzz::toText(s);
        fuzz::Schedule parsed;
        std::string err;
        ASSERT_TRUE(fuzz::fromText(text, parsed, &err)) << err;
        EXPECT_EQ(text, fuzz::toText(parsed));
        EXPECT_EQ(s.shape, parsed.shape);
        EXPECT_EQ(s.liveObjects, parsed.liveObjects);
        EXPECT_EQ(s.ops.size(), parsed.ops.size());
    }
}

TEST(FuzzSchedule, AdversarialShapesReachTheirParams)
{
    fuzz::Schedule chain = smallSchedule();
    chain.shape = fuzz::Shape::Chain;
    const auto chain_params = fuzz::graphParams(chain);
    EXPECT_EQ(chain_params.numRoots, 1u);
    EXPECT_EQ(chain_params.maxRefs, 1u);
    EXPECT_EQ(chain_params.arrayFraction, 0.0);

    fuzz::Schedule storm = smallSchedule();
    storm.shape = fuzz::Shape::SpillStorm;
    EXPECT_GT(fuzz::graphParams(storm).arrayFraction, 0.4);

    fuzz::Schedule sparse = smallSchedule();
    sparse.shape = fuzz::Shape::Sparse;
    EXPECT_GE(fuzz::graphParams(sparse).sparsePadObjects, 3u);
}

TEST(FuzzSchedule, RejectsMalformedText)
{
    fuzz::Schedule out;
    std::string err;
    EXPECT_FALSE(fuzz::fromText("", out, &err));
    EXPECT_FALSE(fuzz::fromText("version 9\nseed 1\ncollect\n", out, &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    // A schedule without any collect cannot test anything.
    EXPECT_FALSE(fuzz::fromText("version 1\nseed 1\nmutate 100\n", out,
                                &err));
    EXPECT_FALSE(
        fuzz::fromText("version 1\nseed 1\nfrobnicate\ncollect\n", out,
                       &err));
    EXPECT_NE(err.find("line 3"), std::string::npos) << err;
}

TEST(FuzzSchedule, FileRoundTrip)
{
    const std::string path = tmpPath("roundtrip.sched");
    const fuzz::Schedule s = fuzz::generate(5);
    ASSERT_TRUE(fuzz::saveFile(path, s));
    fuzz::Schedule loaded;
    std::string err;
    ASSERT_TRUE(fuzz::loadFile(path, loaded, &err)) << err;
    EXPECT_EQ(fuzz::toText(s), fuzz::toText(loaded));
    EXPECT_FALSE(fuzz::loadFile(tmpPath("nonexistent.sched"), loaded,
                                &err));
}

// ---------------------------------------------------------------------
// (2) Config specs.
// ---------------------------------------------------------------------

TEST(FuzzConfigSpec, AppliesNamedKnobs)
{
    core::HwgcConfig config;
    std::string err;
    ASSERT_TRUE(fuzz::applyConfigSpec(
        config, "mq=32,mshrs=2,mem=ideal,bw=2.5,kernel=dense",
        &err))
        << err;
    EXPECT_EQ(config.markQueueEntries, 32u);
    EXPECT_EQ(config.sharedCacheParams.mshrs, 2u);
    EXPECT_EQ(config.memModel, core::MemModel::Ideal);
    EXPECT_EQ(config.bus.throttleBytesPerCycle, 2.5);
    EXPECT_EQ(config.kernel, KernelMode::Dense);

    core::HwgcConfig untouched;
    ASSERT_TRUE(fuzz::applyConfigSpec(untouched, "", &err)) << err;
    EXPECT_EQ(untouched.markQueueEntries,
              core::HwgcConfig{}.markQueueEntries);
}

TEST(FuzzConfigSpec, RejectsUnknownKeysAndBadValues)
{
    core::HwgcConfig config;
    std::string err;
    EXPECT_FALSE(fuzz::applyConfigSpec(config, "bogus=1", &err));
    EXPECT_NE(err.find("bogus"), std::string::npos) << err;
    EXPECT_FALSE(fuzz::applyConfigSpec(config, "mq=banana", &err));
    EXPECT_NE(err.find("mq"), std::string::npos) << err;
    EXPECT_FALSE(fuzz::applyConfigSpec(config, "mem=tape", &err));
    EXPECT_FALSE(fuzz::applyConfigSpec(config, "mq", &err));
    EXPECT_FALSE(fuzz::applyConfigSpec(config, "kernel=parallel", &err));
    EXPECT_NE(err.find("parallel"), std::string::npos) << err;
    EXPECT_FALSE(fuzz::applyConfigSpec(config, "threads=3", &err));
    EXPECT_NE(err.find("threads"), std::string::npos) << err;
}

TEST(FuzzConfigSpec, DevicesAxisBuildsFleetShapes)
{
    core::HwgcConfig config;
    std::string err;
    ASSERT_TRUE(fuzz::applyConfigSpec(config, "devices=2", &err)) << err;
    EXPECT_EQ(config.devices, 2u);
    // Zero devices is not a shape; the key is rejected wholesale.
    EXPECT_FALSE(fuzz::applyConfigSpec(config, "devices=0", &err));
    EXPECT_NE(err.find("devices"), std::string::npos) << err;
    // The thorough grid carries a fleet point.
    bool fleet_point = false;
    for (const fuzz::ConfigPoint &point : fuzz::fullGrid()) {
        fleet_point = fleet_point ||
            point.spec.find("devices=") != std::string::npos;
    }
    EXPECT_TRUE(fleet_point);
}

TEST(FuzzConfigSpec, KernelCaseNames)
{
    fuzz::KernelCase kc;
    ASSERT_TRUE(fuzz::kernelCaseFromName("dense", kc));
    EXPECT_EQ(kc.mode, KernelMode::Dense);
    ASSERT_TRUE(fuzz::kernelCaseFromName("event", kc));
    EXPECT_EQ(kc.mode, KernelMode::Event);
    EXPECT_FALSE(fuzz::kernelCaseFromName("parallel@4", kc));
    EXPECT_FALSE(fuzz::kernelCaseFromName("vectorized", kc));
    EXPECT_FALSE(fuzz::kernelCaseFromName("parallel@x", kc));
}

// ---------------------------------------------------------------------
// (3) Healthy schedules run the matrix green.
// ---------------------------------------------------------------------

TEST(FuzzDiffer, SmallScheduleMatrixIsGreen)
{
    const fuzz::FuzzResult result = fuzz::runSchedule(smallSchedule());
    EXPECT_TRUE(result.ok) << result.error;
    // 2 collects x 2 quick-grid configs x 2 kernel legs.
    EXPECT_EQ(result.collectsRun, 8u);
}

TEST(FuzzDiffer, EveryShapeFamilyIsGreen)
{
    for (const fuzz::Shape shape :
         {fuzz::Shape::Chain, fuzz::Shape::SpillStorm,
          fuzz::Shape::Sparse}) {
        SCOPED_TRACE(fuzz::shapeName(shape));
        fuzz::Schedule s = smallSchedule(13);
        s.shape = shape;
        s.liveObjects = 120;
        s.garbageObjects = 40;
        const fuzz::FuzzResult result = fuzz::runSchedule(s);
        EXPECT_TRUE(result.ok) << result.error;
    }
}

TEST(FuzzDiffer, FleetShapeMatrixIsGreen)
{
    // Two devices behind a shared bus + memory, collections alternating
    // across the array. Cycle digests must agree across every kernel
    // leg and the functional digests must match the single-device
    // baseline config exactly (cross-config comparison inside the run).
    fuzz::FuzzOptions options;
    options.grid = {{"baseline-ideal", "mem=ideal"},
                    {"fleet2-ideal", "devices=2,mem=ideal"}};
    const fuzz::FuzzResult result =
        fuzz::runSchedule(smallSchedule(21), options);
    EXPECT_TRUE(result.ok) << result.error;
    // 2 collects x 2 configs x 2 kernel legs.
    EXPECT_EQ(result.collectsRun, 8u);
}

// ---------------------------------------------------------------------
// (4) The acceptance criterion: an injected mark-bit bug is caught,
//     dumped, and the repro line reproduces it.
// ---------------------------------------------------------------------

TEST(FuzzInjection, MarkBitBugIsCaughtDumpedAndReproducible)
{
    fuzz::FuzzOptions options;
    options.injectMarkBug = true;
    options.writeArtifacts = true;
    options.artifactDir = ::testing::TempDir();
    options.driverName = "fuzz_driver";

    const fuzz::Schedule schedule = smallSchedule(99);
    const fuzz::FuzzResult result = fuzz::runSchedule(schedule, options);

    ASSERT_FALSE(result.ok) << "an injected mark-set bug slipped through";
    EXPECT_NE(result.error.find("reachable but unmarked"),
              std::string::npos)
        << result.error;
    EXPECT_GE(result.failedOp, 0);

    // Artifacts: the schedule, a pid-suffixed crash checkpoint, and a
    // repro line naming both.
    ASSERT_FALSE(result.schedulePath.empty());
    EXPECT_TRUE(fileExists(result.schedulePath)) << result.schedulePath;
    ASSERT_FALSE(result.crashPath.empty());
    EXPECT_NE(result.crashPath.find(
                  ".crash." + std::to_string(::getpid())),
              std::string::npos)
        << result.crashPath;
    EXPECT_TRUE(fileExists(result.crashPath)) << result.crashPath;
    ASSERT_FALSE(result.reproLine.empty());
    EXPECT_NE(result.reproLine.find("--schedule="), std::string::npos);
    EXPECT_NE(result.reproLine.find("--kernel="), std::string::npos);
    EXPECT_NE(result.reproLine.find("--inject-mark-bug"),
              std::string::npos);

    // The crash checkpoint is a valid device checkpoint.
    EXPECT_GT(checkpoint::Deserializer::listChunks(result.crashPath).size(),
              3u);

    // The dumped schedule + named (config, kernel) reproduce the
    // divergence — the repro line works.
    fuzz::Schedule replay;
    std::string err;
    ASSERT_TRUE(fuzz::loadFile(result.schedulePath, replay, &err)) << err;
    fuzz::FuzzOptions narrowed;
    narrowed.injectMarkBug = true;
    for (const fuzz::ConfigPoint &point : fuzz::quickGrid()) {
        if (point.name == result.configName) {
            narrowed.grid = {point};
        }
    }
    ASSERT_FALSE(narrowed.grid.empty())
        << "diverged config " << result.configName
        << " not found in quick grid";
    fuzz::KernelCase kc;
    ASSERT_TRUE(fuzz::kernelCaseFromName(result.kernelName, kc));
    narrowed.kernels = {kc};
    const fuzz::FuzzResult again = fuzz::runSchedule(replay, narrowed);
    EXPECT_FALSE(again.ok) << "repro line did not reproduce";
    EXPECT_NE(again.error.find("reachable but unmarked"),
              std::string::npos)
        << again.error;

    // Sanity: the same schedule without injection is green.
    const fuzz::FuzzResult clean = fuzz::runSchedule(replay);
    EXPECT_TRUE(clean.ok) << clean.error;
}

// ---------------------------------------------------------------------
// (5) Shrinking.
// ---------------------------------------------------------------------

TEST(FuzzShrink, MinimizedScheduleStillFails)
{
    fuzz::FuzzOptions options;
    options.injectMarkBug = true;

    fuzz::Schedule schedule = smallSchedule(123);
    schedule.ops = {{fuzz::Op::Kind::Mutate, 100},
                    {fuzz::Op::Kind::Collect, 0},
                    {fuzz::Op::Kind::Mutate, 300},
                    {fuzz::Op::Kind::Collect, 0},
                    {fuzz::Op::Kind::Mutate, 200},
                    {fuzz::Op::Kind::Collect, 0}};
    const fuzz::FuzzResult failure = fuzz::runSchedule(schedule, options);
    ASSERT_FALSE(failure.ok);

    fuzz::ShrinkStats stats;
    const fuzz::Schedule minimized =
        fuzz::shrink(schedule, options, failure, &stats);
    EXPECT_LT(minimized.ops.size(), schedule.ops.size());
    EXPECT_LE(minimized.liveObjects, schedule.liveObjects);
    EXPECT_GE(minimized.collects(), 1u);
    EXPECT_GT(stats.probes, 0u);
    EXPECT_LE(stats.probes, 30u);

    const fuzz::FuzzResult still = fuzz::runSchedule(minimized, options);
    EXPECT_FALSE(still.ok) << "shrunk schedule no longer fails";
}

// ---------------------------------------------------------------------
// (6) Farm snapshots fork bit-identically.
// ---------------------------------------------------------------------

/** What one pause + one mutation of a universe produces. */
struct ForkDigest
{
    Tick markCycles = 0;
    Tick sweepCycles = 0;
    std::uint64_t markedCount = 0;
    std::uint64_t markDigest = 0;
    std::uint64_t freed = 0;
    std::uint64_t liveAfterMutate = 0;
    std::uint64_t bytesAfterMutate = 0;
};

ForkDigest
pauseAndMutate(runtime::Heap &heap, workload::GraphBuilder &builder,
               mem::PhysMem &mem, const core::HwgcConfig &config)
{
    core::HwgcDevice device(mem, heap.pageTable(), config);
    heap.clearAllMarks();
    heap.publishRoots();
    device.configure(heap);
    ForkDigest d;
    const auto mark = device.runMark();
    d.markCycles = mark.cycles;
    d.markedCount = heap.countMarked();
    d.markDigest = gc::markSetDigest(heap);
    const auto sweep = device.runSweep();
    d.sweepCycles = sweep.cycles;
    d.freed = heap.onAfterSweep();
    // The restored builder must continue its RNG stream exactly.
    builder.mutate(0.3);
    d.liveAfterMutate = heap.liveObjects();
    d.bytesAfterMutate = heap.bytesAllocated();
    return d;
}

TEST(FuzzFarm, SnapshotForksBitIdentically)
{
    const std::string path = tmpPath("fork.farm");

    // Build + warm the original universe: one pause, one mutation.
    workload::GraphParams params;
    params.liveObjects = 400;
    params.garbageObjects = 150;
    params.seed = 77;
    mem::PhysMem mem;
    runtime::Heap heap(mem);
    workload::GraphBuilder builder(heap, params);
    builder.build();
    {
        core::HwgcDevice warm(mem, heap.pageTable(), core::HwgcConfig{});
        heap.clearAllMarks();
        heap.publishRoots();
        warm.configure(heap);
        warm.runMark();
        warm.runSweep();
        heap.onAfterSweep();
        builder.mutate(0.25);
    }

    fuzz::FarmMeta meta;
    meta.seed = params.seed;
    meta.warmPauses = 1;
    meta.liveObjects = heap.liveObjects();
    meta.bytesAllocated = heap.bytesAllocated();
    fuzz::saveFarmSnapshot(path, meta, params, heap, builder, mem);

    // Fork twice under different configs *before* running the
    // original forward, so restored state cannot share anything.
    fuzz::FarmUniverse forkA = fuzz::loadFarmSnapshot(path);
    EXPECT_EQ(forkA.meta.seed, params.seed);
    EXPECT_EQ(forkA.meta.liveObjects, meta.liveObjects);
    EXPECT_EQ(forkA.heap->liveObjects(), heap.liveObjects());
    EXPECT_EQ(forkA.heap->bytesAllocated(), heap.bytesAllocated());
    EXPECT_EQ(forkA.builder->objectsBuilt(), builder.objectsBuilt());

    fuzz::FarmUniverse forkB = fuzz::loadFarmSnapshot(path);

    core::HwgcConfig base;
    core::HwgcConfig tiny;
    tiny.markQueueEntries = 32;
    tiny.memModel = core::MemModel::Ideal;

    const ForkDigest a =
        pauseAndMutate(*forkA.heap, *forkA.builder, *forkA.mem, base);
    const ForkDigest b =
        pauseAndMutate(*forkB.heap, *forkB.builder, *forkB.mem, tiny);
    const ForkDigest o = pauseAndMutate(heap, builder, mem, base);

    // Same config: the fork is bit-identical to the original, cycles
    // included.
    EXPECT_EQ(o.markCycles, a.markCycles);
    EXPECT_EQ(o.sweepCycles, a.sweepCycles);
    EXPECT_EQ(o.markedCount, a.markedCount);
    EXPECT_EQ(o.markDigest, a.markDigest);
    EXPECT_EQ(o.freed, a.freed);
    EXPECT_EQ(o.liveAfterMutate, a.liveAfterMutate);
    EXPECT_EQ(o.bytesAfterMutate, a.bytesAfterMutate);

    // Different config: cycles may differ, the functional outcome and
    // the continued mutator stream may not.
    EXPECT_EQ(o.markedCount, b.markedCount);
    EXPECT_EQ(o.markDigest, b.markDigest);
    EXPECT_EQ(o.freed, b.freed);
    EXPECT_EQ(o.liveAfterMutate, b.liveAfterMutate);
    EXPECT_EQ(o.bytesAfterMutate, b.bytesAfterMutate);
}

using FuzzFarmDeathTest = ::testing::Test;

TEST(FuzzFarmDeathTest, RejectsTruncatedSnapshot)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string good = tmpPath("trunc.farm");
    const std::string bad = tmpPath("trunc-cut.farm");

    workload::GraphParams params;
    params.liveObjects = 60;
    params.garbageObjects = 20;
    params.seed = 3;
    mem::PhysMem mem;
    runtime::Heap heap(mem);
    workload::GraphBuilder builder(heap, params);
    builder.build();
    fuzz::saveFarmSnapshot(good, {}, params, heap, builder, mem);

    std::ifstream in(good, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 256u);
    std::ofstream out(bad, std::ios::binary);
    out.write(bytes.data(), std::streamsize(bytes.size() / 2));
    out.close();

    EXPECT_DEATH(fuzz::loadFarmSnapshot(bad), "");
}

} // namespace
} // namespace hwgc
