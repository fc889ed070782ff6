/**
 * @file
 * Determinism tests: the simulator must be bit-reproducible — same
 * seeds, same cycle counts, same statistics — across runs and across
 * configurations that should not affect results. This is what makes
 * every number in EXPERIMENTS.md reproducible.
 *
 * The KernelMatrix suite is the strongest form of that contract: the
 * dense and event kernels must agree bit for bit on every modeled
 * configuration — final cycle counts, the full stats-JSON export, and
 * the mark/sweep oracles.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "driver/fleet.h"
#include "driver/gc_lab.h"
#include "sim/telemetry.h"
#include "test_util.h"

namespace hwgc
{
namespace
{

struct RunSignature
{
    Tick hwMark = 0;
    Tick hwSweep = 0;
    std::uint64_t marked = 0;
    std::uint64_t freed = 0;
    std::uint64_t tracerRequests = 0;
    std::uint64_t spilled = 0;
    std::uint64_t dramBytes = 0;

    bool
    operator==(const RunSignature &o) const
    {
        return hwMark == o.hwMark && hwSweep == o.hwSweep &&
            marked == o.marked && freed == o.freed &&
            tracerRequests == o.tracerRequests &&
            spilled == o.spilled && dramBytes == o.dramBytes;
    }
};

RunSignature
signatureFor(const core::HwgcConfig &config, std::uint64_t seed)
{
    auto profile = workload::smokeProfile();
    profile.graph.seed = seed;
    driver::LabConfig lab_config;
    lab_config.runSw = false;
    lab_config.hwgc = config;
    driver::GcLab lab(profile, lab_config);
    lab.run();
    const auto &last = lab.results().back();
    RunSignature sig;
    sig.hwMark = last.hwMarkCycles;
    sig.hwSweep = last.hwSweepCycles;
    sig.marked = last.objectsMarked;
    sig.freed = last.cellsFreed;
    sig.tracerRequests = last.hw.tracerRequests;
    sig.spilled = last.hw.entriesSpilled;
    sig.dramBytes = last.hw.dramBytes;
    return sig;
}

TEST(Determinism, IdenticalRunsAreCycleIdentical)
{
    const auto a = signatureFor(core::HwgcConfig{}, 7);
    const auto b = signatureFor(core::HwgcConfig{}, 7);
    EXPECT_TRUE(a == b);
}

TEST(Determinism, SeedsChangeTheRun)
{
    const auto a = signatureFor(core::HwgcConfig{}, 7);
    const auto b = signatureFor(core::HwgcConfig{}, 8);
    EXPECT_FALSE(a == b);
}

TEST(Determinism, IdealMemoryRunsAreReproducible)
{
    core::HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    const auto a = signatureFor(config, 9);
    const auto b = signatureFor(config, 9);
    EXPECT_TRUE(a == b);
}

TEST(Determinism, SharedCacheRunsAreReproducible)
{
    core::HwgcConfig config;
    config.sharedCache = true;
    const auto a = signatureFor(config, 10);
    const auto b = signatureFor(config, 10);
    EXPECT_TRUE(a == b);
}

// ---------------------------------------------------------------------
// Kernel matrix: both kernel modes must produce the
// same simulation, bit for bit.
// ---------------------------------------------------------------------

/** One full lab run folded down to everything that must match. */
struct MatrixResult
{
    Tick hwMark = 0;  //!< Mark cycles summed over all pauses.
    Tick hwSweep = 0; //!< Sweep cycles summed over all pauses.
    std::uint64_t marked = 0;
    std::uint64_t freed = 0;
    std::string statsJson; //!< Normalized full registry export.
};

MatrixResult
matrixRun(core::HwgcConfig config, KernelMode kernel)
{
    config.kernel = kernel;
    driver::LabConfig lab_config;
    lab_config.runSw = false;
    lab_config.verify = true; // Oracle-checks marks and the swept heap.
    lab_config.hwgc = config;
    lab_config.heap.layout = config.layout;

    // Retired groups from earlier runs in this process would otherwise
    // accumulate into the export and differ between runs.
    telemetry::StatsRegistry::global().clearRetired();

    driver::GcLab lab(workload::smokeProfile(), lab_config);
    lab.run();

    MatrixResult r;
    for (const auto &pause : lab.results()) {
        r.hwMark += pause.hwMarkCycles;
        r.hwSweep += pause.hwSweepCycles;
        r.marked += pause.objectsMarked;
        r.freed += pause.cellsFreed;
    }
    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(os, {});
    r.statsJson = test::normalizeInstanceIds(
        os.str(), {"system.hwgc", "system.cpu", "system.fleet"});
    return r;
}

/** On mismatch, EXPECT_EQ on two full exports is unreadable; point at
 *  the first divergence instead. */
void
expectSameStatsJson(const std::string &ref, const std::string &run)
{
    if (ref == run) {
        return;
    }
    std::size_t i = 0;
    while (i < ref.size() && i < run.size() && ref[i] == run[i]) {
        ++i;
    }
    const std::size_t begin = i > 120 ? i - 120 : 0;
    ADD_FAILURE() << "stats JSON diverged at byte " << i << "\n  ref: ..."
                  << ref.substr(begin, 200) << "\n  run: ..."
                  << run.substr(begin, 200);
}

void
expectKernelMatrixAgrees(const core::HwgcConfig &config)
{
    const auto ref = matrixRun(config, KernelMode::Dense);
    const auto run = matrixRun(config, KernelMode::Event);
    EXPECT_EQ(ref.hwMark, run.hwMark);
    EXPECT_EQ(ref.hwSweep, run.hwSweep);
    EXPECT_EQ(ref.marked, run.marked);
    EXPECT_EQ(ref.freed, run.freed);
    expectSameStatsJson(ref.statsJson, run.statsJson);
}

TEST(KernelMatrix, BaselineDdr3)
{
    expectKernelMatrixAgrees(core::HwgcConfig{});
}

TEST(KernelMatrix, SharedCache)
{
    core::HwgcConfig config;
    config.sharedCache = true;
    expectKernelMatrixAgrees(config);
}

TEST(KernelMatrix, IdealMemory)
{
    core::HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    expectKernelMatrixAgrees(config);
}

TEST(KernelMatrix, SpillPressure)
{
    core::HwgcConfig config;
    config.markQueueEntries = 32; // Force the spill path.
    expectKernelMatrixAgrees(config);
}

TEST(KernelMatrix, BandwidthThrottle)
{
    core::HwgcConfig config;
    config.bus.throttleBytesPerCycle = 1.0;
    expectKernelMatrixAgrees(config);
}

TEST(KernelMatrix, TibLayout)
{
    core::HwgcConfig config;
    config.layout = runtime::Layout::Tib;
    expectKernelMatrixAgrees(config);
}

// ---------------------------------------------------------------------
// Fleet shape: two devices sharing one DRAM + interconnect, serving
// multiple tenant heaps through the quantum-gridded service loop.
// tests/test_fleet.cc owns the full fleet matrix; this case keeps a
// compact shared-DRAM fleet inside the tier-1 determinism suite.
// ---------------------------------------------------------------------

/** A whole fleet run folded down to everything that must match. */
struct FleetMatrixResult
{
    Tick finalCycle = 0;
    std::uint64_t totalGcs = 0;
    std::vector<std::uint64_t> perTenant; //!< gcs/stw/queue triples.
    std::string statsJson;
};

FleetMatrixResult
fleetMatrixRun(KernelMode kernel)
{
    driver::FleetConfig config;
    config.devices = 2;
    config.gcsPerTenant = 1;
    config.hwgc.kernel = kernel;

    std::vector<driver::TenantParams> tenants(3);
    for (unsigned t = 0; t < tenants.size(); ++t) {
        auto &tenant = tenants[t];
        tenant.name = std::string("t").append(std::to_string(t));
        tenant.graph = workload::smokeProfile().graph;
        tenant.graph.seed = 500 + t;
        tenant.gcPeriodCycles = 150'000;
        tenant.seed = 20 + t;
    }

    telemetry::StatsRegistry::global().clearRetired();
    FleetMatrixResult r;
    {
        driver::FleetLab lab(config, tenants);
        lab.run();
        r.finalCycle = lab.now();
        r.totalGcs = lab.totalGcs();
        for (const auto &stats : lab.stats()) {
            r.perTenant.push_back(stats.gcs);
            r.perTenant.push_back(stats.stwCycles);
            r.perTenant.push_back(stats.queueCycles);
        }
        std::ostringstream os;
        telemetry::StatsRegistry::global().exportJson(os, {});
        r.statsJson = test::normalizeInstanceIds(
            os.str(), {"system.hwgc", "system.cpu", "system.fleet"});
    } // Scoped: a live lab would leak its groups into later exports.
    return r;
}

TEST(KernelMatrix, FleetTwoDevicesSharedDram)
{
    const auto ref = fleetMatrixRun(KernelMode::Dense);
    EXPECT_EQ(ref.totalGcs, 3u);
    const auto run = fleetMatrixRun(KernelMode::Event);
    EXPECT_EQ(ref.finalCycle, run.finalCycle);
    EXPECT_EQ(ref.totalGcs, run.totalGcs);
    EXPECT_EQ(ref.perTenant, run.perTenant);
    expectSameStatsJson(ref.statsJson, run.statsJson);
}

// ---------------------------------------------------------------------
// Mark-queue overflow stress: a tiny queue against a wide graph keeps
// the spill/refill path saturated; its counters must still be
// identical across kernels (the full-export comparison covers them,
// but the explicit asserts document which stats are the point here).
// ---------------------------------------------------------------------

TEST(KernelMatrix, SpillStressTinyQueueWideGraph)
{
    core::HwgcConfig config;
    config.markQueueEntries = 16;
    config.spillQueueEntries = 16;
    config.spillThrottle = 8;

    auto profile = workload::smokeProfile();
    profile.graph.numRoots = 128;
    profile.graph.avgRefs = 8.0;
    profile.graph.maxRefs = 24;
    profile.numGCs = 1;

    auto run = [&](KernelMode kernel) {
        auto cfg = config;
        cfg.kernel = kernel;
        driver::LabConfig lab_config;
        lab_config.runSw = false;
        lab_config.verify = true;
        lab_config.hwgc = cfg;
        driver::GcLab lab(profile, lab_config);
        lab.run();
        const auto &hw = lab.results().back().hw;
        struct Spill
        {
            std::uint64_t writes, reads, entries;
            Tick markCycles;
        };
        return Spill{hw.spillWrites, hw.spillReads, hw.entriesSpilled,
                     lab.results().back().hwMarkCycles};
    };

    const auto dense = run(KernelMode::Dense);
    ASSERT_GT(dense.entries, 0u) << "stress config did not spill";
    ASSERT_GT(dense.writes, 0u);

    const auto event = run(KernelMode::Event);
    EXPECT_EQ(dense.writes, event.writes);
    EXPECT_EQ(dense.reads, event.reads);
    EXPECT_EQ(dense.entries, event.entries);
    EXPECT_EQ(dense.markCycles, event.markCycles);
}

TEST(Determinism, SwSideIsReproducibleToo)
{
    auto run = [] {
        driver::LabConfig config;
        config.runHw = false;
        driver::GcLab lab(workload::smokeProfile(), config);
        lab.run();
        return std::pair{lab.results().back().swMarkCycles,
                         lab.results().back().swSweepCycles};
    };
    EXPECT_EQ(run(), run());
}

} // namespace
} // namespace hwgc
