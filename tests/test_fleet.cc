/**
 * @file
 * Fleet-mode tests: a device array sharing one interconnect + DRAM,
 * time-multiplexed across tenant heaps, must be bit-identical across
 * the dense and event kernels, checkpoint/restore mid-service
 * without perturbing the run, honor per-tenant pacing budgets, and
 * dispatch in the order the configured policy defines. Also covers
 * the crash-hook registry the fleet leans on (one hook per session,
 * LIFO, all of them run).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "driver/fleet.h"
#include "sim/logging.h"
#include "sim/telemetry.h"
#include "workload/dacapo.h"
#include "test_util.h"

namespace hwgc
{
namespace
{

/** Small tenants so the dense-kernel leg stays test-sized. */
std::vector<driver::TenantParams>
tinyTenants(unsigned n)
{
    std::vector<driver::TenantParams> tenants;
    for (unsigned t = 0; t < n; ++t) {
        driver::TenantParams p;
        p.name = std::string("t").append(std::to_string(t));
        p.graph = workload::smokeProfile().graph;
        p.graph.seed = 1000 + t;
        p.churnPerGC = 0.3;
        p.gcPeriodCycles = 200'000;
        // Alternate tight/loose deadlines so EDF has something to
        // reorder when requests queue.
        p.deadlineMs = (t % 2) == 0 ? 0.2 : 5.0;
        p.sloMs = 1.0;
        p.seed = 10 + t;
        p.latency.issueIntervalMs = 0.05;
        p.latency.totalQueries = 2000;
        p.latency.warmupQueries = 100;
        p.latency.serviceMeanMs = 0.01;
        p.latency.serviceJitterMs = 0.01;
        p.latency.seed = 77 + t;
        tenants.push_back(p);
    }
    return tenants;
}

driver::FleetConfig
tinyConfig(unsigned devices,
           driver::GcPolicy policy = driver::GcPolicy::Fifo)
{
    driver::FleetConfig config;
    config.devices = devices;
    config.policy = policy;
    config.gcsPerTenant = 2;
    return config;
}

/** Everything a fleet run must reproduce bit-for-bit. */
struct FleetSig
{
    Tick finalCycle = 0;
    std::uint64_t totalGcs = 0;
    std::vector<std::uint64_t> perTenant; //!< gcs, stw, queue triples.
    std::string statsJson;

    bool
    operator==(const FleetSig &o) const
    {
        return finalCycle == o.finalCycle && totalGcs == o.totalGcs &&
            perTenant == o.perTenant && statsJson == o.statsJson;
    }
};

FleetSig
signatureOf(driver::FleetLab &lab)
{
    FleetSig sig;
    sig.finalCycle = lab.now();
    sig.totalGcs = lab.totalGcs();
    for (const auto &s : lab.stats()) {
        sig.perTenant.push_back(s.gcs);
        sig.perTenant.push_back(s.stwCycles);
        sig.perTenant.push_back(s.queueCycles);
    }
    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(os, {});
    sig.statsJson = test::normalizeInstanceIds(
        os.str(), {"system.hwgc", "system.fleet"});
    return sig;
}

/** On mismatch, point at the first divergence instead of dumping. */
void
expectSameSig(const FleetSig &ref, const FleetSig &run)
{
    EXPECT_EQ(ref.finalCycle, run.finalCycle);
    EXPECT_EQ(ref.totalGcs, run.totalGcs);
    EXPECT_EQ(ref.perTenant, run.perTenant);
    if (ref.statsJson != run.statsJson) {
        std::size_t i = 0;
        while (i < ref.statsJson.size() && i < run.statsJson.size() &&
               ref.statsJson[i] == run.statsJson[i]) {
            ++i;
        }
        const std::size_t begin = i > 120 ? i - 120 : 0;
        ADD_FAILURE() << "stats JSON diverged at byte " << i
                      << "\n  ref: ..." << ref.statsJson.substr(begin, 200)
                      << "\n  run: ..." << run.statsJson.substr(begin, 200);
    }
}

FleetSig
runFleet(driver::FleetConfig config, KernelMode kernel,
         unsigned tenants = 4)
{
    config.hwgc.kernel = kernel;
    telemetry::StatsRegistry::global().clearRetired();
    driver::FleetLab lab(config, tinyTenants(tenants));
    lab.run();
    return signatureOf(lab);
}

void
expectFleetMatrixAgrees(const driver::FleetConfig &config,
                        unsigned tenants = 4)
{
    const auto ref = runFleet(config, KernelMode::Dense, tenants);
    EXPECT_GT(ref.totalGcs, 0u);
    expectSameSig(ref, runFleet(config, KernelMode::Event, tenants));
}

// ---------------------------------------------------------------------
// Kernel matrix on fleet shapes.
// ---------------------------------------------------------------------

TEST(FleetMatrix, TwoDevicesFourTenantsSharedDram)
{
    expectFleetMatrixAgrees(tinyConfig(2));
}

TEST(FleetMatrix, DeadlinePolicyAgreesAcrossKernels)
{
    expectFleetMatrixAgrees(
        tinyConfig(2, driver::GcPolicy::Deadline));
}

TEST(FleetMatrix, PacedTenantsAgreeAcrossKernels)
{
    // Per-tenant bandwidth budgets route through the interconnect's
    // group token buckets; pacing must not break kernel equivalence.
    driver::FleetConfig config = tinyConfig(2);
    auto tenants = tinyTenants(4);
    tenants[0].paceBytesPerCycle = 1.0;
    tenants[2].paceBytesPerCycle = 0.5;

    // Each lab lives in its own scope: its stats groups must retire
    // before the next lab exports, or they leak into the comparison.
    FleetSig ref;
    {
        config.hwgc.kernel = KernelMode::Dense;
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab dense(config, tenants);
        dense.run();
        ref = signatureOf(dense);
    }
    config.hwgc.kernel = KernelMode::Event;
    telemetry::StatsRegistry::global().clearRetired();
    driver::FleetLab event(config, tenants);
    event.run();
    expectSameSig(ref, signatureOf(event));

    // Pacing must actually bite: the shared bus saw throttled grants.
    EXPECT_GT(event.bus().groupThrottledGrants(), 0u);
}

TEST(FleetMatrix, SingleDeviceManyTenantsSerializes)
{
    // One device, four tenants: every collection queues; the FIFO
    // order is still deterministic across kernels.
    expectFleetMatrixAgrees(tinyConfig(1));
}

// ---------------------------------------------------------------------
// Service-loop behaviour.
// ---------------------------------------------------------------------

TEST(Fleet, EveryTenantFinishesItsGcs)
{
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab lab(config, tinyTenants(4));
    lab.run();
    EXPECT_TRUE(lab.done());
    EXPECT_EQ(lab.totalGcs(), 8u);
    for (const auto &s : lab.stats()) {
        EXPECT_EQ(s.gcs, 2u);
        EXPECT_GT(s.stwCycles, 0u);
    }
}

TEST(Fleet, MeasureFillsPercentilesAndWindows)
{
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab lab(config, tinyTenants(2));
    lab.run();
    for (const auto &s : lab.measure()) {
        EXPECT_EQ(s.pausesMs.size(), 2u);
        EXPECT_FALSE(s.latency.samples.empty());
        EXPECT_GE(s.p99Ms, s.p50Ms);
        EXPECT_GE(s.p999Ms, s.p99Ms);
        EXPECT_GE(s.maxMs, s.p999Ms);
    }
}

TEST(Fleet, QueueCyclesAppearWhenDevicesAreScarce)
{
    // 1 device + short periods: tenants must wait for the device.
    auto config = tinyConfig(1);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab lab(config, tinyTenants(4));
    lab.run();
    std::uint64_t queued = 0;
    for (const auto &s : lab.stats()) {
        queued += s.queueCycles;
    }
    EXPECT_GT(queued, 0u);
}

TEST(Fleet, ProfileOptionWarnsOncePerFleet)
{
    // Fleet devices attach no profiler; --profile must say so rather
    // than export nothing in silence.
    const telemetry::Options saved = telemetry::options();
    telemetry::options().profile = true;
    ::testing::internal::CaptureStderr();
    {
        driver::FleetLab lab(tinyConfig(2), tinyTenants(2));
    }
    const std::string err = ::testing::internal::GetCapturedStderr();
    telemetry::options() = saved;
    const std::string needle = "--profile is not supported in fleet mode";
    const std::size_t first = err.find(needle);
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(needle, first + 1), std::string::npos) << err;
}

TEST(FleetDeathTest, RejectsZeroDevicesAndZeroTenants)
{
    EXPECT_DEATH(driver::FleetLab(tinyConfig(0), tinyTenants(1)),
                 "at least one device");
    EXPECT_DEATH(driver::FleetLab(tinyConfig(1), {}),
                 "at least one tenant");
}

TEST(FleetDeathTest, CompressedRefsCapTheAddressSpace)
{
    auto config = tinyConfig(2);
    config.hwgc.compressRefs = true;
    EXPECT_DEATH(driver::FleetLab(config, tinyTenants(17)),
                 "32 GiB");
}

// ---------------------------------------------------------------------
// Scheduling policies.
// ---------------------------------------------------------------------

TEST(Scheduler, FifoPicksTheEarliestTrigger)
{
    const auto s = driver::makeScheduler(driver::GcPolicy::Fifo);
    const std::vector<driver::GcRequest> pending = {
        {0, 100, 200}, {1, 50, 900}, {2, 50, 800}};
    // Earliest trigger wins; ties break toward the lower tenant id.
    EXPECT_EQ(s->pick(pending, 1000), 1u);
    EXPECT_FALSE(s->concurrentMark());
}

TEST(Scheduler, DeadlinePicksTheTightestDeadline)
{
    const auto s = driver::makeScheduler(driver::GcPolicy::Deadline);
    const std::vector<driver::GcRequest> pending = {
        {0, 10, 900}, {1, 60, 200}, {2, 50, 200}};
    // Tightest deadline wins even though tenant 0 triggered first;
    // the deadline tie breaks toward the earlier trigger.
    EXPECT_EQ(s->pick(pending, 1000), 2u);
}

TEST(Scheduler, OverlapIsEdfWithConcurrentMark)
{
    const auto s =
        driver::makeScheduler(driver::GcPolicy::ConcurrentOverlap);
    EXPECT_TRUE(s->concurrentMark());
    EXPECT_STREQ(s->name(), "overlap");
    EXPECT_EQ(driver::parseGcPolicy("overlap"),
              driver::GcPolicy::ConcurrentOverlap);
}

TEST(Scheduler, ConcurrentMarkShrinksTheStwWindow)
{
    // Same dispatch order (EDF == overlap), but overlap's pause
    // windows start at the sweep handoff: strictly less STW.
    auto config = tinyConfig(2, driver::GcPolicy::Deadline);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab edf(config, tinyTenants(4));
    edf.run();
    config.policy = driver::GcPolicy::ConcurrentOverlap;
    driver::FleetLab overlap(config, tinyTenants(4));
    overlap.run();

    EXPECT_EQ(edf.now(), overlap.now());
    std::uint64_t edf_stw = 0, overlap_stw = 0;
    for (unsigned t = 0; t < 4; ++t) {
        edf_stw += edf.stats()[t].stwCycles;
        overlap_stw += overlap.stats()[t].stwCycles;
    }
    EXPECT_LT(overlap_stw, edf_stw);
}

// ---------------------------------------------------------------------
// Checkpoint/restore.
// ---------------------------------------------------------------------

FleetSig
measureSig(driver::FleetLab &lab)
{
    FleetSig sig = signatureOf(lab);
    for (const auto &s : lab.measure()) {
        // Fold the replayed percentiles in as raw bits.
        for (const double d : {s.p50Ms, s.p99Ms, s.p999Ms, s.maxMs}) {
            std::uint64_t bits;
            std::memcpy(&bits, &d, sizeof bits);
            sig.perTenant.push_back(bits);
        }
        sig.perTenant.push_back(s.sloViolations);
    }
    return sig;
}

TEST(FleetCheckpoint, MidServiceRestoreFinishesBitIdentically)
{
    const std::string path =
        ::testing::TempDir() + "fleet_ckpt_test.hwgc";
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;

    // Reference: an uninterrupted run. Each lab lives in its own
    // scope so its stats groups retire before the next lab exports.
    FleetSig ref;
    {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab whole(config, tinyTenants(4));
        whole.run();
        ref = measureSig(whole);
    }

    // Split run: stop mid-service (some device is mid-phase at
    // 600k with these periods), checkpoint, and finish.
    Tick ckpt_at = 0;
    {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab first(config, tinyTenants(4));
        first.runUntilCycle(600'000); // Rounds up to the quantum grid.
        ASSERT_FALSE(first.done());
        ckpt_at = first.now();
        ASSERT_TRUE(first.writeCheckpoint(path));
        first.run();
        expectSameSig(ref, measureSig(first));
    }

    // Restore into a fresh fleet and finish from the image.
    telemetry::StatsRegistry::global().clearRetired();
    driver::FleetLab restored(config, tinyTenants(4));
    restored.restoreCheckpoint(path);
    EXPECT_EQ(restored.now(), ckpt_at);
    restored.run();
    expectSameSig(ref, measureSig(restored));
    std::remove(path.c_str());
}

TEST(FleetCheckpoint, RestoreCrossesKernels)
{
    // Save under the event kernel, restore under dense: kernel mode
    // is a host knob, not simulated state.
    const std::string path =
        ::testing::TempDir() + "fleet_ckpt_kernel.hwgc";
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab event_ref(config, tinyTenants(2));
    event_ref.run();
    const Tick final_cycle = event_ref.now();

    driver::FleetLab saver(config, tinyTenants(2));
    saver.runUntilCycle(400'000);
    ASSERT_TRUE(saver.writeCheckpoint(path));

    config.hwgc.kernel = KernelMode::Dense;
    driver::FleetLab restored(config, tinyTenants(2));
    restored.restoreCheckpoint(path);
    restored.run();
    EXPECT_EQ(restored.now(), final_cycle);
    std::remove(path.c_str());
}

TEST(FleetCheckpointDeathTest, RejectsMismatchedConfiguration)
{
    const std::string path =
        ::testing::TempDir() + "fleet_ckpt_mismatch.hwgc";
    auto config = tinyConfig(2);
    config.hwgc.kernel = KernelMode::Event;
    driver::FleetLab saver(config, tinyTenants(2));
    saver.runUntilCycle(100'000);
    ASSERT_TRUE(saver.writeCheckpoint(path));

    auto other = tinyConfig(1); // Different device count.
    other.hwgc.kernel = KernelMode::Event;
    EXPECT_DEATH(
        {
            driver::FleetLab lab(other, tinyTenants(2));
            lab.restoreCheckpoint(path);
        },
        "different");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Crash-hook registry: one hook per session, LIFO, all of them run.
// ---------------------------------------------------------------------

void
printingHook(void *ctx)
{
    std::fprintf(stderr, "hook[%s];", static_cast<const char *>(ctx));
}

char dev0Ctx[] = "dev0";
char dev1Ctx[] = "dev1";
char liveCtx[] = "live";
char goneCtx[] = "gone";

TEST(CrashHookDeathTest, EveryHookRunsMostRecentFirst)
{
    // Two armed sessions; a panic must dump both, newest first (the
    // single-slot setCrashHook used to drop the first one). The hook
    // output is contiguous on stderr right after the panic line.
    EXPECT_DEATH(
        {
            addCrashHook(&printingHook, dev0Ctx);
            addCrashHook(&printingHook, dev1Ctx);
            panic("fleet boom");
        },
        "hook\\[dev1\\];hook\\[dev0\\];");
}

TEST(CrashHookDeathTest, RemovedHooksDoNotRun)
{
    // 'gone' was registered last; were removeCrashHook broken, LIFO
    // order would print hook[gone] between the panic line and
    // hook[live], and the newline-anchored match would fail.
    EXPECT_DEATH(
        {
            addCrashHook(&printingHook, liveCtx);
            const unsigned id = addCrashHook(&printingHook, goneCtx);
            removeCrashHook(id);
            panic("boom");
        },
        "boom\nhook\\[live\\];");
}

} // namespace
} // namespace hwgc
