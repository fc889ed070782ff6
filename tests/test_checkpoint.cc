/**
 * @file
 * Checkpoint/restore tests: a checkpoint taken at any inter-cycle
 * boundary — mid-mark via --checkpoint-at or after a completed phase —
 * must restore into an identically configured device and finish the
 * run bit-identically (same final cycle count, same full stats-JSON
 * export) under every kernel, and corrupt or mismatched checkpoint
 * files must be rejected with a fatal error, never silently
 * mis-restored.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/hwgc_device.h"
#include "driver/fleet.h"
#include "fuzz/farm.h"
#include "mem/ideal_mem.h"
#include "mem/interconnect.h"
#include "mem/timed_cache.h"
#include "sim/checkpoint.h"
#include "sim/telemetry.h"
#include "workload/graph_gen.h"
#include "test_util.h"

namespace hwgc
{
namespace
{

using core::HwgcConfig;

/** A heap + device built for one shape/seed (same rig as test_hwgc). */
struct Rig
{
    Rig(const workload::GraphParams &graph, const HwgcConfig &config,
        runtime::Layout layout = runtime::Layout::Bidirectional)
        : heap(mem, makeHeapParams(layout)), builder(heap, graph)
    {
        builder.build();
        heap.clearAllMarks();
        heap.publishRoots();
        device = std::make_unique<core::HwgcDevice>(
            mem, heap.pageTable(), config);
        device->configure(heap);
    }

    static runtime::HeapParams
    makeHeapParams(runtime::Layout layout)
    {
        runtime::HeapParams params;
        params.layout = layout;
        return params;
    }

    mem::PhysMem mem;
    runtime::Heap heap;
    workload::GraphBuilder builder;
    std::unique_ptr<core::HwgcDevice> device;
};

workload::GraphParams
testGraph(std::uint64_t seed, std::uint64_t live = 900)
{
    workload::GraphParams p;
    p.liveObjects = live;
    p.garbageObjects = live / 2;
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

std::string
exportStats()
{
    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(os, {});
    return test::normalizeInstanceIds(
        os.str(), {"system.hwgc", "system.cpu", "system.fleet"});
}

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

/** Everything a finished run must reproduce after a restore. */
struct FinalState
{
    Tick now = 0;
    Tick markCycles = 0;
    std::uint64_t marked = 0;
    std::uint64_t freed = 0;
    std::string statsJson;
};

/** Runs mark + sweep (resuming mid-phase if the device was restored
 *  there) and folds the run down to what must match. */
FinalState
finishRun(Rig &rig)
{
    const auto mark = rig.device->runMark();
    const auto sweep = rig.device->runSweep();
    FinalState f;
    f.now = rig.device->system().now();
    f.markCycles = mark.cycles;
    f.marked = mark.objectsMarked;
    f.freed = sweep.cellsFreed;
    f.statsJson = exportStats();
    return f;
}

HwgcConfig
withKernel(HwgcConfig config, KernelMode kernel)
{
    config.kernel = kernel;
    return config;
}

/**
 * One rig built, prepared (arm/restore), run to completion, and torn
 * down in its own registry scope: the rig must be destroyed before the
 * next run so its stats groups retire and the next clearRetired()
 * drops them from the export.
 */
template <typename Setup>
FinalState
scopedRun(const workload::GraphParams &graph, const HwgcConfig &config,
          runtime::Layout layout, Setup &&setup)
{
    telemetry::StatsRegistry::global().clearRetired();
    Rig rig(graph, config, layout);
    setup(rig);
    return finishRun(rig);
}

/**
 * The core round-trip: an uninterrupted reference run; then for each
 * kernel a writer run that checkpoints mid-mark (and must match the
 * reference — writing cannot perturb the simulation) and a reader run
 * under a *different* kernel that restores that file and must converge
 * to the same final cycle and statistics.
 */
void
expectMidMarkRoundTrip(const HwgcConfig &config,
                       runtime::Layout layout =
                           runtime::Layout::Bidirectional)
{
    const auto graph = testGraph(21);

    const FinalState ref = scopedRun(
        graph, withKernel(config, KernelMode::Dense), layout,
        [](Rig &) {});
    ASSERT_GT(ref.markCycles, 200u) << "graph too small for a mid-mark "
                                       "checkpoint";
    ASSERT_GT(ref.marked, 0u);
    const Tick at = ref.markCycles / 2;

    static constexpr KernelMode kernels[] = {KernelMode::Dense,
                                             KernelMode::Event};
    for (std::size_t i = 0; i < std::size(kernels); ++i) {
        const KernelMode save_kernel = kernels[i];
        // Rotating the restore kernel also proves cross-kernel resume:
        // kernel mode is a host knob, not architectural state.
        const KernelMode load_kernel = kernels[(i + 1) % std::size(kernels)];
        const char *save_name = kernelModeName(save_kernel);
        const char *load_name = kernelModeName(load_kernel);
        const std::string path =
            tmpPath(std::string("midmark-") + save_name + ".ckpt");

        {
            SCOPED_TRACE(std::string("save under ") + save_name);
            const FinalState run = scopedRun(
                graph, withKernel(config, save_kernel),
                layout, [&](Rig &writer) {
                    writer.device->armCheckpoint(path, at);
                });
            EXPECT_EQ(ref.now, run.now);
            EXPECT_EQ(ref.markCycles, run.markCycles);
            EXPECT_EQ(ref.marked, run.marked);
            EXPECT_EQ(ref.freed, run.freed);
            expectSameStatsJson(ref.statsJson, run.statsJson);
        }
        {
            SCOPED_TRACE(std::string("restore under ") + load_name +
                         " from " + save_name);
            const FinalState run = scopedRun(
                graph, withKernel(config, load_kernel),
                layout, [&](Rig &reader) {
                    reader.device->restoreCheckpoint(path);
                    EXPECT_EQ(reader.device->system().now(), at);
                    EXPECT_EQ(reader.device->regs().status,
                              core::MmioRegs::Marking);
                });
            EXPECT_EQ(ref.now, run.now);
            EXPECT_EQ(ref.freed, run.freed);
            expectSameStatsJson(ref.statsJson, run.statsJson);
        }
    }
}

TEST(Checkpoint, MidMarkRoundTripKernelMatrix)
{
    expectMidMarkRoundTrip(HwgcConfig{});
}

TEST(Checkpoint, MidMarkRoundTripSharedCache)
{
    HwgcConfig config;
    config.sharedCache = true;
    expectMidMarkRoundTrip(config);
}

TEST(Checkpoint, MidMarkRoundTripIdealMemory)
{
    HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    expectMidMarkRoundTrip(config);
}

TEST(Checkpoint, MidMarkRoundTripSpillPressure)
{
    HwgcConfig config;
    config.markQueueEntries = 32; // Force the spill path.
    expectMidMarkRoundTrip(config);
}

// ---------------------------------------------------------------------
// Post-phase checkpoints: --checkpoint-out without --checkpoint-at
// writes after every completed phase; restoring the post-sweep file
// must reproduce the *next* pause exactly (warmed caches and all).
// ---------------------------------------------------------------------

void
runSecondPause(Rig &rig)
{
    rig.heap.clearAllMarks();
    rig.heap.publishRoots();
    rig.device->resetPhaseState();
    rig.device->runMark();
    rig.device->runSweep();
}

TEST(Checkpoint, PhaseCheckpointResumesNextPause)
{
    const auto graph = testGraph(23);
    const std::string path = tmpPath("phase.ckpt");
    const HwgcConfig config;

    Tick pause1_now = 0;
    Tick original_now = 0;
    std::string original_stats;
    {
        telemetry::StatsRegistry::global().clearRetired();
        Rig original(graph, config);
        original.device->armCheckpoint(path);
        const auto pause1 = original.device->collect();
        ASSERT_GT(pause1.cellsFreed, 0u);
        // Freeze the post-pause-1 file before pause 2 overwrites it.
        original.device->armCheckpoint("");
        pause1_now = original.device->system().now();
        runSecondPause(original);
        original_now = original.device->system().now();
        original_stats = exportStats();
    }

    telemetry::StatsRegistry::global().clearRetired();
    Rig restored(graph, config);
    restored.device->restoreCheckpoint(path);
    EXPECT_EQ(restored.device->system().now(), pause1_now);
    EXPECT_EQ(restored.device->regs().status, core::MmioRegs::Idle);
    runSecondPause(restored);
    EXPECT_EQ(restored.device->system().now(), original_now);
    expectSameStatsJson(original_stats, exportStats());
}

// ---------------------------------------------------------------------
// Fleet checkpoints: the whole 2-device fleet — driver queues, shared
// bus + DRAM, every tenant heap — round-trips through one file and
// resumes bit-identically. tests/test_fleet.cc owns the deeper matrix
// (cross-kernel restore, measured-percentile equality); this keeps a
// compact fleet round-trip beside the single-device format tests.
// ---------------------------------------------------------------------

/** A finished fleet run folded down to everything that must match. */
struct FleetFinal
{
    Tick now = 0;
    std::uint64_t totalGcs = 0;
    std::vector<std::uint64_t> perTenant; //!< gcs/stw/queue triples.
    std::string statsJson;
};

FleetFinal
fleetFinal(driver::FleetLab &lab)
{
    FleetFinal f;
    f.now = lab.now();
    f.totalGcs = lab.totalGcs();
    for (const auto &stats : lab.stats()) {
        f.perTenant.push_back(stats.gcs);
        f.perTenant.push_back(stats.stwCycles);
        f.perTenant.push_back(stats.queueCycles);
    }
    f.statsJson = exportStats();
    return f;
}

void
expectSameFleetFinal(const FleetFinal &ref, const FleetFinal &run)
{
    EXPECT_EQ(ref.now, run.now);
    EXPECT_EQ(ref.totalGcs, run.totalGcs);
    EXPECT_EQ(ref.perTenant, run.perTenant);
    expectSameStatsJson(ref.statsJson, run.statsJson);
}

driver::FleetConfig
fleetTestConfig()
{
    driver::FleetConfig config;
    config.devices = 2;
    config.gcsPerTenant = 1;
    return config;
}

std::vector<driver::TenantParams>
fleetTestTenants()
{
    std::vector<driver::TenantParams> tenants(3);
    for (unsigned t = 0; t < tenants.size(); ++t) {
        auto &tenant = tenants[t];
        tenant.name = std::string("t").append(std::to_string(t));
        tenant.graph = testGraph(700 + t, 300);
        tenant.gcPeriodCycles = 150'000;
        tenant.seed = 40 + t;
    }
    return tenants;
}

TEST(Checkpoint, FleetMidServiceRoundTrip)
{
    const std::string path = tmpPath("fleet-roundtrip.ckpt");
    const auto config = fleetTestConfig();
    const auto tenants = fleetTestTenants();

    FleetFinal ref;
    {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab whole(config, tenants);
        whole.run();
        ref = fleetFinal(whole);
    }
    ASSERT_EQ(ref.totalGcs, 3u);

    Tick ckpt_at = 0;
    {
        // Writing the checkpoint must not perturb the writer's run.
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab writer(config, tenants);
        writer.runUntilCycle(200'000);
        ASSERT_FALSE(writer.done()) << "checkpoint after the service "
                                       "horizon tests nothing";
        ckpt_at = writer.now();
        ASSERT_TRUE(writer.writeCheckpoint(path));
        writer.run();
        expectSameFleetFinal(ref, fleetFinal(writer));
    }
    {
        telemetry::StatsRegistry::global().clearRetired();
        driver::FleetLab restored(config, tenants);
        restored.restoreCheckpoint(path);
        EXPECT_EQ(restored.now(), ckpt_at);
        restored.run();
        expectSameFleetFinal(ref, fleetFinal(restored));
    }
}

// ---------------------------------------------------------------------
// File format: the chunk directory is self-describing (the
// heap_inspector post-mortem view), and every corruption mode is a
// fatal error naming the file.
// ---------------------------------------------------------------------

TEST(Checkpoint, ListChunksShowsTopology)
{
    Rig rig(testGraph(3, 64), HwgcConfig{});
    const std::string path = tmpPath("list.ckpt");
    ASSERT_TRUE(rig.device->writeCheckpoint(path));

    const auto chunks = checkpoint::Deserializer::listChunks(path);
    std::vector<std::string> names;
    for (const auto &chunk : chunks) {
        names.push_back(chunk.name);
    }
    ASSERT_GT(names.size(), 6u);
    EXPECT_EQ(names.front(), "config");
    EXPECT_EQ(names[1], "regs");
    EXPECT_EQ(names[2], "kernel");
    EXPECT_EQ(names.back(), "physmem");
    EXPECT_NE(std::find(names.begin(), names.end(), "traceQueue"),
              names.end());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spew(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), std::streamsize(data.size()));
}

/** Writes a small valid checkpoint and returns its bytes. */
std::string
validImage(Rig &rig, const std::string &path)
{
    EXPECT_TRUE(rig.device->writeCheckpoint(path));
    return slurp(path);
}

TEST(CheckpointDeathTest, RejectsBadMagic)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    const std::string path = tmpPath("magic.ckpt");
    std::string data = validImage(rig, path);
    data[0] ^= 0x5A;
    spew(path, data);
    EXPECT_EXIT(rig.device->restoreCheckpoint(path),
                ::testing::ExitedWithCode(1), "bad magic");
}

TEST(CheckpointDeathTest, RejectsWrongFormatVersion)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    const std::string path = tmpPath("version.ckpt");
    const std::string valid = validImage(rig, path);
    // A future version, version 1 (the layout that still carried
    // per-port bus occupancy words) and version 2 (the layout whose
    // DRAM queue still carried issued entries).
    for (const std::uint32_t version : {checkpoint::formatVersion + 1,
                                        std::uint32_t(1), std::uint32_t(2)}) {
        SCOPED_TRACE("version " + std::to_string(version));
        std::string data = valid;
        for (int b = 0; b < 4; ++b) { // u32 version, little-endian.
            data[8 + b] = char((version >> (8 * b)) & 0xff);
        }
        spew(path, data);
        EXPECT_EXIT(rig.device->restoreCheckpoint(path),
                    ::testing::ExitedWithCode(1), "format version");
    }
}

TEST(CheckpointDeathTest, RejectsTruncatedFile)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    const std::string path = tmpPath("truncated.ckpt");
    const std::string data = validImage(rig, path);
    spew(path, data.substr(0, data.size() / 2));
    EXPECT_EXIT(rig.device->restoreCheckpoint(path),
                ::testing::ExitedWithCode(1), "truncated");
}

TEST(CheckpointDeathTest, RejectsTrailingGarbage)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    const std::string path = tmpPath("trailing.ckpt");
    const std::string data = validImage(rig, path);
    spew(path, data + std::string(16, '\x7f'));
    EXPECT_EXIT(rig.device->restoreCheckpoint(path),
                ::testing::ExitedWithCode(1), "trailing data");
}

TEST(CheckpointDeathTest, RejectsDifferentConfiguration)
{
    Rig writer(testGraph(5, 64), HwgcConfig{});
    const std::string path = tmpPath("config.ckpt");
    validImage(writer, path);

    HwgcConfig other;
    other.markQueueEntries = 64;
    Rig reader(testGraph(5, 64), other);
    EXPECT_EXIT(reader.device->restoreCheckpoint(path),
                ::testing::ExitedWithCode(1),
                "different device configuration");
}

TEST(CheckpointDeathTest, RejectsMissingFile)
{
    Rig rig(testGraph(5, 64), HwgcConfig{});
    EXPECT_EXIT(rig.device->restoreCheckpoint(tmpPath("nope.ckpt")),
                ::testing::ExitedWithCode(1), "cannot open");
}


/** A hand-built trace-queue chunk holding one entry. */
std::string
traceQueueImage(std::uint64_t num_refs)
{
    checkpoint::Serializer ser;
    // One queued entry (status-word VA, 32-bit reference count), then
    // the queue's maxDepth statistic.
    ser.chunk("traceQueue", 1, 0x4000'0000, num_refs, 1);
    return ser.image();
}

TEST(CheckpointDeathTest, RejectsValueTooWideForItsField)
{
    core::TraceQueue queue(4);
    {
        // The widest value that fits restores as written.
        checkpoint::Deserializer des(traceQueueImage(0xffff'ffff));
        des.chunk("traceQueue", queue);
        ASSERT_EQ(queue.size(), 1u);
        EXPECT_EQ(queue.pop().numRefs, 0xffff'ffffu);
    }
    checkpoint::Deserializer des(traceQueueImage(1ULL << 32));
    EXPECT_EXIT(des.chunk("traceQueue", queue),
                ::testing::ExitedWithCode(1),
                "chunk 'traceQueue' holds 0x100000000, which does not fit "
                "its 4-byte field");
}

/** A hand-built physmem chunk holding one page of @p len bytes. */
std::string
physMemImage(const mem::PhysMem &mem, std::uint64_t num, std::uint64_t len)
{
    const std::vector<char> page(len);
    checkpoint::Serializer ser;
    ser.beginChunk("physmem");
    ser(mem.size(), 1, num, len);
    ser.bytes(page.data(), page.size());
    ser.endChunk();
    return ser.image();
}

TEST(CheckpointDeathTest, RejectsPageOutsidePhysicalMemory)
{
    mem::PhysMem mem(256 * pageBytes);
    {
        // The last page fits.
        checkpoint::Deserializer des(physMemImage(mem, 255, pageBytes));
        des.chunk("physmem", mem);
        EXPECT_EQ(mem.pagesTouched(), 1u);
    }
    for (const auto &[num, len] :
         {std::pair<std::uint64_t, std::uint64_t>(256, pageBytes),
          std::pair<std::uint64_t, std::uint64_t>(0, 16)}) {
        checkpoint::Deserializer des(physMemImage(mem, num, len));
        EXPECT_EXIT(des.chunk("physmem", mem), ::testing::ExitedWithCode(1),
                    "does not fit this physical memory");
    }
}

struct NullResponder : mem::MemResponder
{
    void onResponse(const mem::MemResponse &, Tick) override {}
};

/**
 * A hand-built bus chunk for two clients, holding one message from
 * @p client: a request queued at port 0, or a pending response.
 */
std::string
busImage(unsigned client, bool response)
{
    mem::MemResponse msg;
    msg.req.client = client;
    checkpoint::Serializer ser;
    ser.beginChunk("bus");
    ser(2);                // Client ports.
    ser(response ? 0 : 1); // Port 0's queued requests.
    if (!response) {
        ser(msg.req, Tick(0));
    }
    ser(0);                // Port 1's queued requests.
    ser(response ? 1 : 0); // Pending responses.
    if (response) {
        ser(msg, Tick(0));
    }
    ser(0, 0.0);           // Round-robin pointer, throttle tokens.
    ser(0);                // Budget groups.
    ser(mem::Interconnect::noGroup, mem::Interconnect::noGroup);
    ser(std::array<std::uint64_t, 8>{}); // Per-port and bus counters.
    ser.endChunk();
    return ser.image();
}

TEST(CheckpointDeathTest, RejectsBusMessageFromUnknownClient)
{
    mem::PhysMem mem;
    mem::IdealMem ideal("ideal", mem::IdealMemParams{}, mem);
    mem::Interconnect bus("bus", mem::InterconnectParams{}, ideal);
    NullResponder responder;
    bus.registerClient(&responder, "a");
    bus.registerClient(&responder, "b");
    for (const bool response : {false, true}) {
        SCOPED_TRACE(response ? "pending response" : "queued request");
        {
            // The last port is a valid client.
            checkpoint::Deserializer des(busImage(1, response));
            des.chunk("bus", bus);
        }
        checkpoint::Deserializer des(busImage(2, response));
        EXPECT_EXIT(des.chunk("bus", bus), ::testing::ExitedWithCode(1),
                    "message from client 2 of 2");
    }
}

/**
 * A hand-built chunk for a cache with two upstream ports, holding one
 * message from @p port: a target parked on MSHR 0, or a due response.
 */
std::string
cacheImage(const mem::TimedCacheParams &params, unsigned port,
           bool response)
{
    mem::MemResponse msg;
    checkpoint::Serializer ser;
    ser.beginChunk("cache");
    ser(mem::CacheTags(params.sizeBytes, params.assoc));
    ser(2, 0, 0, 0, 0); // Two ports: empty queue, no requests each.
    ser(params.mshrs);
    for (unsigned m = 0; m < params.mshrs; ++m) {
        const bool target = m == 0 && !response;
        ser(target, 0, target ? 1 : 0); // Valid, line, targets.
        if (target) {
            ser(port, msg.req);
        }
    }
    ser(0);                // Write-back queue.
    ser(response ? 1 : 0); // Due responses.
    if (response) {
        ser(msg, port, Tick(0));
    }
    ser(0, 0, 0, 0, 0); // Round-robin pointer, write-backs, counters.
    ser.endChunk();
    return ser.image();
}

TEST(CheckpointDeathTest, RejectsCacheMessageForUnknownPort)
{
    mem::PhysMem mem;
    mem::IdealMem ideal("ideal", mem::IdealMemParams{}, mem);
    mem::Interconnect bus("bus", mem::InterconnectParams{}, ideal);
    const mem::TimedCacheParams params;
    mem::TimedCache cache("cache", params, mem, bus);
    NullResponder responder;
    cache.addPort(&responder, "a");
    cache.addPort(&responder, "b");
    for (const bool response : {false, true}) {
        SCOPED_TRACE(response ? "due response" : "MSHR target");
        {
            // The last port is a valid one.
            checkpoint::Deserializer des(cacheImage(params, 1, response));
            des.chunk("cache", cache);
        }
        checkpoint::Deserializer des(cacheImage(params, 2, response));
        EXPECT_EXIT(des.chunk("cache", cache), ::testing::ExitedWithCode(1),
                    "request from port 2 of 2");
    }
}

/** The little-endian @p bytes-byte word at @p pos of @p image. */
std::uint64_t
getWord(const std::string &image, std::size_t pos, unsigned bytes = 8)
{
    std::uint64_t v = 0;
    for (unsigned b = 0; b < bytes; ++b) {
        v |= std::uint64_t(std::uint8_t(image[pos + b])) << (8 * b);
    }
    return v;
}

/** Payload [begin, end) of chunk @p name in checkpoint @p image. */
std::pair<std::size_t, std::size_t>
chunkSpan(const std::string &image, const std::string &name)
{
    std::size_t pos = 12; // Magic and format version.
    while (pos < image.size()) {
        const std::size_t name_len = getWord(image, pos, 4);
        const std::string chunk = image.substr(pos + 4, name_len);
        pos += 4 + name_len;
        const std::size_t len = getWord(image, pos);
        pos += 8;
        if (chunk == name) {
            return {pos, pos + len};
        }
        pos += len;
    }
    ADD_FAILURE() << "no chunk '" << name << "'";
    return {0, 0};
}

void
setWord(std::string &image, std::size_t pos, std::uint64_t v)
{
    for (unsigned b = 0; b < 8; ++b) {
        image[pos + b] = char((v >> (8 * b)) & 0xff);
    }
}

TEST(CheckpointDeathTest, RejectsFleetRequestForUnknownTenant)
{
    // One device for three tenants, so requests queue behind it.
    driver::FleetConfig config = fleetTestConfig();
    config.devices = 1;
    const auto tenants = fleetTestTenants();
    std::string image;
    {
        driver::FleetLab lab(config, tenants);
        lab.runUntilCycle(160'000);
        checkpoint::Serializer ser;
        lab.saveCheckpoint(ser);
        image = ser.image();
    }
    // The driver chunk opens with the pending-request list (length,
    // then tenant, trigger and deadline per request) and closes with
    // the last device's tenant, phase, three cycle stamps and
    // registers.
    const auto [begin, end] = chunkSpan(image, "driver");
    ASSERT_GE(getWord(image, begin), 1u) << "no request is pending";
    checkpoint::Serializer regs;
    regs.chunk("", core::MmioRegs{});
    const std::size_t regs_bytes = regs.image().size() - 24;
    const std::size_t pending_tenant = begin + 8;
    const std::size_t device_tenant = end - regs_bytes - 5 * 8;
    ASSERT_LT(getWord(image, device_tenant), tenants.size())
        << "the device is not serving a tenant";

    const auto restore = [&](std::size_t pos, std::uint64_t tenant) {
        std::string data = image;
        setWord(data, pos, tenant);
        driver::FleetLab lab(config, tenants);
        checkpoint::Deserializer des(data);
        lab.restoreCheckpoint(des);
    };
    const std::uint64_t no_tenant = ~0u;
    // The last tenant, and no tenant at all for a device, are valid.
    restore(pending_tenant, tenants.size() - 1);
    restore(device_tenant, tenants.size() - 1);
    restore(device_tenant, no_tenant);
    EXPECT_EXIT(restore(pending_tenant, tenants.size()),
                ::testing::ExitedWithCode(1), "names tenant 3 of 3");
    EXPECT_EXIT(restore(pending_tenant, no_tenant),
                ::testing::ExitedWithCode(1), "names tenant 4294967295 of 3");
    EXPECT_EXIT(restore(device_tenant, tenants.size()),
                ::testing::ExitedWithCode(1), "names tenant 3 of 3");
}

// ---------------------------------------------------------------------
// Format freeze: 64-bit FNV-1a digests of checkpoint images, recorded
// when checkpoint format version 3 was introduced. Any change to what a
// component writes, or in which order, changes a digest. The event
// kernel's images also hold its executed-cycle count, so they were
// re-recorded when the kernel came to skip more cycles (that one word
// changed); the dense kernel's images pin the layout alone.
// ---------------------------------------------------------------------

std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const char c : data) {
        h ^= std::uint8_t(c);
        h *= 1099511628211ULL;
    }
    return h;
}

/** The image a device writes when armed at @p at mid-mark. */
std::string
midMarkImage(const HwgcConfig &config, Tick at)
{
    const std::string path = tmpPath("freeze.ckpt");
    Rig rig(testGraph(21), config);
    rig.device->armCheckpoint(path, at);
    const auto mark = rig.device->runMark();
    EXPECT_GT(mark.cycles, at) << "checkpoint is not mid-mark";
    return slurp(path);
}

std::string
fleetMidServiceImage(KernelMode kernel)
{
    const std::string path = tmpPath("freeze-fleet.ckpt");
    driver::FleetConfig config = fleetTestConfig();
    config.hwgc.kernel = kernel;
    driver::FleetLab lab(config, fleetTestTenants());
    lab.runUntilCycle(200'000);
    EXPECT_FALSE(lab.done());
    EXPECT_TRUE(lab.writeCheckpoint(path));
    return slurp(path);
}

std::string
farmSnapshotImage()
{
    const std::string path = tmpPath("freeze.farm");
    workload::GraphParams params = testGraph(77, 400);
    mem::PhysMem mem;
    runtime::Heap heap(mem);
    workload::GraphBuilder builder(heap, params);
    builder.build();
    builder.mutate(0.25);
    fuzz::FarmMeta meta;
    meta.seed = params.seed;
    meta.warmPauses = 1;
    meta.liveObjects = heap.liveObjects();
    meta.bytesAllocated = heap.bytesAllocated();
    fuzz::saveFarmSnapshot(path, meta, params, heap, builder, mem);
    return slurp(path);
}

void
expectFrozen(const std::string &what, const std::string &image,
             std::uint64_t frozen)
{
    EXPECT_EQ(fnv1a(image), frozen)
        << what << ": the checkpoint layout changed (" << image.size()
        << "-byte image). Bump checkpoint::formatVersion and record "
           "the digests of the new layout here.";
}

TEST(CheckpointFormat, ImagesMatchFrozenDigests)
{
    HwgcConfig spill;
    spill.markQueueEntries = 32;
    expectFrozen("mid-mark device, default config",
                 midMarkImage(HwgcConfig{}, 2000), 0xffb205ec2ee69d4dULL);
    expectFrozen("mid-mark device, markQueueEntries=32",
                 midMarkImage(spill, 2000), 0xcd14e4e0163316c3ULL);
    expectFrozen("mid-service fleet", fleetMidServiceImage(KernelMode::Event),
                 0x6e48bdcefeadf8b4ULL);
    expectFrozen("farm snapshot", farmSnapshotImage(),
                 0xca110b9c9f945bceULL);
}

TEST(CheckpointFormat, DenseImagesMatchFrozenDigests)
{
    HwgcConfig spill = withKernel(HwgcConfig{}, KernelMode::Dense);
    spill.markQueueEntries = 32;
    expectFrozen("mid-mark device, default config, dense kernel",
                 midMarkImage(withKernel(HwgcConfig{}, KernelMode::Dense),
                              2000),
                 0x1494897dde0a7c9bULL);
    expectFrozen("mid-mark device, markQueueEntries=32, dense kernel",
                 midMarkImage(spill, 2000), 0xdd351ac1b9b82f71ULL);
    expectFrozen("mid-service fleet, dense kernel",
                 fleetMidServiceImage(KernelMode::Dense),
                 0x860dbb49e29a8df4ULL);
}

} // namespace
} // namespace hwgc
