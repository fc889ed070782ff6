/**
 * @file
 * Per-cycle state lockstep between the dense and event kernels: two
 * identically built devices, one per kernel, run through mark and
 * sweep, and every component's checkpoint image must match at every
 * compared cycle. An end-of-run comparison only shows that the two
 * kernels ended in the same place; this one names the first cycle and
 * the component where they part. Each config runs twice:
 *
 *  - stepped: both devices advance one cycle per run call, so the
 *    state is compared at every cycle, but every run entry marks each
 *    cached wakeup stale and the event kernel never jumps;
 *  - followed: the event device runs each phase in one call, with
 *    warm wakeup caches and fast-forward jumps, and an observer steps
 *    the dense device to every cycle it executes or jumps to. A
 *    missing poke, a stale cache or a wrong multi-cycle fastForward()
 *    shows here.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/hwgc_device.h"
#include "sim/checkpoint.h"
#include "workload/graph_gen.h"

namespace hwgc
{
namespace
{

using core::HwgcConfig;

/** A heap + device built for one graph under one kernel. */
struct Rig
{
    Rig(const workload::GraphParams &graph, HwgcConfig config,
        KernelMode kernel)
        : heap(mem, runtime::HeapParams{.layout = config.layout}),
          builder(heap, graph)
    {
        builder.build();
        heap.clearAllMarks();
        heap.publishRoots();
        config.kernel = kernel;
        device = std::make_unique<core::HwgcDevice>(
            mem, heap.pageTable(), config);
        device->configure(heap);
    }

    mem::PhysMem mem;
    runtime::Heap heap;
    workload::GraphBuilder builder;
    std::unique_ptr<core::HwgcDevice> device;
};

/** Every component's checkpoint image plus the trace queue's. */
checkpoint::Serializer
stateImage(core::HwgcDevice &device)
{
    checkpoint::Serializer ser;
    for (const Clocked *c : device.system().components()) {
        ser.chunk(c->name(), *c);
    }
    ser.chunk("traceQueue", device.traceQueue());
    return ser;
}

/** The first component whose state differs, or "" if none does. */
std::string
firstDifference(core::HwgcDevice &dense, core::HwgcDevice &event)
{
    if (stateImage(dense).image() == stateImage(event).image()) {
        return "";
    }
    const auto &a = dense.system().components();
    const auto &b = event.system().components();
    for (std::size_t i = 0; i < a.size(); ++i) {
        checkpoint::Serializer sa;
        checkpoint::Serializer sb;
        sa.chunk(a[i]->name(), *a[i]);
        sb.chunk(b[i]->name(), *b[i]);
        if (sa.image() != sb.image()) {
            return a[i]->name();
        }
    }
    return "traceQueue";
}

/**
 * Steps both devices one cycle at a time until the running phase
 * drains, comparing their state at every inter-cycle boundary.
 * Returns the phase's cycle count.
 */
Tick
lockstepPhase(Rig &dense, Rig &event)
{
    System &ds = dense.device->system();
    System &es = event.device->system();
    const Tick start = ds.now();
    for (;;) {
        const std::string diff =
            firstDifference(*dense.device, *event.device);
        EXPECT_EQ(diff, "") << "cycle " << ds.now() << ": component '"
                            << diff << "' differs between the dense "
                               "and event kernels";
        if (!diff.empty()) {
            return 0;
        }
        const Tick next = ds.now() + 1;
        const System::StopReason dr = ds.runUntilIdleStop(next);
        const System::StopReason er = es.runUntilIdleStop(next);
        EXPECT_EQ(dr, er) << "cycle " << next;
        EXPECT_EQ(ds.now(), es.now());
        if (dr != er || ds.now() != es.now()) {
            return 0;
        }
        if (dr == System::StopReason::Idle) {
            EXPECT_EQ(firstDifference(*dense.device, *event.device), "")
                << "after the phase drained at cycle " << ds.now();
            return ds.now() - start;
        }
    }
}

/**
 * Follows an event-kernel run with a dense device: at every cycle the
 * event kernel executes and at the end of every jump, the dense device
 * is stepped to the same cycle and the two states are compared.
 */
class DenseFollower : public KernelObserver
{
  public:
    DenseFollower(core::HwgcDevice &dense, core::HwgcDevice &event)
        : dense_(dense), event_(event)
    {
    }

    void cycleExecuted(Tick now, std::uint64_t) override { follow(now + 1); }
    void fastForwarded(Tick, Tick to) override { follow(to); }

    /** "" while the states matched at every compared cycle. */
    const std::string &failure() const { return failure_; }
    std::uint64_t compared() const { return compared_; }

  private:
    void
    follow(Tick at)
    {
        if (!failure_.empty()) {
            return;
        }
        dense_.system().runUntilIdleStop(at);
        ++compared_;
        if (dense_.system().now() != at) {
            failure_ = "cycle " + std::to_string(at) +
                ": the dense kernel stopped at cycle " +
                std::to_string(dense_.system().now());
            return;
        }
        const std::string diff = firstDifference(dense_, event_);
        if (!diff.empty()) {
            failure_ = "cycle " + std::to_string(at) + ": component '" +
                diff + "' differs between the dense and event kernels";
        }
    }

    core::HwgcDevice &dense_;
    core::HwgcDevice &event_;
    std::string failure_;
    std::uint64_t compared_ = 0;
};

/** The followed mode's counterpart of lockstepPhase(): the phase's
 *  cycle count, or 0 if the kernels parted. */
Tick
followPhase(Rig &dense, Rig &event)
{
    System &ds = dense.device->system();
    System &es = event.device->system();
    const Tick start = es.now();
    DenseFollower follower(*dense.device, *event.device);
    es.setObserver(&follower);
    const bool idle = es.runUntilIdle();
    es.setObserver(nullptr);
    EXPECT_TRUE(idle);
    EXPECT_EQ(follower.failure(), "");
    if (!idle || !follower.failure().empty()) {
        return 0;
    }
    // The event kernel skips cycles: it compared fewer than it ran.
    EXPECT_LT(follower.compared(), es.now() - start);
    const System::StopReason dr = ds.runUntilIdleStop(ds.now() + 1);
    EXPECT_EQ(dr, System::StopReason::Idle)
        << "the dense kernel is still busy after the event kernel "
           "drained at cycle "
        << es.now();
    EXPECT_EQ(ds.now(), es.now());
    return dr == System::StopReason::Idle && ds.now() == es.now()
        ? es.now() - start
        : 0;
}

void
expectLockstep(const HwgcConfig &config)
{
    workload::GraphParams graph;
    graph.liveObjects = 900;
    graph.garbageObjects = 450;
    graph.numRoots = 8;
    graph.arrayFraction = 0.15;
    graph.seed = 21;
    for (const bool followed : {false, true}) {
        SCOPED_TRACE(followed ? "followed" : "stepped");
        const auto phase = followed ? followPhase : lockstepPhase;
        Rig dense(graph, config, KernelMode::Dense);
        Rig event(graph, config, KernelMode::Event);

        dense.device->startMark();
        event.device->startMark();
        const Tick mark = phase(dense, event);
        ASSERT_GT(mark, 1000u);
        EXPECT_EQ(dense.device->finishMark().objectsMarked,
                  event.device->finishMark().objectsMarked);

        dense.device->startSweep();
        event.device->startSweep();
        const Tick sweep = phase(dense, event);
        ASSERT_GT(sweep, 100u);
        EXPECT_EQ(dense.device->finishSweep().cellsFreed,
                  event.device->finishSweep().cellsFreed);
    }
}

TEST(KernelLockstep, Baseline)
{
    expectLockstep(HwgcConfig{});
}

TEST(KernelLockstep, IdealMemory)
{
    HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    expectLockstep(config);
}

TEST(KernelLockstep, SpillPressure)
{
    HwgcConfig config;
    config.markQueueEntries = 32;
    expectLockstep(config);
}

TEST(KernelLockstep, SharedCache)
{
    HwgcConfig config;
    config.sharedCache = true;
    expectLockstep(config);
}

// One request per bus client queue: the tracer's reads wait on a full
// port most of the time, so its port-blocked sleep and the replay of
// its retries' TLB hits run on every path of the bidirectional layout.
TEST(KernelLockstep, PortPressure)
{
    HwgcConfig config;
    config.bus.clientQueueDepth = 1;
    expectLockstep(config);
}

// The conventional layout's TIB pointer, metadata and offset-word
// reads; an offset word probes two VAs per retry. The shallow bus
// queue makes each of them wait on a full port.
TEST(KernelLockstep, TibLayout)
{
    HwgcConfig config;
    config.layout = runtime::Layout::Tib;
    config.bus.clientQueueDepth = 1;
    expectLockstep(config);
}

} // namespace
} // namespace hwgc
