/**
 * @file
 * Per-cycle state lockstep between the dense and event kernels: two
 * identically built devices, one per kernel, step one cycle at a time
 * through mark and sweep, and every component's checkpoint image must
 * match at every cycle. An end-of-run comparison only shows that the
 * two kernels ended in the same place; this one names the first cycle
 * and the component where they part.
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
        : heap(mem), builder(heap, graph)
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

void
expectLockstep(const HwgcConfig &config)
{
    workload::GraphParams graph;
    graph.liveObjects = 900;
    graph.garbageObjects = 450;
    graph.numRoots = 8;
    graph.arrayFraction = 0.15;
    graph.seed = 21;
    Rig dense(graph, config, KernelMode::Dense);
    Rig event(graph, config, KernelMode::Event);

    dense.device->startMark();
    event.device->startMark();
    const Tick mark = lockstepPhase(dense, event);
    ASSERT_GT(mark, 1000u);
    EXPECT_EQ(dense.device->finishMark().objectsMarked,
              event.device->finishMark().objectsMarked);

    dense.device->startSweep();
    event.device->startSweep();
    const Tick sweep = lockstepPhase(dense, event);
    ASSERT_GT(sweep, 100u);
    EXPECT_EQ(dense.device->finishSweep().cellsFreed,
              event.device->finishSweep().cellsFreed);
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

} // namespace
} // namespace hwgc
