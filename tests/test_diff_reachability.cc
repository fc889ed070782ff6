/**
 * @file
 * Differential reachability property test: across ~100 randomly
 * generated heap graphs, the accelerator's mark set — computed under
 * the default event kernel — must exactly equal the software collector's
 * reachability closure. The graph shape (fan-out, sharing, cycles,
 * arrays, root count) is itself derived from the seed so the sweep
 * covers chains, wide stars, dense DAGs and cyclic tangles alike.
 *
 * Every assertion prints the seed, so a failure reproduces with a
 * one-line unit test.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/hwgc_device.h"
#include "cpu/core_model.h"
#include "gc/sw_collector.h"
#include "mem/ideal_mem.h"
#include "runtime/object_model.h"
#include "workload/graph_gen.h"

namespace hwgc
{
namespace
{

using runtime::ObjRef;
using runtime::StatusWord;

/** Deterministic per-seed graph shape: splitmix64-style mixing so
 *  nearby seeds still produce very different workload shapes. */
workload::GraphParams
shapeFor(std::uint64_t seed)
{
    auto mix = [state = seed + 0x9e3779b97f4a7c15ull]() mutable {
        state += 0x9e3779b97f4a7c15ull;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    workload::GraphParams p;
    p.seed = seed;
    p.liveObjects = 200 + mix() % 600;
    p.garbageObjects = mix() % 400;
    p.numRoots = 1 + mix() % 48;
    p.avgRefs = 0.5 + static_cast<double>(mix() % 600) / 100.0;
    p.maxRefs = 4 + mix() % 20;
    p.minRefs = mix() % 2;
    p.arrayFraction = static_cast<double>(mix() % 40) / 100.0;
    p.shareProb = static_cast<double>(mix() % 70) / 100.0;
    p.cycleProb = static_cast<double>(mix() % 30) / 100.0;
    p.largeFraction = static_cast<double>(mix() % 5) / 100.0;
    return p;
}

/** One heap built from the shape, ready to mark. */
struct Rig
{
    explicit Rig(const workload::GraphParams &graph)
        : heap(mem, runtime::HeapParams{}), builder(heap, graph)
    {
        builder.build();
        heap.clearAllMarks();
        heap.publishRoots();
    }

    std::set<ObjRef>
    markedSet()
    {
        std::set<ObjRef> marked;
        for (const auto &obj : heap.objects()) {
            if (StatusWord::marked(heap.read(obj.ref))) {
                marked.insert(obj.ref);
            }
        }
        return marked;
    }

    mem::PhysMem mem;
    runtime::Heap heap;
    workload::GraphBuilder builder;
};

void
checkSeed(std::uint64_t seed)
{
    const auto graph = shapeFor(seed);
    const std::string tag = "seed=" + std::to_string(seed);

    // Hardware side: mark under the default (event) kernel.
    Rig hw(graph);
    core::HwgcConfig config;
    config.memModel = core::MemModel::Ideal;
    core::HwgcDevice device(hw.mem, hw.heap.pageTable(), config);
    device.configure(hw.heap);
    const auto hw_result = device.runMark();
    const auto hw_marked = hw.markedSet();

    // Software side: the reference collector on an identical heap.
    Rig sw(graph);
    cpu::CoreParams core_params;
    mem::IdealMem sw_mem("cpu.idealmem", {}, sw.mem);
    cpu::CoreModel core("rocket", core_params, sw.mem,
                        sw.heap.pageTable(), sw_mem);
    gc::SwCollector collector(sw.heap, core);
    collector.mark();
    const auto sw_marked = sw.markedSet();

    // Third witness: the heap's own graph-walk closure.
    const auto closure = hw.heap.computeReachable();

    // newlyMarked can overcount: two in-flight marker slots holding
    // the same ref may both read the pre-mark header (no mark-bit
    // cache in this config), so it upper-bounds the distinct set.
    EXPECT_GE(hw_result.objectsMarked, hw_marked.size()) << tag;
    EXPECT_EQ(hw_marked.size(), closure.size()) << tag;
    for (const auto ref : hw_marked) {
        EXPECT_TRUE(closure.count(ref) != 0)
            << tag << ": hw marked unreachable 0x" << std::hex << ref;
    }
    ASSERT_EQ(hw_marked, sw_marked) << tag;
}

TEST(DiffReachability, HundredRandomGraphs)
{
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        checkSeed(seed);
        if (HasFatalFailure()) {
            return;
        }
    }
}

} // namespace
} // namespace hwgc
