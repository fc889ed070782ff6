/**
 * @file
 * Scenario: debugging a runtime/collector integration. Builds a heap,
 * prints its block/size-class census and a reachability summary, runs
 * the hardware GC, and dumps the unit's internal statistics — the
 * software-check workflow the paper used via its swap-in libhwgc
 * debug library (§V-E).
 *
 *   $ ./build/examples/heap_inspector [benchmark]
 *
 * With --profile the run also prints the cycle-accounting bottleneck
 * report (DESIGN.md §10): per component and per GC phase, where its
 * cycles went — busy, a specific stall cause, or idle.
 *
 *   $ ./build/examples/heap_inspector --profile [benchmark]
 *
 * Post-mortem mode: point it at a checkpoint file — typically the
 * "<path>.crash.<pid>" dump the device writes on a fatal error when
 * --checkpoint-out= is armed — and it prints the chunk directory, the
 * device configuration signature, the MMIO/phase state, and the saved
 * kernel clock instead of running a GC.
 *
 *   $ ./build/examples/heap_inspector --post-mortem run.ckpt.crash.1234
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hwgc_device.h"
#include "gc/verifier.h"
#include "sim/checkpoint.h"
#include "sim/stats.h"
#include "workload/dacapo.h"

namespace
{

/** Dumps the self-describing contents of a checkpoint file. */
int
postMortem(const std::string &path)
{
    using hwgc::checkpoint::Deserializer;

    std::printf("=== checkpoint post-mortem: %s ===\n", path.c_str());
    const auto chunks = Deserializer::listChunks(path);
    std::uint64_t total = 0;
    std::printf("chunk directory (%zu chunks):\n", chunks.size());
    for (const auto &chunk : chunks) {
        std::printf("  %-28s %10llu B\n", chunk.name.c_str(),
                    (unsigned long long)chunk.size);
        total += chunk.size;
    }
    std::printf("  %-28s %10llu B\n", "(payload total)",
                (unsigned long long)total);

    // The leading chunks have a fixed layout; decode them.
    Deserializer des = Deserializer::fromFile(path);
    std::string signature;
    des.chunk("config", signature);
    std::printf("\ndevice configuration: %s\n", signature.c_str());

    hwgc::core::MmioRegs regs;
    des.chunk("regs", regs);
    const char *status_name =
        regs.status == hwgc::core::MmioRegs::Marking    ? "Marking"
        : regs.status == hwgc::core::MmioRegs::Sweeping ? "Sweeping"
        : regs.status == hwgc::core::MmioRegs::Idle     ? "Idle"
                                                        : "?";
    std::printf("mmio: status=%s pageTable=%#llx hwgcSpace=%#llx "
                "roots=%llu blockTable=%#llx blocks=%llu "
                "spill=%#llx+%llu\n",
                status_name, (unsigned long long)regs.pageTableBase,
                (unsigned long long)regs.hwgcSpaceBase,
                (unsigned long long)regs.rootCount,
                (unsigned long long)regs.blockTableBase,
                (unsigned long long)regs.blockCount,
                (unsigned long long)regs.spillBase,
                (unsigned long long)regs.spillBytes);

    // The kernel chunk is decoded by hand: System's field list checks
    // every scheduled wakeup against the registered components, which
    // only a device of the saved configuration has.
    des.beginChunk("kernel");
    std::uint64_t now = 0, executed = 0, due_mask = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> wakeups;
    des(now, executed, due_mask);
    des.list(wakeups);
    des.endChunk();
    std::printf("kernel: cycle=%llu executed=%llu dueMask=%#llx "
                "scheduledWakeups=%zu\n",
                (unsigned long long)now, (unsigned long long)executed,
                (unsigned long long)due_mask, wakeups.size());
    std::printf("\nresume with --checkpoint-in=%s on an identically "
                "configured run.\n", path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    hwgc::telemetry::Session session(argc, argv);
    using namespace hwgc;
    if (argc > 2 && std::string(argv[1]) == "--post-mortem") {
        return postMortem(argv[2]);
    }
    const std::string bench = argc > 1 ? argv[1] : "luindex";
    const auto profile = workload::dacapoProfile(bench);

    mem::PhysMem phys_mem;
    runtime::Heap heap(phys_mem);
    workload::GraphBuilder builder(heap, profile.graph);
    builder.build();

    // Heap census.
    std::printf("=== heap census: %s ===\n", bench.c_str());
    std::printf("objects: %llu, roots: %zu, allocated: %llu KiB\n",
                (unsigned long long)heap.liveObjects(),
                heap.roots().size(),
                (unsigned long long)(heap.bytesAllocated() / 1024));
    std::map<std::uint32_t, unsigned> blocks_by_class;
    for (const auto &block : heap.blocks()) {
        ++blocks_by_class[block.cellBytes];
    }
    std::printf("blocks by cell size (%zu total):\n",
                heap.blocks().size());
    for (const auto &[cell_bytes, count] : blocks_by_class) {
        std::printf("  %5u B cells: %3u blocks\n", cell_bytes, count);
    }
    std::map<runtime::Space, std::uint64_t> by_space;
    for (const auto &obj : heap.objects()) {
        ++by_space[obj.space];
    }
    std::printf("objects by space: MarkSweep %llu, LOS %llu, "
                "immortal %llu\n",
                (unsigned long long)by_space[runtime::Space::MarkSweep],
                (unsigned long long)by_space[runtime::Space::Los],
                (unsigned long long)by_space[runtime::Space::Immortal]);

    const auto reachable = heap.computeReachable();
    std::printf("reachable (oracle): %zu of %llu (%.1f%%)\n",
                reachable.size(),
                (unsigned long long)heap.liveObjects(),
                100.0 * double(reachable.size()) /
                    double(heap.liveObjects()));

    // Run the unit and dump its statistics.
    core::HwgcConfig config;
    core::HwgcDevice device(phys_mem, heap.pageTable(), config);
    device.configure(heap);
    const auto mark = device.runMark();
    const auto sweep = device.runSweep();

    std::printf("\n=== GC unit run ===\n");
    std::printf("mark: %.3f ms, sweep: %.3f ms\n",
                double(mark.cycles) / 1e6, double(sweep.cycles) / 1e6);

    // Every component registered itself in the global registry when
    // the device was built; dump the whole hierarchy from there
    // (paths look like "system.hwgc0.marker").
    telemetry::StatsRegistry::global().dump(std::cout);

    // Bottleneck attribution (--profile / HWGC_PROFILE).
    if (device.profiler() != nullptr) {
        std::printf("\n");
        device.profiler()->report(stdout);
    }

    // The software check the paper's debug libhwgc performed.
    const auto marks_ok = gc::verifyMarks(heap);
    const auto swept_ok = gc::verifySweptHeap(heap);
    std::printf("\nsoftware check: marks %s, swept heap %s\n",
                marks_ok.ok ? "OK" : marks_ok.error.c_str(),
                swept_ok.ok ? "OK" : swept_ok.error.c_str());
    return marks_ok.ok && swept_ok.ok ? 0 : 1;
}
