/**
 * @file
 * Configuration of the GC accelerator (paper §IV/§V design space).
 *
 * Defaults are the paper's baseline design point (§VI-A): a 1,024
 * entry mark queue, 16 marker request slots, 2 block sweepers,
 * 32-entry unit TLBs with a 128-entry shared L2 TLB, partitioned
 * caches, no reference compression and no mark-bit cache (those are
 * the Fig 19/Fig 21 design-space knobs).
 */

#ifndef HWGC_CORE_HWGC_CONFIG_H
#define HWGC_CORE_HWGC_CONFIG_H

#include <string>

#include "mem/dram.h"
#include "mem/ideal_mem.h"
#include "mem/ptw.h"
#include "mem/timed_cache.h"
#include "runtime/object_model.h"
#include "sim/clocked.h"
#include "sim/types.h"

namespace hwgc::core
{

/** Memory-system model selection (Fig 15 vs Fig 17). */
enum class MemModel
{
    Ddr3,  //!< Table I DDR3-2000 timing model.
    Ideal, //!< 1-cycle / 8 GB/s latency-bandwidth pipe.
};

/** Full accelerator + memory-side configuration. */
struct HwgcConfig
{
    /** @name Traversal unit @{ */
    unsigned markQueueEntries = 1024; //!< Main on-chip queue (refs).
    unsigned spillQueueEntries = 64;  //!< inQ and outQ each (Fig 12).
    unsigned spillThrottle = 48;      //!< outQ level that halts tracer.
    bool compressRefs = false;        //!< 32-bit packing (§V-C).
    unsigned markerSlots = 16;        //!< Marker request slots.

    /**
     * References parked while their (serialized, blocking-PTW) walk
     * completes; the marker keeps issuing TLB-hitting references
     * under up to this many outstanding misses. 0 fully serializes
     * the marker behind every TLB miss.
     */
    unsigned markerWalkWaiters = 4;
    unsigned markBitCacheEntries = 0; //!< Fig 21 filter (0 = off).
    unsigned tracerQueueEntries = 128;
    unsigned tracerPendingRefs = 64;  //!< Response buffer backpressure.
    unsigned unitTlbEntries = 32;
    runtime::Layout layout = runtime::Layout::Bidirectional;

    /**
     * Couples the tracer to the marker (ablation of §IV-A idea II):
     * the tracer only works while the marker has no requests in
     * flight, modeling a single sequential mark-then-copy engine.
     */
    bool decoupledTracer = true;

    /**
     * Tags tracer requests (ablation of §IV-A idea III): limits the
     * tracer to this many in-flight requests as if it kept per-request
     * state like the marker. 0 = untagged/unlimited (the paper design).
     */
    unsigned tracerTagSlots = 0;
    /** @} */

    /** @name Reclamation unit @{ */
    unsigned numSweepers = 2;
    unsigned sweeperTlbEntries = 8;
    /** @} */

    /** @name Memory side @{ */
    bool sharedCache = false; //!< Fig 18a single 16 KiB cache design.
    mem::TimedCacheParams sharedCacheParams{16 * 1024, 4, 2, 4, 4, 8};
    mem::TimedCacheParams ptwCacheParams{8 * 1024, 4, 2, 1, 4, 8};
    mem::PtwParams ptw;
    MemModel memModel = MemModel::Ddr3;
    mem::DramParams dram;
    mem::IdealMemParams ideal;
    mem::InterconnectParams bus;
    /** @} */

    /**
     * Simulation kernel driving the device's System. Event mode skips
     * idle cycles and is cycle-exact with Dense (test_event_kernel
     * asserts this); Dense remains as the reference for A/B runs.
     */
    KernelMode kernel = KernelMode::Event;

    /**
     * SoC shape requested from drivers that can instantiate a device
     * array (the fuzz differ, fuzz_driver --config=devices=N): values
     * above 1 build that many fleet-mode devices behind one shared
     * interconnect + memory and spread the work across them. A
     * directly constructed HwgcDevice models exactly one instance and
     * ignores this; FleetLab sizes its array from FleetConfig::devices
     * instead.
     */
    unsigned devices = 1;
};

} // namespace hwgc::core

#endif // HWGC_CORE_HWGC_CONFIG_H
