/**
 * @file
 * An atomic-mode (immediately-completing) cache for the CPU cost
 * model.
 *
 * The software collector is execution-driven: it performs functional
 * accesses directly against PhysMem and charges latency by calling
 * into this cache hierarchy (L1 -> L2 -> DRAM). Because the CPU is
 * the only agent during a stop-the-world pause, atomic charging is an
 * accurate model of an in-order core that blocks on load use. Fills
 * and dirty write-backs are charged against the memory device as
 * timing-only traffic so DRAM statistics (Fig 16's CPU bandwidth
 * trace) see exactly the line traffic a real cache would generate.
 */

#ifndef HWGC_MEM_ATOMIC_CACHE_H
#define HWGC_MEM_ATOMIC_CACHE_H

#include <string>

#include "mem/cache_tags.h"
#include "mem/mem_device.h"
#include "sim/stats.h"

namespace hwgc::mem
{

/** Atomic cache configuration. */
struct AtomicCacheParams
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned assoc = 4;
    Tick hitLatency = 2;
};

/** Write-back, write-allocate, atomic-mode cache level. */
class AtomicCache
{
  public:
    /**
     * @param next The next cache level, or nullptr if this level
     *        misses straight to @p memory.
     * @param memory The memory device charged for fills/write-backs
     *        when @p next is nullptr.
     */
    AtomicCache(std::string name, const AtomicCacheParams &params,
                AtomicCache *next, MemDevice *memory);

    /**
     * Charges one access of @p size bytes at @p addr.
     * @return The access latency in cycles.
     */
    Tick access(Addr addr, unsigned size, bool is_write, Tick now);

    /** Invalidates all lines (e.g. between benchmark iterations). */
    void flush();

    /** @name Checkpointing (tag state + counters) @{ */
    template <class Ar> void fields(Ar &ar);
    /** @} */

    void resetStats();

    /** @name Statistics @{ */
    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }
    std::uint64_t writebacks() const { return writebacks_.value(); }
    const std::string &name() const { return name_; }
    /** @} */

    /** Registers this cache's statistics into @p g (telemetry). */
    void
    addStats(stats::Group &g) const
    {
        g.add(&hits_);
        g.add(&misses_);
        g.add(&writebacks_);
    }

  private:
    /** Handles one line's worth of the access. */
    Tick accessLine(Addr line_addr, bool is_write, Tick now);

    /** Charges a 64-byte timing-only transfer at the next level down. */
    Tick chargeDownstream(Addr line_addr, bool is_write, Tick now);

    std::string name_;
    AtomicCacheParams params_;
    CacheTags tags_;
    AtomicCache *next_;
    MemDevice *memory_;

    stats::Scalar hits_{"hits"};
    stats::Scalar misses_{"misses"};
    stats::Scalar writebacks_{"writebacks"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_ATOMIC_CACHE_H
