/**
 * @file
 * The mark queue with memory spilling (paper Fig 12) and reference
 * compression (§V-C).
 *
 * The main on-chip queue Q holds references between the tracer
 * (producer) and marker (consumer). When Q fills, entries divert to
 * outQ, whose contents a small state machine writes to a physical
 * spill region in 64-byte granules; when Q drains, spilled entries
 * stream back through inQ. outQ->inQ copies bypass memory when the
 * spill region is empty, and spill *writes* have priority over reads
 * ("By prioritizing memory requests from outQ, we avoid deadlock").
 * When outQ passes a fill threshold, throttle() tells the tracer to
 * stop issuing requests.
 *
 * With compression enabled, references are packed to 32 bits before
 * entering the queue (heap VAs are < 2^35 and 8-byte aligned, so
 * ref >> 3 fits), doubling effective queue capacity and halving
 * spill traffic — the Fig 19 "Comp." series.
 */

#ifndef HWGC_CORE_MARK_QUEUE_H
#define HWGC_CORE_MARK_QUEUE_H

#include <deque>

#include "core/hwgc_config.h"
#include "mem/port.h"
#include "sim/clocked.h"
#include "sim/stats.h"

namespace hwgc::core
{

/** The spilling mark queue. */
class MarkQueue : public Clocked, public mem::MemResponder
{
  public:
    /**
     * @param port Memory port for spill traffic (physical addresses).
     * @param spill_base Base of the spill region (physical).
     * @param spill_bytes Capacity of the spill region.
     */
    MarkQueue(std::string name, const HwgcConfig &config,
              mem::MemPort *port, Addr spill_base,
              std::uint64_t spill_bytes);

    /** True if a reference can be accepted this cycle. */
    bool canEnqueue() const;

    /** Enqueues a reference (Q if space, else outQ). */
    void enqueue(Addr ref);

    /**
     * Registers the dequeuing component (the marker). Its cached
     * wakeup is poked whenever entries become dequeueable outside the
     * kernel's view: on enqueue() (called from the producers' ticks)
     * and when a spill read refills inQ (a response callback).
     */
    void setConsumer(const Clocked *consumer) { consumer_ = consumer; }

    /** True if a reference is available (Q, then inQ). */
    bool canDequeue() const;

    /** Dequeues the next reference. */
    Addr dequeue();

    /** Tracer back-pressure signal (outQ past its threshold). */
    bool throttle() const;

    /** True when no entry exists anywhere (incl. spill in flight). */
    bool empty() const;

    /** Total entries currently queued anywhere. */
    std::uint64_t depth() const;

    // MemResponder interface (spill read/write completions).
    void onResponse(const mem::MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override;
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    Tick classHorizon(Tick) const override { return maxTick; }
    void save(checkpoint::Serializer &ser) const override { ser(*this); }
    void restore(checkpoint::Deserializer &des) override { des(*this); }
    template <class Ar> void fields(Ar &ar);

    /** Drops all state between GC phases. */
    void reset();

    /**
     * Retargets the spill region (fleet time-multiplexing across
     * tenant heaps). Only legal while the queue is empty with no
     * spill traffic in flight — part of the §VII context switch.
     */
    void
    setSpillRegion(Addr spill_base, std::uint64_t spill_bytes)
    {
        panic_if(!empty() || writeInFlight_ || readInFlight_,
                 "mark queue retargeted while non-empty");
        spillBase_ = spill_base;
        spillCapacityEntries_ = spill_bytes / entryBytes();
    }

    void resetStats();

    /** @name Statistics @{ */
    std::uint64_t spillWriteRequests() const { return spillWrites_.value(); }
    std::uint64_t spillReadRequests() const { return spillReads_.value(); }
    std::uint64_t entriesSpilled() const { return entriesSpilled_.value(); }
    std::uint64_t maxDepth() const { return maxDepth_.value(); }
    std::uint64_t peakSpillBytes() const { return peakSpill_.value(); }
    /** @} */

    /** Registers the queue's statistics into @p g (telemetry). */
    void
    addStats(stats::Group &g) const
    {
        g.add(&spillWrites_);
        g.add(&spillReads_);
        g.add(&entriesSpilled_);
        g.add(&maxDepth_);
        g.add(&peakSpill_);
    }

  private:
    /** Bytes per packed reference in the queue and spill region. */
    unsigned entryBytes() const { return config_.compressRefs ? 4 : 8; }

    /** Entries per 64-byte spill granule. */
    unsigned granuleEntries() const { return lineBytes / entryBytes(); }

    Word pack(Addr ref) const;
    Addr unpack(Word packed) const;

    void noteDepth();

    HwgcConfig config_;
    mem::MemPort *port_;
    const Clocked *consumer_ = nullptr;
    Addr spillBase_;
    std::uint64_t spillCapacityEntries_;

    std::deque<Word> q_;    //!< Main on-chip queue (packed refs).
    std::deque<Word> outQ_; //!< Spill-out staging.
    std::deque<Word> inQ_;  //!< Spill-in staging.

    std::uint64_t spillHead_ = 0; //!< Read cursor (entries).
    std::uint64_t spillTail_ = 0; //!< Write cursor (entries).
    bool writeInFlight_ = false;
    bool readInFlight_ = false;

    stats::Scalar spillWrites_{"spillWrites"};
    stats::Scalar spillReads_{"spillReads"};
    stats::Scalar entriesSpilled_{"entriesSpilled"};
    stats::Scalar maxDepth_{"maxDepth"};
    stats::Scalar peakSpill_{"peakSpillBytes"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_MARK_QUEUE_H
