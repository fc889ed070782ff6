/**
 * @file
 * The marker pipeline stage (paper Fig 13).
 *
 * "Instead of using a cache with MSHRs, we manage our own requests,
 * as they are identical and unordered": the marker holds a small tag
 * table of in-flight mark operations (16 slots in the baseline). For
 * each reference dequeued from the mark queue it translates through
 * its private TLB (walks serialize through the shared blocking PTW),
 * issues an 8-byte read of the status word, and on the response
 * issues the write-back that sets the mark bit and frees the slot —
 * eliding the write-back if the object was already marked. Newly
 * marked objects with outbound references enter the tracer queue.
 *
 * An optional mark-bit cache of recently marked references filters
 * repeat marks of hot objects before they cost a memory round trip
 * (paper §V-C / Fig 21).
 */

#ifndef HWGC_CORE_MARKER_H
#define HWGC_CORE_MARKER_H

#include <optional>
#include <unordered_map>
#include <vector>

#include "core/hwgc_config.h"
#include "core/mark_queue.h"
#include "core/trace_queue.h"
#include "mem/ptw.h"
#include "mem/tlb.h"

namespace hwgc::core
{

/** Small fully-associative LRU set of recently marked references. */
class MarkBitCache
{
  public:
    explicit MarkBitCache(unsigned entries) : entries_(entries) {}

    bool enabled() const { return entries_ != 0; }

    /** True if @p ref was marked recently (filters the request). */
    bool
    contains(Addr ref)
    {
        for (auto &e : slots_) {
            if (e.first == ref) {
                e.second = ++useCounter_;
                return true;
            }
        }
        return false;
    }

    void
    insert(Addr ref)
    {
        if (!enabled()) {
            return;
        }
        if (slots_.size() < entries_) {
            slots_.emplace_back(ref, ++useCounter_);
            return;
        }
        auto *lru = &slots_.front();
        for (auto &e : slots_) {
            if (e.second < lru->second) {
                lru = &e;
            }
        }
        *lru = {ref, ++useCounter_};
    }

    void clear() { slots_.clear(); }

    /** Checkpoint field list (sim/checkpoint.h). */
    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar(useCounter_);
        ar.list(slots_);
        if constexpr (Ar::loading) {
            fatal_if(slots_.size() > entries_,
                     "checkpoint '%s': mark-bit cache holds %zu entries "
                     "but has capacity %u — configurations differ",
                     ar.origin().c_str(), slots_.size(), entries_);
        }
    }

  private:
    unsigned entries_;
    std::vector<std::pair<Addr, std::uint64_t>> slots_;
    std::uint64_t useCounter_ = 0;
};

/** The marker. */
class Marker : public Clocked, public mem::MemResponder
{
  public:
    Marker(std::string name, const HwgcConfig &config,
           MarkQueue &mark_queue, TraceQueue &trace_queue,
           mem::MemPort *port, mem::Ptw &ptw);

    /** True when no reference is held, in flight or half-finished. */
    bool idle() const;

    // MemResponder interface.
    void onResponse(const mem::MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override { return !idle(); }
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    Tick classHorizon(Tick) const override { return maxTick; }
    bool accruesWhileSkipped() const override;
    void fastForward(Tick from, Tick to) override;
    void save(checkpoint::Serializer &ser) const override { ser(*this); }
    void restore(checkpoint::Deserializer &des) override { des(*this); }
    template <class Ar> void fields(Ar &ar);

    /**
     * Re-creates the page-walk completion callback for walk-waiter
     * slot @p token (used by the PTW callback resolver on restore).
     */
    mem::Ptw::WalkCallback walkCallback(std::uint64_t token);

    /** In-flight mark reads (for the coupled-tracer ablation). */
    unsigned inFlight() const { return inFlightReads_; }

    /** Drops TLB/cache state between phases. */
    void reset();

    void resetStats();

    /**
     * Enables per-object access profiling (Fig 21a). Expensive;
     * off by default.
     */
    void setProfileTargets(bool on) { profileTargets_ = on; }

    /** @name Statistics @{ */
    std::uint64_t marksIssued() const { return marksIssued_.value(); }
    std::uint64_t alreadyMarked() const { return alreadyMarked_.value(); }
    std::uint64_t newlyMarked() const { return newlyMarked_.value(); }
    std::uint64_t writebacksElided() const
    {
        return writebacksElided_.value();
    }
    std::uint64_t markCacheHits() const { return markCacheHits_.value(); }
    std::uint64_t tlbMissStalls() const { return tlbMissStalls_.value(); }
    const mem::TlbArray &tlb() const { return tlb_; }
    const std::unordered_map<Addr, std::uint64_t> &
    targetProfile() const
    {
        return targetProfile_;
    }
    /** @} */

    /** Registers the marker's statistics into @p g (telemetry). */
    void
    addStats(stats::Group &g) const
    {
        g.add(&marksIssued_);
        g.add(&alreadyMarked_);
        g.add(&newlyMarked_);
        g.add(&writebacksElided_);
        g.add(&markCacheHits_);
        g.add(&tlbMissStalls_);
    }

  private:
    enum class SlotState : std::uint8_t
    {
        Free,
        AwaitRead,  //!< Status-word read in flight.
        Finish,     //!< Needs write-back and/or tracer push.
    };

    struct Slot
    {
        SlotState state = SlotState::Free;
        Addr ref = 0;   //!< Virtual address (for the tracer).
        Addr paddr = 0; //!< Translated status-word address.
        Word newHeader = 0;
        bool needWriteback = false;
        bool needTracePush = false;
        std::uint32_t numRefs = 0;
    };

    /** Tries to finish half-done slots (write-backs, tracer pushes). */
    void finishSlots(Tick now);

    /** Tries to start one new mark operation. */
    void issue(Tick now);

    int findFreeSlot() const;

    HwgcConfig config_;
    MarkQueue &markQueue_;
    TraceQueue &traceQueue_;
    mem::MemPort *port_;
    mem::Ptw &ptw_;
    unsigned ptwPort_ = 0; //!< Our requester port on the shared PTW.
    mem::TlbArray tlb_;
    MarkBitCache markBitCache_;

    std::vector<Slot> slots_;
    unsigned inFlightReads_ = 0;

    /** A dequeued reference parked while its page walk completes. */
    struct WalkWaiter
    {
        bool valid = false;
        bool walkRequested = false;
        bool ready = false;
        Addr ref = 0;
        Addr pa = 0;
    };

    /** Sends the status-word read for @p ref; false if port full. */
    bool issueRead(Addr ref, Addr pa, Tick now);

    std::vector<WalkWaiter> waiters_;
    unsigned waitersActive_ = 0;

    /** Recomputes the counts below from the slots and waiters. */
    void recount();

    /**
     * @name Slot and waiter counts
     * Kept at every state transition so that nextWakeup() and
     * cycleClass() need not scan the slots and waiters; derived
     * state, rebuilt by recount() on restore.
     * @{
     */
    unsigned freeSlots_ = 0;
    unsigned finishWriteback_ = 0; //!< Finish slots owing a write-back.
    unsigned finishPush_ = 0;      //!< Finish slots owing a trace push.
    unsigned readyWaiters_ = 0;    //!< Translated, waiting to issue.
    unsigned unlaunchedWaiters_ = 0; //!< Walk not yet requested.
    /** @} */

    bool profileTargets_ = false;
    std::unordered_map<Addr, std::uint64_t> targetProfile_;

    stats::Scalar marksIssued_{"marksIssued"};
    stats::Scalar alreadyMarked_{"alreadyMarked"};
    stats::Scalar newlyMarked_{"newlyMarked"};
    stats::Scalar writebacksElided_{"writebacksElided"};
    stats::Scalar markCacheHits_{"markCacheHits"};
    stats::Scalar tlbMissStalls_{"tlbMissStalls"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_MARKER_H
