/**
 * @file
 * The tracer pipeline stage (paper Fig 14, §IV-A idea III).
 *
 * The tracer walks each newly marked object's reference section and
 * copies the references into the mark queue. Because "the order in
 * which references are added to the mark queue does not affect
 * correctness", it keeps no per-request state: it issues untagged
 * reads as fast as the memory system accepts them and enqueues
 * response words in arrival order. The request generator issues the
 * largest naturally aligned transfers (8/16/32/64 B) that tile the
 * reference section — e.g. 15 references at 0x1a18 become transfers
 * of 8, 32, 64, 16 bytes — and re-translates at page boundaries.
 *
 * Two ablation knobs model the paper's design claims: a coupled mode
 * (tracer only runs while the marker is drained — removing idea II)
 * and a tagged mode (bounded in-flight requests — removing idea III).
 * The conventional-layout (TIB) mode models Fig 6a: a dependent
 * tibPtr load, a TIB metadata load, per-8-slot offset-word loads, and
 * scattered single-word reference reads.
 */

#ifndef HWGC_CORE_TRACER_H
#define HWGC_CORE_TRACER_H

#include <array>
#include <deque>
#include <optional>

#include "core/hwgc_config.h"
#include "core/mark_queue.h"
#include "core/marker.h"
#include "core/trace_queue.h"

namespace hwgc::core
{

/** The tracer. */
class Tracer : public Clocked, public mem::MemResponder
{
  public:
    Tracer(std::string name, const HwgcConfig &config,
           TraceQueue &trace_queue, MarkQueue &mark_queue,
           mem::MemPort *port, mem::Ptw &ptw);

    /** Wires the marker for the coupled-pipeline ablation. */
    void setMarker(const Marker *marker) { marker_ = marker; }

    /** True when no object, request or buffered reference remains. */
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

    /** Re-creates the page-walk completion callback (restore path). */
    mem::Ptw::WalkCallback walkCallback();

    void reset();
    void resetStats();

    /** @name Statistics @{ */
    std::uint64_t requestsIssued() const { return requests_.value(); }
    std::uint64_t bytesRequested() const { return bytesRequested_.value(); }
    std::uint64_t refsEnqueued() const { return refsEnqueued_.value(); }
    std::uint64_t nullRefsDropped() const { return nullsDropped_.value(); }
    std::uint64_t objectsTraced() const { return objects_.value(); }
    std::uint64_t pageCrossings() const { return pageCrossings_.value(); }
    std::uint64_t throttledCycles() const { return throttled_.value(); }
    std::uint64_t tibExtraReads() const { return tibReads_.value(); }
    const mem::TlbArray &tlb() const { return tlb_; }
    /** @} */

    /** Registers the tracer's statistics into @p g (telemetry). */
    void
    addStats(stats::Group &g) const
    {
        g.add(&requests_);
        g.add(&bytesRequested_);
        g.add(&refsEnqueued_);
        g.add(&nullsDropped_);
        g.add(&objects_);
        g.add(&pageCrossings_);
        g.add(&throttled_);
        g.add(&tibReads_);
    }

    /**
     * Computes the next transfer size for a cursor at @p addr with
     * @p remaining bytes left: the largest of {64,32,16,8} that is
     * naturally aligned at @p addr and fits. Exposed for unit tests
     * (the paper's 15-references example).
     */
    static unsigned nextTransferSize(Addr addr, std::uint64_t remaining);

  private:
    /** Request kinds encoded in the (otherwise unused) tag field. */
    enum ReqKind : std::uint64_t
    {
        kindRefData = 0, //!< Response words are reference slots.
        kindTibPtr = 1,  //!< Response word is the TIB pointer.
        kindTibMeta = 2, //!< TIB metadata / offset words (discarded).
    };

    /** The object currently being walked. */
    struct Active
    {
        Addr ref = 0;       //!< Status-word VA.
        Addr cursor = 0;    //!< Next reference-slot VA to request.
        Addr end = 0;       //!< One past the last slot (== ref).
        std::uint32_t numRefs = 0;
        std::uint32_t slotsIssued = 0;
        std::uint32_t nextOffsetGroup = 0; //!< TIB offset words read.
        // TIB-mode sub-state.
        bool needTibPtr = false;
        bool awaitTibPtr = false;
        bool needTibMeta = false;
        bool awaitTibMeta = false;
        Addr tibAddr = 0;

        template <class Ar>
        void
        fields(Ar &ar)
        {
            ar(ref, cursor, end, numRefs, slotsIssued, nextOffsetGroup,
               needTibPtr, awaitTibPtr, needTibMeta, awaitTibMeta, tibAddr);
        }
    };

    /** One read of the active object's walk (see nextSend()). */
    struct Send
    {
        Addr va = 0; //!< The address the read covers.
        unsigned size = 0;
        ReqKind kind = kindRefData;
        /** A TIB offset word: the next slot's VA translates first. */
        bool offsetWord = false;
    };

    /** A next read that its full port refuses (see portBlocked()). */
    struct PortBlock
    {
        unsigned probes = 0;       //!< TLB lookups per retry.
        std::array<Addr, 2> va{}; //!< Their VAs, in lookup order.
    };

    /** Translates @p va, stalling on the blocking PTW if needed.
     *  @return The physical address, or nullopt while walking. */
    std::optional<Addr> translate(Addr va, Tick now);

    /** Returns true if issuing is currently allowed. */
    bool mayIssue() const;

    /** The active object's next read, or nullopt once its walk is
     *  done. Not while a dependent TIB load is in flight. */
    std::optional<Send> nextSend() const;

    /**
     * Set when the active object's next read has its translation at
     * hand but the port is full: a retry tick then changes nothing
     * except the TLB hits its translate() calls make, which the
     * returned block lists. The pop that frees a port slot pokes us.
     */
    std::optional<PortBlock> portBlocked() const;

    void issue(Tick now);
    void drainPendingRefs();

    HwgcConfig config_;
    TraceQueue &traceQueue_;
    MarkQueue &markQueue_;
    mem::MemPort *port_;
    mem::Ptw &ptw_;
    unsigned ptwPort_ = 0; //!< Our requester port on the shared PTW.
    mem::TlbArray tlb_;
    const Marker *marker_ = nullptr;

    std::optional<Active> active_;
    unsigned inFlight_ = 0;        //!< Outstanding requests (counted,
                                   //!< not tagged).
    std::deque<Addr> pendingRefs_; //!< Response refs awaiting enqueue.

    bool walkPending_ = false;
    bool walkDone_ = false;
    Addr walkPa_ = 0;
    Addr walkVa_ = 0;

    stats::Scalar requests_{"requests"};
    stats::Scalar bytesRequested_{"bytesRequested"};
    stats::Scalar refsEnqueued_{"refsEnqueued"};
    stats::Scalar nullsDropped_{"nullRefsDropped"};
    stats::Scalar objects_{"objectsTraced"};
    stats::Scalar pageCrossings_{"pageCrossings"};
    stats::Scalar throttled_{"throttledCycles"};
    stats::Scalar tibReads_{"tibExtraReads"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_TRACER_H
