/**
 * @file
 * The blocking hardware page-table walker shared by the GC unit's
 * TLBs.
 *
 * The paper's prototype has exactly one blocking PTW backed by an
 * 8 KiB cache ("the PTW is backed by an 8KB cache, to hold the top
 * levels of the page table") and identifies it as a bottleneck:
 * "as the TLB and page table walker are blocking, TLB misses can
 * serialize execution" (§VI-A). This model reproduces that: one walk
 * in progress at a time, per-level PTE fetches issued through a
 * MemPort (either the PTW's private cache, or the shared unit cache
 * in the Fig 18a configuration), and a shared 128-entry L2 TLB
 * consulted before walking.
 *
 * Requesters attach through registered *ports* (registerRequester),
 * each with its own bounded request queue. An issued walk is latched
 * for one cycle (arriveAt = issue + 1) before the walker can pick it
 * up, and the walker starts at most one queued walk per cycle,
 * choosing the oldest arrival and breaking same-cycle ties by port
 * id, so the pick order is a pure function of issue cycles and port
 * ids.
 */

#ifndef HWGC_MEM_PTW_H
#define HWGC_MEM_PTW_H

#include <deque>
#include <functional>

#include "mem/page_table.h"
#include "mem/port.h"
#include "mem/tlb.h"
#include "sim/clocked.h"
#include "sim/stats.h"

namespace hwgc::mem
{

/** PTW configuration. */
struct PtwParams
{
    unsigned l2TlbEntries = 128;  //!< Shared L2 TLB (paper baseline).
    Tick l2TlbLatency = 2;        //!< L2 TLB hit latency.
    unsigned queueDepth = 16;     //!< Pending walks per requester port.
};

/** Blocking page-table walker with a shared L2 TLB. */
class Ptw : public Clocked, public MemResponder
{
  public:
    /**
     * Completion callback: (valid, va, pa, page_bits). Invalid means
     * the virtual address is unmapped — a configuration error for the
     * GC unit, surfaced to the requester. page_bits is log2 of the
     * mapped page size (12 for 4 KiB pages, 21 for superpages).
     */
    using WalkCallback = std::function<void(bool, Addr, Addr, unsigned)>;

    /**
     * Re-creates a walk callback from its (owner, token) identity when
     * a checkpoint is restored. @p owner is the requesting component's
     * name; @p token is requester-defined (e.g. a slot index).
     */
    using CallbackResolver =
        std::function<WalkCallback(const std::string &owner,
                                   std::uint64_t token)>;

    /**
     * @param port Where PTE fetches are sent (the walker does not own
     *        it). Must be wired so responses come back to this Ptw.
     */
    Ptw(std::string name, const PtwParams &params,
        const PageTable &page_table, MemPort *port);

    /**
     * Attaches a requester and returns its port id for canRequest() /
     * requestWalk(). @p label is its checkpoint identity — the name
     * handed to the CallbackResolver, conventionally the requesting
     * component's name(). Call during construction, before the first
     * tick.
     */
    unsigned registerRequester(std::string label);

    /** True if port @p port can queue another walk this cycle. */
    bool canRequest(unsigned port) const;

    /**
     * Queues a walk for @p va on @p port at cycle @p now; @p cb fires
     * when it resolves. The walk becomes visible to the walker one
     * cycle later (the issue latch).
     *
     * Callbacks are opaque closures and cannot be serialized, so each
     * request also carries a requester-defined @p token; together with
     * the port's label it forms the identity from which the
     * CallbackResolver re-creates the closure after a checkpoint
     * restore.
     */
    void requestWalk(unsigned port, Addr va, Tick now, WalkCallback cb,
                     std::uint64_t token = 0);

    /** Installs the restore-time (owner, token) -> callback factory. */
    void
    setCallbackResolver(CallbackResolver resolver)
    {
        resolver_ = std::move(resolver);
    }

    // MemResponder interface (PTE fetch completions).
    void onResponse(const MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override;
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    Tick classHorizon(Tick) const override { return maxTick; }
    void save(checkpoint::Serializer &ser) const override { ser(*this); }
    void restore(checkpoint::Deserializer &des) override { des(*this); }
    template <class Ar> void fields(Ar &ar);

    /** The shared second-level TLB (flush between phases). */
    TlbArray &l2Tlb() { return l2Tlb_; }

    /**
     * Retargets the walker at another tenant's page table (fleet
     * time-multiplexing). Callers must flush the TLBs and ensure no
     * walk is in flight — this is part of the §VII context switch.
     */
    void setPageTable(const PageTable &page_table);

    void resetStats();

    /** @name Statistics @{ */
    std::uint64_t walksStarted() const { return walks_.value(); }
    std::uint64_t l2TlbHits() const { return l2Hits_.value(); }
    std::uint64_t pteFetches() const { return pteFetches_.value(); }
    /** @} */

    /** Registers the walker's statistics into @p g (telemetry). */
    void
    addStats(stats::Group &g) const
    {
        g.add(&walks_);
        g.add(&l2Hits_);
        g.add(&pteFetches_);
    }

  private:
    struct WalkRequest
    {
        Addr va = 0;
        Tick arriveAt = 0;  //!< Issue cycle + 1 (the issue latch).
        WalkCallback cb;
        std::uint64_t token = 0;  //!< Requester-defined (restore identity).
    };

    struct PendingCallback
    {
        Tick readyAt = 0;
        bool valid = false;
        Addr va = 0;
        Addr pa = 0;
        unsigned pageBits = 0;
        WalkCallback cb;
        std::uint64_t token = 0;  //!< Requester-defined (restore identity).
        unsigned port = 0;        //!< Issuing port (restore identity).
    };

    /** One requester attachment with its bounded walk queue. */
    struct Port
    {
        std::string label;
        std::deque<WalkRequest> queue;
    };

    /** Issues the PTE fetch for the current level if the port has room. */
    void issueLevel(Tick now);

    void finishWalk(bool valid, Addr pa, unsigned page_bits, Tick now);

    bool anyQueued() const;

    /** Rebuilds a callback from its saved identity via the resolver. */
    WalkCallback resolveCallback(unsigned port, std::uint64_t token,
                                 const std::string &origin) const;

    PtwParams params_;
    const PageTable *pageTable_;
    MemPort *port_;
    TlbArray l2Tlb_;

    std::vector<Port> ports_;
    std::deque<PendingCallback> pendingCallbacks_;

    // Current walk state.
    bool walking_ = false;
    bool awaitingResponse_ = false;
    WalkRequest current_;
    unsigned currentPort_ = 0;
    PageTable::WalkResult walkPlan_;
    unsigned level_ = 0;

    CallbackResolver resolver_;

    stats::Scalar walks_{"walks"};
    stats::Scalar l2Hits_{"l2TlbHits"};
    stats::Scalar pteFetches_{"pteFetches"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_PTW_H
