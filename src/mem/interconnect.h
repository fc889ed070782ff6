/**
 * @file
 * The TileLink-like on-chip interconnect (system bus).
 *
 * Clients register a response receiver and get back a client id; the
 * bus round-robin arbitrates per-client request queues into the
 * downstream memory device and routes responses back by client id.
 * The paper instruments exactly this port ("our TileLink port is busy
 * 88% of all mark cycles"), so the bus keeps utilization statistics
 * and per-client request/byte counters (Fig 18b).
 */

#ifndef HWGC_MEM_INTERCONNECT_H
#define HWGC_MEM_INTERCONNECT_H

#include <deque>
#include <string>
#include <vector>

#include "mem/mem_device.h"
#include "sim/stats.h"

namespace hwgc::mem
{

/** Interconnect configuration. */
struct InterconnectParams
{
    unsigned clientQueueDepth = 4;  //!< Requests buffered per client.
    unsigned grantsPerCycle = 1;    //!< Channel beats per cycle.
    Tick requestLatency = 6;        //!< Client -> memory hops.
    Tick responseLatency = 6;       //!< Memory -> client hops.

    /**
     * Bandwidth throttle (paper §VII "Bandwidth Throttling"): caps
     * the data granted through this bus to the given bytes/cycle via
     * a token bucket, so a GC unit "only use[s] residual bandwidth"
     * instead of interfering with the application. 0 disables.
     */
    double throttleBytesPerCycle = 0.0;
};

/** Round-robin arbitrated system bus in front of one memory device. */
class Interconnect : public Clocked, public MemResponder
{
  public:
    Interconnect(std::string name, const InterconnectParams &params,
                 MemDevice &downstream);

    /**
     * Registers a client port.
     * @param responder Receiver of this client's responses (may be
     *        nullptr for write-only producers that ignore acks).
     * @param label Stable label used in per-client statistics.
     * @return The client id to place into MemRequest::client.
     */
    unsigned registerClient(MemResponder *responder, std::string label);

    /** Rewires a client's responder (breaks construction cycles). */
    void setClientResponder(unsigned client, MemResponder *responder);

    /**
     * Registers the component whose nextWakeup() polls this client's
     * canAccept(); its cached wakeup is poked when a grant frees a
     * slot in the client's queue (the only event that raises it).
     */
    void setClientOwner(unsigned client, const Clocked *owner);

    /**
     * @name Per-group pacing budgets (fleet mode, §VII extended)
     *
     * The global throttle caps everything moving through the bus; a
     * fleet additionally paces each *tenant* with its own token
     * bucket so one device's GC only uses the bandwidth budget its
     * tenant paid for. Clients are mapped into budget groups (all of
     * one device's ports -> the running tenant's group) and each
     * group with a nonzero rate accrues and spends tokens exactly
     * like the global bucket: accrual capped at four line transfers,
     * grants charged at line granularity, starved grants counted and
     * classed as DRAM stalls. Both buckets must pass for a grant.
     * noGroup (the default) exempts a client from group pacing.
     * @{
     */
    static constexpr unsigned noGroup = ~0u;

    /** Assigns @p client to budget group @p group (or noGroup). */
    void setClientGroup(unsigned client, unsigned group);

    /** Sets group @p group's budget in bytes/cycle (0 = unpaced). */
    void setGroupThrottle(unsigned group, double bytes_per_cycle);

    std::uint64_t groupThrottledGrants() const
    {
        return groupThrottledGrants_.value();
    }
    /** @} */

    /** True if client @p client can enqueue one more request. */
    bool canAccept(unsigned client) const;

    /** Enqueues a request from its client port. */
    void sendRequest(const MemRequest &req, Tick now);

    // MemResponder interface (responses arriving from the device).
    void onResponse(const MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override;
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    Tick classHorizon(Tick now) const override;
    void fastForward(Tick from, Tick to) override;
    void save(checkpoint::Serializer &ser) const override { ser(*this); }
    void restore(checkpoint::Deserializer &des) override { des(*this); }
    template <class Ar> void fields(Ar &ar);

    void resetStats();

    /** @name Statistics @{ */
    std::uint64_t clientRequests(unsigned client) const;
    std::uint64_t clientBytes(unsigned client) const;
    const std::string &clientLabel(unsigned client) const;
    unsigned numClients() const { return unsigned(ports_.size()); }
    std::uint64_t busBusyCycles() const { return busBusy_.value(); }
    std::uint64_t observedCycles() const { return cycles_.value(); }
    std::uint64_t throttledGrants() const
    {
        return throttledGrants_.value();
    }
    /** @} */

    /** Registers the bus statistics (incl. per-client counters). */
    void addStats(stats::Group &g) const;

  private:
    struct TimedReq
    {
        MemRequest req;
        Tick readyAt;
    };

    struct TimedResp
    {
        MemResponse resp;
        Tick readyAt;
    };

    struct Port
    {
        MemResponder *responder = nullptr;
        const Clocked *owner = nullptr;
        std::string label;
        std::deque<TimedReq> requests;
    };

    InterconnectParams params_;
    MemDevice &downstream_;
    std::vector<Port> ports_;

    /** Per-client request/byte counters; a deque keeps the Scalars'
     *  addresses stable while clients keep registering, so telemetry
     *  groups may hold pointers into it. */
    std::deque<stats::Scalar> portRequests_;
    std::deque<stats::Scalar> portBytes_;
    std::deque<TimedResp> pendingResponses_;
    unsigned rrNext_ = 0;
    double throttleTokens_ = 0.0;
    stats::Scalar throttledGrants_{"throttledGrants"};

    /** @name Per-group pacing state (see setClientGroup) @{ */
    struct BudgetGroup
    {
        double rate = 0.0;   //!< Bytes/cycle budget (0 = unpaced).
        double tokens = 0.0; //!< Current bucket fill.
    };

    /** The group a port's grants are charged to (noGroup = none). */
    const BudgetGroup *portGroup(unsigned client) const
    {
        const unsigned g = clientGroup_[client];
        return (g != noGroup && g < groups_.size() &&
                groups_[g].rate > 0.0)
            ? &groups_[g]
            : nullptr;
    }
    BudgetGroup *portGroup(unsigned client)
    {
        return const_cast<BudgetGroup *>(
            const_cast<const Interconnect *>(this)->portGroup(client));
    }

    std::vector<BudgetGroup> groups_;
    std::vector<unsigned> clientGroup_; //!< Per client, default noGroup.
    stats::Scalar groupThrottledGrants_{"groupThrottledGrants"};
    /** @} */

    stats::Scalar busBusy_{"busBusyCycles"};
    stats::Scalar cycles_{"cycles"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_INTERCONNECT_H
