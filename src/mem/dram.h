/**
 * @file
 * A bank-aware DRAM controller timing model.
 *
 * Models the memory system of paper Table I: single-rank DDR3-2000
 * with 14-14-14-47 ns timings, an FR-FCFS memory access scheduler with
 * 16 reads / 8 writes in flight, and an open-page row-buffer policy.
 * A FIFO scheduler and a closed-page policy are selectable for the
 * §VI-A ablation ("performance was significantly improved changing
 * from FIFO MAS to FR-FCFS and increasing outstanding reads 8→16").
 *
 * The model is deliberately at the level of FireSim's DDR3 timing
 * model: per-bank row-buffer state, a shared data bus with burst
 * occupancy, and first-ready scheduling — not a full command-level
 * DDR state machine.
 */

#ifndef HWGC_MEM_DRAM_H
#define HWGC_MEM_DRAM_H

#include <deque>
#include <vector>

#include "mem/mem_device.h"
#include "mem/phys_mem.h"
#include "sim/stats.h"

namespace hwgc::mem
{

/** DRAM configuration (defaults follow paper Table I). */
struct DramParams
{
    enum class Scheduler { FrFcfs, Fifo };
    enum class PagePolicy { Open, Closed };

    unsigned banks = 8;
    std::uint64_t rowBytes = 2048;

    Tick tCAS = 14;   //!< Column access strobe latency (ns = cycles).
    Tick tRCD = 14;   //!< Row-to-column delay.
    Tick tRP = 14;    //!< Row precharge.
    Tick tRAS = 47;   //!< Row active time.

    unsigned maxReads = 16;  //!< Max reads in flight (Table I).
    unsigned maxWrites = 8;  //!< Max writes in flight (Table I).

    /** Peak data-bus bandwidth in bytes per core cycle (DDR3-2000). */
    double busBytesPerCycle = 16.0;

    /** Controller frontend/backend pipeline latency. */
    Tick frontendLatency = 10;

    Scheduler scheduler = Scheduler::FrFcfs;
    PagePolicy pagePolicy = PagePolicy::Open;

    /** Bucket width of the bandwidth time series (Fig 16). */
    Tick bandwidthBucket = 10000;
};

/** The DRAM controller + device timing model. */
class Dram : public MemDevice
{
  public:
    Dram(std::string name, const DramParams &params, PhysMem &mem);

    // MemDevice interface.
    bool canAccept(const MemRequest &req) const override;
    void sendRequest(const MemRequest &req, Tick now) override;
    Tick accessAtomic(const MemRequest &req, Tick now,
                      std::array<Word, maxReqWords> &rdata) override;
    void resetStats() override;
    void resetTimingState() override { resetBankState(); }

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override;
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    Tick classHorizon(Tick) const override { return maxTick; }
    void save(checkpoint::Serializer &ser) const override { ser(*this); }
    void restore(checkpoint::Deserializer &des) override { des(*this); }
    template <class Ar> void fields(Ar &ar);

    /** Resets bank/row-buffer state (between experiment phases). */
    void resetBankState();

    /** Introspection for debugging stuck traffic. */
    struct DebugState
    {
        std::size_t queued = 0;
        std::size_t completionsPending = 0;
        unsigned readsInFlight = 0;
        unsigned writesInFlight = 0;
        Tick firstBankReadyAt = 0;
        Tick busFreeAt = 0;
    };
    DebugState debugState() const;

    const DramParams &params() const { return params_; }

    /** @name Statistics @{ */
    const stats::Scalar &numReads() const { return numReads_; }
    const stats::Scalar &numWrites() const { return numWrites_; }
    const stats::Scalar &bytesRead() const { return bytesRead_; }
    const stats::Scalar &bytesWritten() const { return bytesWritten_; }
    const stats::Scalar &rowHits() const { return rowHits_; }
    const stats::Scalar &rowMisses() const { return rowMisses_; }
    const stats::Scalar &numActivates() const { return numActivates_; }
    const stats::TimeSeries &bandwidth() const { return bandwidth_; }
    const stats::Histogram &latency() const { return latency_; }
    /** @} */

    void
    addStats(stats::Group &g) override
    {
        g.add(&numReads_);
        g.add(&numWrites_);
        g.add(&bytesRead_);
        g.add(&bytesWritten_);
        g.add(&rowHits_);
        g.add(&rowMisses_);
        g.add(&numActivates_);
        g.add(&bandwidth_);
        g.add(&latency_);
    }

  private:
    struct Bank
    {
        bool rowOpen = false;
        std::uint64_t openRow = 0;
        Tick readyAt = 0;       //!< Earliest next column command.
        Tick activatedAt = 0;   //!< For tRAS accounting.
    };

    /**
     * An unissued request: entries leave the queue when they issue, so
     * it holds at most maxReads + maxWrites of them, in arrival order.
     */
    struct Pending
    {
        MemRequest req;
        Tick arrived = 0;       //!< When eligible for scheduling.
        unsigned bank = 0;      //!< Decoded once, at arrival.
        std::uint64_t row = 0;
    };

    struct Completion
    {
        Tick at;
        MemRequest req;
    };

    /** Decodes @p req's bank and row. */
    Pending decode(const MemRequest &req, Tick arrived) const;

    /**
     * Computes the service completion time of an access starting no
     * earlier than @p start, updating bank and bus state. The shared
     * data bus serialises bursts, so successive results strictly
     * increase until resetBankState().
     */
    Tick serviceAccess(const Pending &p, Tick start);

    /** Picks the next queue index to issue, or -1 if none is ready. */
    int pickNext(Tick now) const;

    void recordTraffic(const MemRequest &req, Tick when);

    DramParams params_;
    PhysMem &mem_;

    std::vector<Bank> banks_;
    Tick busFreeAt_ = 0;

    std::vector<Pending> queue_;
    unsigned readsInFlight_ = 0;
    unsigned writesInFlight_ = 0;
    std::deque<Completion> completions_; //!< In issue (= `at`) order.

    stats::Scalar numReads_{"numReads"};
    stats::Scalar numWrites_{"numWrites"};
    stats::Scalar bytesRead_{"bytesRead"};
    stats::Scalar bytesWritten_{"bytesWritten"};
    stats::Scalar rowHits_{"rowHits"};
    stats::Scalar rowMisses_{"rowMisses"};
    stats::Scalar numActivates_{"numActivates"};
    stats::TimeSeries bandwidth_;
    stats::Histogram latency_{"accessLatency"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_DRAM_H
