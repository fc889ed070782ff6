/**
 * @file
 * One block sweeper of the reclamation unit (paper Fig 8 / §V-D).
 *
 * A sweeper receives a block descriptor, then "steps through the
 * cells linearly": it reads each cell's start word, classifies the
 * cell (free cell / live-but-unreachable / reachable, via the tag and
 * mark bits of the status word), and links every non-reachable cell
 * into the block's free list, finally writing the free-list head and
 * a summary back to the block-table entry. Reads stream through a
 * two-line buffer — the paper's observation that the sweeper "access
 * memory sequentially and therefore only need 2 cache lines".
 */

#ifndef HWGC_CORE_BLOCK_SWEEPER_H
#define HWGC_CORE_BLOCK_SWEEPER_H

#include <array>
#include <optional>

#include "core/hwgc_config.h"
#include "mem/ptw.h"
#include "mem/tlb.h"
#include "sim/stats.h"

namespace hwgc::core
{

/** A block descriptor handed to a sweeper. */
struct SweepJob
{
    Addr entryVa = 0;   //!< Block-table entry (for the write-back).
    Addr baseVa = 0;    //!< First cell of the block.
    std::uint32_t cellBytes = 0;

    template <class Ar> void fields(Ar &ar) { ar(entryVa, baseVa, cellBytes); }
};

/** One parallel block sweeper. */
class BlockSweeper : public Clocked, public mem::MemResponder
{
  public:
    BlockSweeper(std::string name, const HwgcConfig &config,
                 mem::MemPort *port, mem::Ptw &ptw);

    /** True if a new job can be assigned. */
    bool idle() const;

    /** True when idle and all issued writes have been acknowledged. */
    bool drained() const;

    /**
     * Assigns a block at cycle @p now; the sweeper must be idle. The
     * job sits in a one-entry dispatch inbox for one cycle before the
     * state machine picks it up.
     */
    void assign(const SweepJob &job, Tick now);

    /**
     * Names the component that feeds this sweeper jobs (the
     * reclamation dispatcher). Purely observational: the cycle
     * profiler classifies an idle sweeper as starved rather than idle
     * while its upstream is still busy.
     */
    void setUpstream(const Clocked *upstream) { upstream_ = upstream; }

    // MemResponder interface.
    void onResponse(const mem::MemResponse &resp, Tick now) override;

    // Clocked interface.
    void tick(Tick now) override;
    bool busy() const override { return !drained(); }
    Tick nextWakeup(Tick now) const override;
    CycleClass cycleClass(Tick now) const override;
    Tick classHorizon(Tick) const override { return maxTick; }
    void save(checkpoint::Serializer &ser) const override { ser(*this); }
    void restore(checkpoint::Deserializer &des) override { des(*this); }
    template <class Ar> void fields(Ar &ar);

    /** Re-creates the page-walk completion callback (restore path). */
    mem::Ptw::WalkCallback walkCallback();

    void reset();
    void resetStats();

    /** @name Statistics @{ */
    std::uint64_t blocksSwept() const { return blocks_.value(); }
    std::uint64_t cellsScanned() const { return cells_.value(); }
    std::uint64_t cellsFreed() const { return freed_.value(); }
    std::uint64_t lineFetches() const { return lineFetches_.value(); }
    /** @} */

    /** Registers the sweeper's statistics into @p g (telemetry). */
    void
    addStats(stats::Group &g) const
    {
        g.add(&blocks_);
        g.add(&cells_);
        g.add(&freed_);
        g.add(&lineFetches_);
    }

  private:
    /** A buffered 64-byte line (the sweeper's two-line buffer). */
    struct LineBuf
    {
        bool valid = false;
        Addr lineVa = 0;
        std::array<Word, mem::maxReqWords> data{};
        std::uint64_t lastUse = 0;
    };

    /**
     * Reads a word through the line buffer.
     * @return The word if buffered; nullopt after issuing (or while
     *         waiting on) the line fill.
     */
    std::optional<Word> readWord(Addr va, Tick now);

    /** Issues an 8-byte fire-and-forget write. */
    bool writeWord(Addr va, Word value, Tick now);

    /** Finishes the block: final link, free head, summary. */
    void finishBlock(Tick now);

    std::optional<Addr> translate(Addr va, Tick now);

    /** Moves the latched inbox job into the state machine. */
    void activate();

    HwgcConfig config_;
    mem::MemPort *port_;
    mem::Ptw &ptw_;
    unsigned ptwPort_ = 0; //!< Our requester port on the shared PTW.
    mem::TlbArray tlb_;
    const Clocked *upstream_ = nullptr; //!< Job source (profiling).

    // Job state.
    bool active_ = false;
    SweepJob job_;
    std::uint64_t cellIndex_ = 0;
    std::uint64_t numCells_ = 0;

    // Dispatch inbox (the one-cycle assign latch).
    bool inboxValid_ = false;
    Tick inboxAt_ = 0;
    SweepJob inboxJob_;

    enum class Step : std::uint8_t
    {
        CellStartWord, //!< Fetch/parse the cell's first word.
        HeaderWord,    //!< Fetch/parse the status word.
        FinishLink,    //!< Emit the final free-list stores.
        FinishTable,   //!< Write head + summary to the table entry.
    };
    Step step_ = Step::CellStartWord;
    std::uint32_t curNumRefs_ = 0;

    // Free-list construction (ascending, single store per free cell).
    Addr freeHead_ = 0;
    Addr prevFree_ = 0;
    std::uint32_t freeCells_ = 0;
    bool hasLive_ = false;
    bool pendingLink_ = false; //!< prevFree -> current cell store due.
    Addr pendingLinkTarget_ = 0;

    // Memory machinery.
    std::array<LineBuf, 2> lines_;
    std::uint64_t useCounter_ = 0;
    bool lineFillPending_ = false;
    Addr lineFillVa_ = 0;
    unsigned writesInFlight_ = 0;
    bool walkPending_ = false;

    stats::Scalar blocks_{"blocksSwept"};
    stats::Scalar cells_{"cellsScanned"};
    stats::Scalar freed_{"cellsFreed"};
    stats::Scalar lineFetches_{"lineFetches"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_BLOCK_SWEEPER_H
