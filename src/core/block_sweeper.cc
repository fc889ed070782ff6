/**
 * @file
 * Block sweeper implementation.
 *
 * The free list is built ascending with exactly one store per free
 * cell: when a free cell is discovered, the previous free cell's
 * start word is linked to it; the final free cell is terminated when
 * the block ends. The software sweep uses the identical scheme so the
 * two implementations produce bit-identical memory.
 */

#include "block_sweeper.h"

#include <algorithm>

#include "runtime/block_table.h"
#include "runtime/heap_layout.h"
#include "runtime/object_model.h"

namespace hwgc::core
{

using runtime::BlockTableEntry;
using runtime::CellStart;
using runtime::ObjectModel;
using runtime::StatusWord;

BlockSweeper::BlockSweeper(std::string name, const HwgcConfig &config,
                           mem::MemPort *port, mem::Ptw &ptw)
    : Clocked(std::move(name)), config_(config), port_(port), ptw_(ptw),
      tlb_(this->name() + ".tlb", config.sweeperTlbEntries)
{
    panic_if(port_ == nullptr, "sweeper needs a memory port");
    ptwPort_ = ptw_.registerRequester(this->name());
}

bool
BlockSweeper::idle() const
{
    return !active_ && !inboxValid_;
}

bool
BlockSweeper::drained() const
{
    return !active_ && !inboxValid_ && writesInFlight_ == 0;
}

void
BlockSweeper::assign(const SweepJob &job, Tick now)
{
    panic_if(!idle(), "sweeper double assignment");
    panic_if(job.cellBytes == 0 || job.cellBytes > runtime::blockBytes,
             "bad cell size %u", job.cellBytes);
    pokeWakeup(); // Assigned work restarts the state machine.
    inboxJob_ = job;
    inboxAt_ = now;
    inboxValid_ = true;
}

void
BlockSweeper::activate()
{
    panic_if(active_, "sweeper activated while active");
    job_ = inboxJob_;
    inboxValid_ = false;
    active_ = true;
    cellIndex_ = 0;
    numCells_ = runtime::blockBytes / job_.cellBytes;
    step_ = Step::CellStartWord;
    freeHead_ = prevFree_ = 0;
    freeCells_ = 0;
    hasLive_ = false;
    for (auto &line : lines_) {
        line.valid = false;
    }
}

std::optional<Addr>
BlockSweeper::translate(Addr va, Tick now)
{
    if (walkPending_) {
        return std::nullopt; // Blocked on the PTW; don't re-probe.
    }
    if (const auto pa = tlb_.lookup(va)) {
        return *pa;
    }
    if (ptw_.canRequest(ptwPort_)) {
        walkPending_ = true;
        ptw_.requestWalk(ptwPort_, va, now, walkCallback());
    }
    return std::nullopt;
}

mem::Ptw::WalkCallback
BlockSweeper::walkCallback()
{
    return [this](bool valid, Addr wva, Addr wpa, unsigned page_bits) {
        fatal_if(!valid, "sweeper touched unmapped VA %#llx",
                 (unsigned long long)wva);
        tlb_.insert(wva, wpa, page_bits);
        walkPending_ = false;
    };
}

std::optional<Word>
BlockSweeper::readWord(Addr va, Tick now)
{
    const Addr line_va = alignDown(va, lineBytes);
    for (auto &line : lines_) {
        if (line.valid && line.lineVa == line_va) {
            line.lastUse = ++useCounter_;
            return line.data[(va - line_va) / wordBytes];
        }
    }
    if (lineFillPending_) {
        return std::nullopt; // One outstanding fill at a time.
    }
    const auto pa = translate(line_va, now);
    if (!pa) {
        return std::nullopt;
    }
    mem::MemRequest req;
    req.paddr = *pa;
    req.size = lineBytes;
    req.op = mem::Op::Read;
    if (!port_->canSend(req)) {
        return std::nullopt;
    }
    port_->send(req, now);
    ++lineFetches_;
    lineFillPending_ = true;
    lineFillVa_ = line_va;
    return std::nullopt;
}

bool
BlockSweeper::writeWord(Addr va, Word value, Tick now)
{
    const auto pa = translate(va, now);
    if (!pa) {
        return false;
    }
    mem::MemRequest req;
    req.paddr = *pa;
    req.size = wordBytes;
    req.op = mem::Op::Write;
    req.wdata[0] = value;
    if (!port_->canSend(req)) {
        return false;
    }
    port_->send(req, now);
    ++writesInFlight_;
    return true;
}

void
BlockSweeper::onResponse(const mem::MemResponse &resp, Tick now)
{
    pokeWakeup();
    (void)now;
    if (resp.req.isWrite()) {
        panic_if(writesInFlight_ == 0, "sweeper write ack underflow");
        --writesInFlight_;
        return;
    }
    panic_if(!lineFillPending_, "unexpected sweeper line fill");
    LineBuf *victim = &lines_[0];
    for (auto &line : lines_) {
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse) {
            victim = &line;
        }
    }
    victim->valid = true;
    victim->lineVa = lineFillVa_;
    victim->data = resp.rdata;
    victim->lastUse = ++useCounter_;
    lineFillPending_ = false;
}

void
BlockSweeper::finishBlock(Tick now)
{
    if (step_ == Step::FinishLink) {
        if (prevFree_ != 0) {
            if (!writeWord(prevFree_, CellStart::makeFree(0), now)) {
                return;
            }
        }
        step_ = Step::FinishTable;
        return;
    }

    // Head + summary as one aligned 16-byte store (entry words 2..3).
    const Addr dest = job_.entryVa + 2 * wordBytes;
    const auto pa = translate(dest, now);
    if (!pa) {
        return;
    }
    mem::MemRequest req;
    req.paddr = *pa;
    req.size = 16;
    req.op = mem::Op::Write;
    req.wdata[0] = freeHead_;
    req.wdata[1] = BlockTableEntry::makeSummary(freeCells_, hasLive_);
    if (!port_->canSend(req)) {
        return;
    }
    port_->send(req, now);
    ++writesInFlight_;
    ++blocks_;
    active_ = false;
}

void
BlockSweeper::tick(Tick now)
{
    if (inboxValid_ && now > inboxAt_) {
        activate(); // The one-cycle dispatch latch expired.
    }
    if (!active_) {
        return;
    }
    if (step_ == Step::FinishLink || step_ == Step::FinishTable) {
        finishBlock(now);
        return;
    }
    if (cellIndex_ >= numCells_) {
        step_ = Step::FinishLink;
        return;
    }

    const Addr cell = job_.baseVa + cellIndex_ * job_.cellBytes;

    if (step_ == Step::CellStartWord) {
        const auto w0 = readWord(cell, now);
        if (!w0) {
            return;
        }
        if (CellStart::isLive(*w0)) {
            curNumRefs_ = CellStart::numRefs(*w0);
            step_ = Step::HeaderWord;
            return;
        }
        // Already-free cell: relink it into the new list.
        if (prevFree_ != 0 &&
            !writeWord(prevFree_, CellStart::makeFree(cell), now)) {
            return; // Retry next cycle.
        }
        if (prevFree_ == 0) {
            freeHead_ = cell;
        }
        prevFree_ = cell;
        ++freeCells_;
        ++freed_;
        ++cells_;
        ++cellIndex_;
        step_ = Step::CellStartWord;
        return;
    }

    // Step::HeaderWord — classify via tag/mark bits (paper Fig 11).
    const Addr hdr = ObjectModel::refFromCell(cell, curNumRefs_);
    const auto header = readWord(hdr, now);
    if (!header) {
        return;
    }
    panic_if(!StatusWord::live(*header),
             "live cell %#llx has a dead status word",
             (unsigned long long)cell);
    if (StatusWord::marked(*header)) {
        hasLive_ = true; // Reachable: skip to the next cell.
    } else {
        // Live but unreachable: add to the free list.
        if (prevFree_ != 0 &&
            !writeWord(prevFree_, CellStart::makeFree(cell), now)) {
            return;
        }
        if (prevFree_ == 0) {
            freeHead_ = cell;
        }
        prevFree_ = cell;
        ++freeCells_;
        ++freed_;
    }
    ++cells_;
    ++cellIndex_;
    step_ = Step::CellStartWord;
}

Tick
BlockSweeper::nextWakeup(Tick now) const
{
    if (!active_) {
        if (inboxValid_) {
            // The latched job activates the cycle after dispatch.
            return std::max(inboxAt_ + 1, now);
        }
        return maxTick; // Write acks arrive via onResponse.
    }
    if (walkPending_ || lineFillPending_) {
        // The state machine is strictly sequential: it is blocked on
        // this walk/fill and every tick until it resolves is a no-op
        // (modulo line-buffer LRU touches, which cannot change the
        // victim choice — see DESIGN.md).
        return maxTick;
    }
    return now;
}

CycleClass
BlockSweeper::cycleClass(Tick now) const
{
    (void)now;
    if (!active_) {
        if (inboxValid_) {
            return CycleClass::Busy; // Latched dispatch activating.
        }
        if (writesInFlight_ != 0) {
            return CycleClass::StallDram; // Write acks draining.
        }
        return upstream_ != nullptr && upstream_->busy()
                   ? CycleClass::StallUpstreamEmpty
                   : CycleClass::Idle;
    }
    if (walkPending_) {
        return CycleClass::StallPtw;
    }
    if (lineFillPending_) {
        return CycleClass::StallDram; // Streaming line fill.
    }
    // The state machine runs every cycle here; progress hinges on the
    // memory port accepting its reads/writes.
    mem::MemRequest probe;
    probe.size = wordBytes;
    return port_->canSend(probe) ? CycleClass::Busy
                                 : CycleClass::StallBus;
}

template <class Ar>
void
BlockSweeper::fields(Ar &ar)
{
    ar(active_, job_, inboxValid_, inboxAt_, inboxJob_, cellIndex_,
       numCells_, step_, curNumRefs_, freeHead_, prevFree_, freeCells_,
       hasLive_, pendingLink_, pendingLinkTarget_);
    for (LineBuf &line : lines_) {
        ar(line.valid, line.lineVa, line.data, line.lastUse);
    }
    ar(useCounter_, lineFillPending_, lineFillVa_, writesInFlight_,
       walkPending_, blocks_, cells_, freed_, lineFetches_, tlb_);
}

template void BlockSweeper::fields(checkpoint::Serializer &);
template void BlockSweeper::fields(checkpoint::Deserializer &);

void
BlockSweeper::reset()
{
    panic_if(busy(), "sweeper reset while active");
    tlb_.flush();
    for (auto &line : lines_) {
        line.valid = false;
    }
}

void
BlockSweeper::resetStats()
{
    blocks_.reset();
    cells_.reset();
    freed_.reset();
    lineFetches_.reset();
    tlb_.resetStats();
}

} // namespace hwgc::core
