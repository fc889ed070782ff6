/**
 * @file
 * Marker implementation.
 */

#include "marker.h"

#include <algorithm>

#include "runtime/object_model.h"

namespace hwgc::core
{

using runtime::StatusWord;

Marker::Marker(std::string name, const HwgcConfig &config,
               MarkQueue &mark_queue, TraceQueue &trace_queue,
               mem::MemPort *port, mem::Ptw &ptw)
    : Clocked(std::move(name)), config_(config), markQueue_(mark_queue),
      traceQueue_(trace_queue), port_(port), ptw_(ptw),
      tlb_(this->name() + ".tlb", config.unitTlbEntries),
      markBitCache_(config.markBitCacheEntries),
      slots_(config.markerSlots),
      waiters_(std::max(1u, config.markerWalkWaiters))
{
    hasFastForward_ = true; // Accrues tlbMissStalls over skipped spans.
    panic_if(port_ == nullptr, "marker needs a memory port");
    panic_if(config_.markerSlots == 0, "marker needs request slots");
    ptwPort_ = ptw_.registerRequester(this->name());
    recount();
}

void
Marker::recount()
{
    freeSlots_ = finishWriteback_ = finishPush_ = 0;
    for (const auto &slot : slots_) {
        freeSlots_ += slot.state == SlotState::Free;
        if (slot.state == SlotState::Finish) {
            ++(slot.needWriteback ? finishWriteback_ : finishPush_);
        }
    }
    readyWaiters_ = unlaunchedWaiters_ = 0;
    for (const auto &waiter : waiters_) {
        readyWaiters_ += waiter.valid && waiter.ready;
        unlaunchedWaiters_ +=
            waiter.valid && !waiter.ready && !waiter.walkRequested;
    }
}

bool
Marker::idle() const
{
    return waitersActive_ == 0 && freeSlots_ == slots_.size();
}

int
Marker::findFreeSlot() const
{
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].state == SlotState::Free) {
            return int(i);
        }
    }
    return -1;
}

void
Marker::onResponse(const mem::MemResponse &resp, Tick now)
{
    pokeWakeup();
    (void)now;
    if (resp.req.isWrite()) {
        return; // Write-back ack; the slot was already released.
    }
    panic_if(resp.req.tag >= slots_.size(), "bad marker tag");
    Slot &slot = slots_[resp.req.tag];
    panic_if(slot.state != SlotState::AwaitRead,
             "marker response for idle slot");
    panic_if(inFlightReads_ == 0, "marker in-flight underflow");
    --inFlightReads_;

    const Word old_header = resp.rdata[0];
    panic_if(!StatusWord::live(old_header),
             "marker read a non-live header at %#llx",
             (unsigned long long)slot.ref);

    if (StatusWord::marked(old_header)) {
        // Already marked: elide the write-back, free the slot. Still
        // remember the reference — the cache filters *recently
        // accessed* objects (paper §V-C), and hot objects are mostly
        // seen via repeat accesses.
        markBitCache_.insert(slot.ref);
        ++alreadyMarked_;
        ++writebacksElided_;
        slot.state = SlotState::Free;
        ++freeSlots_;
        return;
    }

    ++newlyMarked_;
    slot.newHeader = old_header | StatusWord::markBit;
    slot.needWriteback = true;
    slot.numRefs = StatusWord::numRefs(old_header);
    slot.needTracePush = slot.numRefs > 0;
    slot.state = SlotState::Finish;
    ++finishWriteback_;
    markBitCache_.insert(slot.ref);
}

void
Marker::finishSlots(Tick now)
{
    for (auto &slot : slots_) {
        if (slot.state != SlotState::Finish) {
            continue;
        }
        if (slot.needWriteback) {
            mem::MemRequest wb;
            wb.paddr = slot.paddr;
            wb.size = wordBytes;
            wb.op = mem::Op::Write;
            wb.wdata[0] = slot.newHeader;
            wb.tag = std::uint64_t(&slot - slots_.data());
            if (!port_->canSend(wb)) {
                continue;
            }
            port_->send(wb, now);
            slot.needWriteback = false;
            --finishWriteback_;
            ++finishPush_;
        }
        if (slot.needTracePush) {
            if (!traceQueue_.canPush()) {
                continue;
            }
            traceQueue_.push({slot.ref, slot.numRefs});
            slot.needTracePush = false;
        }
        slot.state = SlotState::Free;
        --finishPush_;
        ++freeSlots_;
    }
}

bool
Marker::issueRead(Addr ref, Addr pa, Tick now)
{
    const int idx = findFreeSlot();
    if (idx < 0) {
        return false;
    }
    mem::MemRequest req;
    req.paddr = pa;
    req.size = wordBytes;
    req.op = mem::Op::Read;
    req.tag = std::uint64_t(idx);
    if (!port_->canSend(req)) {
        return false;
    }
    Slot &slot = slots_[idx];
    slot.state = SlotState::AwaitRead;
    --freeSlots_;
    slot.ref = ref;
    slot.paddr = pa;
    port_->send(req, now);
    ++inFlightReads_;
    ++marksIssued_;
    DPRINTF(now, "Marker", "%s: mark read ref=%#llx pa=%#llx slot=%d",
            name().c_str(), (unsigned long long)ref,
            (unsigned long long)pa, idx);
    return true;
}

void
Marker::issue(Tick now)
{
    // Ready walk waiters have priority (their references are oldest).
    for (auto &waiter : waiters_) {
        if (readyWaiters_ == 0) {
            break;
        }
        if (waiter.valid && waiter.ready) {
            if (issueRead(waiter.ref, waiter.pa, now)) {
                waiter.valid = false;
                --waitersActive_;
                --readyWaiters_;
            }
            return; // One issue per cycle.
        }
    }

    if (!markQueue_.canDequeue()) {
        return;
    }
    // Hit-under-miss: keep issuing TLB hits while up to N misses walk;
    // a full waiter station stalls the marker (the Fig 17/§VI-A TLB
    // serialization bottleneck).
    if (waitersActive_ >= waiters_.size()) {
        ++tlbMissStalls_;
        return;
    }
    if (freeSlots_ == 0) {
        return;
    }
    mem::MemRequest probe;
    probe.size = wordBytes;
    if (!port_->canSend(probe)) {
        return;
    }

    const Addr ref = markQueue_.dequeue();
    if (profileTargets_) {
        ++targetProfile_[ref];
    }
    if (markBitCache_.enabled() && markBitCache_.contains(ref)) {
        ++markCacheHits_;
        return; // Filtered: known recently marked.
    }

    if (const auto pa = tlb_.lookup(ref)) {
        const bool sent = issueRead(ref, *pa, now);
        panic_if(!sent, "marker issue failed after resource check");
        return;
    }

    // TLB miss: park the reference and request a (serialized) walk.
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
        WalkWaiter &waiter = waiters_[i];
        if (waiter.valid) {
            continue;
        }
        waiter.valid = true;
        waiter.walkRequested = false;
        waiter.ready = false;
        waiter.ref = ref;
        ++waitersActive_;
        ++unlaunchedWaiters_;
        break;
    }
}

mem::Ptw::WalkCallback
Marker::walkCallback(std::uint64_t token)
{
    const std::size_t i = std::size_t(token);
    panic_if(i >= waiters_.size(), "bad marker walk token %llu",
             (unsigned long long)token);
    return [this, i](bool valid, Addr va, Addr pa, unsigned page_bits) {
        fatal_if(!valid, "GC unit touched unmapped VA %#llx",
                 (unsigned long long)va);
        tlb_.insert(va, pa, page_bits);
        WalkWaiter &w = waiters_[i];
        panic_if(!w.valid || w.ready, "stale marker walk callback");
        w.pa = pa;
        w.ready = true;
        ++readyWaiters_;
    };
}

void
Marker::tick(Tick now)
{
    finishSlots(now);

    // Launch walks for parked references as the PTW frees up.
    for (std::size_t i = 0; i < waiters_.size() && unlaunchedWaiters_ != 0;
         ++i) {
        WalkWaiter &waiter = waiters_[i];
        if (!waiter.valid || waiter.walkRequested || waiter.ready ||
            !ptw_.canRequest(ptwPort_)) {
            continue;
        }
        waiter.walkRequested = true;
        --unlaunchedWaiters_;
        ptw_.requestWalk(ptwPort_, waiter.ref, now, walkCallback(i), i);
    }

    issue(now);
}

Tick
Marker::nextWakeup(Tick now) const
{
    // Every issue path needs the memory port; probe it once. While it
    // is full, retry ticks are no-ops: the port drains inside a
    // bus/cache tick, which pokes us as the port's owner.
    mem::MemRequest probe;
    probe.size = wordBytes;
    const bool can_send = port_->canSend(probe);

    if (finishWriteback_ != 0 && can_send) {
        return now; // A write-back can retire.
    }
    if (finishPush_ != 0 && traceQueue_.canPush()) {
        return now; // A trace push can retire (a tracer pop pokes us).
    }
    if (readyWaiters_ != 0 && freeSlots_ != 0 && can_send) {
        return now; // A parked reference can issue.
    }
    if (unlaunchedWaiters_ != 0 && ptw_.canRequest(ptwPort_)) {
        return now; // A walk can be launched.
    }
    if (markQueue_.canDequeue() && waitersActive_ < waiters_.size() &&
        freeSlots_ != 0 && can_send) {
        // Note this fires even when the marker itself is idle: the
        // mark queue's entries are pulled from here. The waiters-full
        // TLB stall is *not* a wakeup — tlbMissStalls accrues in
        // fastForward() and the unblocking walk callback runs inside
        // a PTW tick, which re-polls us.
        return now;
    }
    // Remaining states (reads in flight, walks pending, stalls on the
    // port / slots / waiter station / trace queue) progress only
    // through other components' ticks or response callbacks.
    return maxTick;
}

CycleClass
Marker::cycleClass(Tick now) const
{
    if (nextWakeup(now) <= now) {
        return CycleClass::Busy;
    }
    // Not due: attribute the stall, most-downstream blockage first.
    // Each branch mirrors one condition in nextWakeup(): whatever
    // kept that wakeup from firing is what this cycle waited on.
    // A finish slot that could retire would be due; it is blocked on
    // the memory port (write-back) or the trace queue (push), and the
    // first finish slot in slot order names the stall.
    if (finishWriteback_ != 0 && finishPush_ == 0) {
        return CycleClass::StallBus;
    }
    if (finishPush_ != 0 && finishWriteback_ == 0) {
        return CycleClass::StallDownstreamFull;
    }
    if (finishWriteback_ != 0) {
        for (const auto &slot : slots_) {
            if (slot.state == SlotState::Finish) {
                return slot.needWriteback
                           ? CycleClass::StallBus
                           : CycleClass::StallDownstreamFull;
            }
        }
    }
    if (readyWaiters_ != 0) {
        // A translated reference that cannot issue: every slot is
        // held by an in-flight status-word read, or the port is full.
        return freeSlots_ != 0 ? CycleClass::StallBus
                               : CycleClass::StallMarkbit;
    }
    if (markQueue_.canDequeue()) {
        if (waitersActive_ >= waiters_.size()) {
            return CycleClass::StallPtw; // TLB-walk serialization.
        }
        if (freeSlots_ == 0) {
            return CycleClass::StallMarkbit;
        }
        return CycleClass::StallBus; // Port full (else it were due).
    }
    if (waitersActive_ != 0) {
        return CycleClass::StallPtw; // Walks pending or in flight.
    }
    if (inFlightReads_ != 0) {
        return CycleClass::StallMarkbit; // Status-word reads in flight.
    }
    return markQueue_.empty() ? CycleClass::Idle
                              : CycleClass::StallUpstreamEmpty;
}

bool
Marker::accruesWhileSkipped() const
{
    // The dense kernel counts one TLB-miss stall per cycle the marker
    // spends with dequeueable work but a full walk-waiter station —
    // unless a ready waiter is parked: dense ticks stop at the ready
    // waiter before the stall check and count nothing.
    return markQueue_.canDequeue() && waitersActive_ >= waiters_.size() &&
        readyWaiters_ == 0;
}

void
Marker::fastForward(Tick from, Tick to)
{
    // That state is frozen across cycles the kernel skips us (only
    // ticks and pokes mutate it), so the span accrues in one step.
    if (accruesWhileSkipped()) {
        tlbMissStalls_ += to - from;
    }
}

template <class Ar>
void
Marker::fields(Ar &ar)
{
    ar.fixed(slots_, [&](Slot &slot) {
        ar(slot.state, slot.ref, slot.paddr, slot.newHeader,
           slot.needWriteback, slot.needTracePush, slot.numRefs);
    });
    ar(inFlightReads_);
    ar.fixed(waiters_, [&](WalkWaiter &waiter) {
        ar(waiter.valid, waiter.walkRequested, waiter.ready, waiter.ref,
           waiter.pa);
    });
    ar(waitersActive_, markBitCache_, profileTargets_);
    ar.list(targetProfile_);
    ar(marksIssued_, alreadyMarked_, newlyMarked_, writebacksElided_,
       markCacheHits_, tlbMissStalls_, tlb_);
    if constexpr (Ar::loading) {
        recount();
    }
}

template void Marker::fields(checkpoint::Serializer &);
template void Marker::fields(checkpoint::Deserializer &);

void
Marker::reset()
{
    panic_if(!idle(), "marker reset while active");
    tlb_.flush();
    markBitCache_.clear();
    targetProfile_.clear();
}

void
Marker::resetStats()
{
    marksIssued_.reset();
    alreadyMarked_.reset();
    newlyMarked_.reset();
    writebacksElided_.reset();
    markCacheHits_.reset();
    tlbMissStalls_.reset();
    tlb_.resetStats();
}

} // namespace hwgc::core
