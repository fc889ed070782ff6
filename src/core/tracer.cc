/**
 * @file
 * Tracer implementation.
 */

#include "tracer.h"

#include "runtime/object_model.h"

namespace hwgc::core
{

using runtime::ObjectModel;

Tracer::Tracer(std::string name, const HwgcConfig &config,
               TraceQueue &trace_queue, MarkQueue &mark_queue,
               mem::MemPort *port, mem::Ptw &ptw)
    : Clocked(std::move(name)), config_(config), traceQueue_(trace_queue),
      markQueue_(mark_queue), port_(port), ptw_(ptw),
      tlb_(this->name() + ".tlb", config.unitTlbEntries)
{
    hasFastForward_ = true; // Accrues throttledCycles over skipped spans.
    panic_if(port_ == nullptr, "tracer needs a memory port");
    ptwPort_ = ptw_.registerRequester(this->name());
}

unsigned
Tracer::nextTransferSize(Addr addr, std::uint64_t remaining)
{
    for (unsigned size : {64u, 32u, 16u, 8u}) {
        if (size <= remaining && addr % size == 0) {
            return size;
        }
    }
    panic("tracer cursor %#llx not word aligned",
          (unsigned long long)addr);
}

bool
Tracer::idle() const
{
    return !active_ && traceQueue_.empty() && inFlight_ == 0 &&
        pendingRefs_.empty() && !walkPending_;
}

std::optional<Addr>
Tracer::translate(Addr va, Tick now)
{
    if (walkDone_ && walkVa_ == alignDown(va, pageBytes)) {
        return walkPa_ + (va % pageBytes);
    }
    if (walkPending_) {
        // Blocked on the PTW: don't re-probe the TLB every cycle (the
        // probe updates hit/miss stats and LRU state, which must look
        // the same whether or not the kernel skips blocked cycles).
        return std::nullopt;
    }
    if (const auto pa = tlb_.lookup(va)) {
        return *pa;
    }
    if (ptw_.canRequest(ptwPort_)) {
        walkPending_ = true;
        walkDone_ = false;
        ptw_.requestWalk(ptwPort_, va, now, walkCallback());
    }
    return std::nullopt;
}

mem::Ptw::WalkCallback
Tracer::walkCallback()
{
    return [this](bool valid, Addr wva, Addr wpa, unsigned page_bits) {
        fatal_if(!valid, "tracer touched unmapped VA %#llx",
                 (unsigned long long)wva);
        tlb_.insert(wva, wpa, page_bits);
        walkVa_ = alignDown(wva, pageBytes);
        walkPa_ = alignDown(wpa, pageBytes);
        walkPending_ = false;
        walkDone_ = true;
    };
}

bool
Tracer::mayIssue() const
{
    if (markQueue_.throttle()) {
        return false; // outQ fill signal (paper Fig 12).
    }
    if (pendingRefs_.size() >= config_.tracerPendingRefs) {
        return false; // Response buffer back-pressure.
    }
    if (config_.tracerTagSlots != 0 &&
        inFlight_ >= config_.tracerTagSlots) {
        return false; // Tagged-tracer ablation.
    }
    if (!config_.decoupledTracer && marker_ != nullptr &&
        marker_->inFlight() != 0) {
        return false; // Coupled-pipeline ablation.
    }
    return true;
}

void
Tracer::onResponse(const mem::MemResponse &resp, Tick now)
{
    pokeWakeup();
    (void)now;
    panic_if(inFlight_ == 0, "tracer in-flight underflow");
    --inFlight_;

    switch (resp.req.tag) {
      case kindRefData:
        for (unsigned i = 0; i < resp.req.words(); ++i) {
            const Addr ref = resp.rdata[i];
            if (ref == runtime::nullRef) {
                ++nullsDropped_;
            } else {
                pendingRefs_.push_back(ref);
            }
        }
        break;
      case kindTibPtr:
        panic_if(!active_ || !active_->awaitTibPtr,
                 "unexpected TIB pointer response");
        active_->tibAddr = resp.rdata[0];
        active_->awaitTibPtr = false;
        active_->needTibMeta = true;
        break;
      case kindTibMeta:
        if (active_ && active_->awaitTibMeta) {
            active_->awaitTibMeta = false;
        }
        break;
      default:
        panic("unknown tracer request kind %llu",
              (unsigned long long)resp.req.tag);
    }
}

void
Tracer::drainPendingRefs()
{
    unsigned moved = 0;
    while (moved < 4 && !pendingRefs_.empty() &&
           markQueue_.canEnqueue()) {
        markQueue_.enqueue(pendingRefs_.front());
        pendingRefs_.pop_front();
        ++refsEnqueued_;
        ++moved;
    }
}

std::optional<Tracer::Send>
Tracer::nextSend() const
{
    const Active &a = *active_;
    // Conventional-layout preamble: dependent TIB pointer + metadata.
    if (a.needTibPtr) {
        return Send{a.ref + wordBytes, wordBytes, kindTibPtr, false};
    }
    if (a.needTibMeta) {
        return Send{a.tibAddr, wordBytes, kindTibMeta, false};
    }
    if (a.cursor >= a.end) {
        return std::nullopt;
    }
    if (config_.layout == runtime::Layout::Tib) {
        // Scattered fields: one slot per request, preceded by an
        // offset-word read from the TIB for every group of eight
        // slots (the offsets tell a real tracer where the fields
        // are, so the group's slot reads depend on it).
        const std::uint32_t group = a.slotsIssued / 8;
        if (a.slotsIssued % 8 == 0 && a.nextOffsetGroup == group) {
            return Send{a.tibAddr + wordBytes + Addr(group) * wordBytes,
                        wordBytes, kindTibMeta, true};
        }
        return Send{a.cursor, wordBytes, kindRefData, false};
    }
    // Bidirectional layout: largest aligned transfer that tiles the
    // remaining reference section (aligned power-of-two transfers
    // never straddle a page).
    return Send{a.cursor, nextTransferSize(a.cursor, a.end - a.cursor),
                kindRefData, false};
}

namespace
{

mem::MemRequest
readRequest(Addr pa, unsigned size, std::uint64_t kind)
{
    mem::MemRequest req;
    req.paddr = pa;
    req.size = size;
    req.op = mem::Op::Read;
    req.tag = kind;
    return req;
}

} // namespace

void
Tracer::issue(Tick now)
{
    if (!active_ && traceQueue_.empty()) {
        return; // Nothing to trace; idle cycles are not throttle stalls.
    }
    if (!mayIssue()) {
        ++throttled_;
        return;
    }

    // Pop the next object when idle.
    if (!active_) {
        const TraceEntry entry = traceQueue_.pop();
        if (marker_ != nullptr) {
            // The freed trace-queue slot may unblock a marker Finish
            // slot waiting on canPush(); the queue itself is unclocked
            // so the kernel cannot see this hand-off.
            pokeWakeup(*marker_);
        }
        Active a;
        a.ref = entry.ref;
        a.numRefs = entry.numRefs;
        a.cursor = ObjectModel::refsBase(entry.ref, entry.numRefs);
        a.end = entry.ref;
        if (config_.layout == runtime::Layout::Tib) {
            a.needTibPtr = true;
        }
        active_ = a;
        ++objects_;
        DPRINTF(now, "Tracer", "%s: trace object ref=%#llx refs=%u",
                name().c_str(), (unsigned long long)a.ref, a.numRefs);
    }
    Active &a = *active_;
    if (a.awaitTibPtr || a.awaitTibMeta) {
        return; // Dependent load: the next address is still unknown.
    }
    const auto send = nextSend();
    if (!send) {
        active_.reset();
        return;
    }
    if (send->offsetWord && !translate(a.cursor, now)) {
        return; // Blocking TLB miss on the slot the offsets cover.
    }
    const auto pa = translate(send->va, now);
    if (!pa) {
        return; // Blocking TLB miss.
    }
    if (alignDown(send->va, pageBytes) !=
        alignDown(send->va + send->size - 1, pageBytes)) {
        panic("aligned transfer crosses a page");
    }
    const mem::MemRequest req = readRequest(*pa, send->size, send->kind);
    if (!port_->canSend(req)) {
        return;
    }
    port_->send(req, now);
    ++inFlight_;
    ++requests_;
    bytesRequested_ += send->size;
    if (send->kind != kindRefData) {
        ++tibReads_;
    }

    if (a.needTibPtr) {
        a.needTibPtr = false;
        a.awaitTibPtr = true;
        return;
    }
    if (a.needTibMeta) {
        a.needTibMeta = false;
        a.awaitTibMeta = true;
        return;
    }
    if (send->offsetWord) {
        ++a.nextOffsetGroup;
        return; // One request per cycle.
    }
    if (config_.layout == runtime::Layout::Tib) {
        ++a.slotsIssued;
        a.cursor += wordBytes;
        return;
    }
    const Addr old_page = alignDown(a.cursor, pageBytes);
    a.cursor += send->size;
    if (a.cursor < a.end &&
        alignDown(a.cursor, pageBytes) != old_page) {
        ++pageCrossings_; // Next transfer re-translates (paper Fig 14).
    }
    if (a.cursor >= a.end) {
        active_.reset();
    }
}

std::optional<Tracer::PortBlock>
Tracer::portBlocked() const
{
    if (!active_ || active_->awaitTibPtr || active_->awaitTibMeta ||
        walkPending_) {
        return std::nullopt;
    }
    const auto send = nextSend();
    if (!send) {
        return std::nullopt;
    }
    // translate() without its effects, noting the TLB hits it makes;
    // a miss is an effect of its own (a walk or a miss count).
    PortBlock block;
    const auto at_hand = [&](Addr va) -> std::optional<Addr> {
        if (walkDone_ && walkVa_ == alignDown(va, pageBytes)) {
            return walkPa_ + (va % pageBytes);
        }
        const auto pa = tlb_.probe(va);
        if (pa) {
            block.va[block.probes++] = va;
        }
        return pa;
    };
    if (send->offsetWord && !at_hand(active_->cursor)) {
        return std::nullopt;
    }
    const auto pa = at_hand(send->va);
    if (!pa || port_->canSend(readRequest(*pa, send->size, send->kind))) {
        return std::nullopt;
    }
    return block;
}

void
Tracer::tick(Tick now)
{
    drainPendingRefs();
    issue(now);
}

Tick
Tracer::nextWakeup(Tick now) const
{
    if (!pendingRefs_.empty()) {
        return now; // Drain attempt every cycle.
    }
    if (active_ || !traceQueue_.empty()) {
        if (!mayIssue()) {
            // Throttled: every blocking input (mark-queue fill, tag
            // slots, the coupled marker's reads) changes only inside
            // a declared input's tick or our own onResponse poke.
            // throttledCycles accrues in fastForward().
            return maxTick;
        }
        if (walkPending_) {
            return maxTick; // Blocked on the PTW callback.
        }
        if (active_ && (active_->awaitTibPtr || active_->awaitTibMeta)) {
            return maxTick; // Dependent TIB load in flight.
        }
        if (portBlocked()) {
            // The port owner poke wakes us when a slot frees; the
            // retries' TLB hits accrue in fastForward().
            return maxTick;
        }
        return now;
    }
    return maxTick; // At most in-flight reads remain (onResponse).
}

CycleClass
Tracer::cycleClass(Tick now) const
{
    (void)now;
    if (!pendingRefs_.empty()) {
        return CycleClass::Busy; // Drain attempt every cycle.
    }
    if (active_ || !traceQueue_.empty()) {
        // Throttle inputs in mayIssue() order, so the first blocking
        // condition names the stall.
        if (markQueue_.throttle() ||
            pendingRefs_.size() >= config_.tracerPendingRefs) {
            return CycleClass::StallDownstreamFull;
        }
        if (config_.tracerTagSlots != 0 &&
            inFlight_ >= config_.tracerTagSlots) {
            return CycleClass::StallDram; // Tag slots all in flight.
        }
        if (!config_.decoupledTracer && marker_ != nullptr &&
            marker_->inFlight() != 0) {
            return CycleClass::StallBarrier; // Coupled-pipeline wait.
        }
        if (walkPending_) {
            return CycleClass::StallPtw;
        }
        if (active_ && (active_->awaitTibPtr || active_->awaitTibMeta)) {
            return CycleClass::StallDram; // Dependent TIB load in flight.
        }
        // Issuing, or retrying a read its full port refuses: the
        // dense kernel ticks those retries, and they class as Busy.
        return CycleClass::Busy;
    }
    if (walkPending_) {
        return CycleClass::StallPtw;
    }
    if (inFlight_ != 0) {
        return CycleClass::StallDram; // Reads draining into responses.
    }
    // Drained: starved while the marker still generates trace work.
    return marker_ != nullptr && marker_->busy()
               ? CycleClass::StallUpstreamEmpty
               : CycleClass::Idle;
}

bool
Tracer::accruesWhileSkipped() const
{
    if (!active_ && traceQueue_.empty()) {
        return false;
    }
    if (!mayIssue()) {
        return true; // throttledCycles.
    }
    const auto block = portBlocked();
    return block && block->probes != 0; // The retries' TLB hits.
}

void
Tracer::fastForward(Tick from, Tick to)
{
    // The dense kernel ticks every skipped cycle. While the tracer has
    // work that mayIssue() refuses, each tick counts one throttle
    // stall; while its next read waits on a full port, each tick
    // repeats that read's TLB hits. Either state is frozen across
    // the span (only our ticks and pokes change it; pendingRefs_ is
    // empty or we would have been due), so it accrues in one step.
    if (!active_ && traceQueue_.empty()) {
        return;
    }
    if (!mayIssue()) {
        throttled_ += to - from;
        return;
    }
    if (const auto block = portBlocked()) {
        tlb_.replayHits({block->va.data(), block->probes}, to - from);
    }
}

template <class Ar>
void
Tracer::fields(Ar &ar)
{
    ar(active_, inFlight_);
    ar.list(pendingRefs_);
    ar(walkPending_, walkDone_, walkPa_, walkVa_, requests_, bytesRequested_,
       refsEnqueued_, nullsDropped_, objects_, pageCrossings_, throttled_,
       tibReads_, tlb_);
}

template void Tracer::fields(checkpoint::Serializer &);
template void Tracer::fields(checkpoint::Deserializer &);

void
Tracer::reset()
{
    panic_if(!idle(), "tracer reset while active");
    tlb_.flush();
    walkDone_ = false;
}

void
Tracer::resetStats()
{
    requests_.reset();
    bytesRequested_.reset();
    refsEnqueued_.reset();
    nullsDropped_.reset();
    objects_.reset();
    pageCrossings_.reset();
    throttled_.reset();
    tibReads_.reset();
    tlb_.resetStats();
}

} // namespace hwgc::core
