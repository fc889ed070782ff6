/**
 * @file
 * Spilling mark queue implementation.
 */

#include "mark_queue.h"

namespace hwgc::core
{

MarkQueue::MarkQueue(std::string name, const HwgcConfig &config,
                     mem::MemPort *port, Addr spill_base,
                     std::uint64_t spill_bytes)
    : Clocked(std::move(name)), config_(config), port_(port),
      spillBase_(spill_base),
      spillCapacityEntries_(spill_bytes / entryBytes())
{
    panic_if(port_ == nullptr, "mark queue needs a spill port");
    panic_if(spill_base % lineBytes != 0,
             "spill region must be line aligned");
    panic_if(spill_bytes % lineBytes != 0,
             "spill region must be a line multiple");
    panic_if(config_.spillQueueEntries < granuleEntries(),
             "inQ/outQ must hold at least one spill granule");
}

Word
MarkQueue::pack(Addr ref) const
{
    if (!config_.compressRefs) {
        return ref;
    }
    // Heap VAs are 8-byte aligned and < 2^35 (§V-C: "the lowest 3 bit
    // are 0"; the upper bits denote the space and are recovered by
    // the reverse function — here they are simply zero).
    const Word packed = ref >> 3;
    panic_if(packed > 0xffffffffULL,
             "reference %#llx not compressible to 32 bits",
             (unsigned long long)ref);
    return packed;
}

Addr
MarkQueue::unpack(Word packed) const
{
    return config_.compressRefs ? (packed << 3) : packed;
}

void
MarkQueue::noteDepth()
{
    const std::uint64_t d = depth();
    if (d > maxDepth_.value()) {
        maxDepth_.set(d);
    }
    const std::uint64_t spill_bytes =
        (spillTail_ - spillHead_) * entryBytes();
    if (spill_bytes > peakSpill_.value()) {
        peakSpill_.set(spill_bytes);
    }
}

bool
MarkQueue::canEnqueue() const
{
    // Effective on-chip capacity doubles with compression for the
    // same SRAM budget (markQueueEntries is counted in 64-bit slots).
    const std::uint64_t qcap = std::uint64_t(config_.markQueueEntries) *
        (config_.compressRefs ? 2 : 1);
    if (q_.size() < qcap) {
        return true;
    }
    return outQ_.size() < config_.spillQueueEntries &&
        (spillTail_ - spillHead_) + granuleEntries() <=
        spillCapacityEntries_;
}

void
MarkQueue::enqueue(Addr ref)
{
    pokeWakeup(); // Fill level feeds the spill engine's wakeup.
    if (consumer_ != nullptr) {
        pokeWakeup(*consumer_); // canDequeue() may have just risen.
    }
    panic_if(!canEnqueue(), "mark queue overflow");
    const std::uint64_t qcap = std::uint64_t(config_.markQueueEntries) *
        (config_.compressRefs ? 2 : 1);
    if (q_.size() < qcap) {
        q_.push_back(pack(ref));
    } else {
        outQ_.push_back(pack(ref));
    }
    noteDepth();
}

bool
MarkQueue::canDequeue() const
{
    return !q_.empty() || !inQ_.empty();
}

Addr
MarkQueue::dequeue()
{
    pokeWakeup(); // Draining may enable a refill or bypass copy.
    panic_if(!canDequeue(), "mark queue underflow");
    Word packed;
    if (!q_.empty()) { // Priority to the main queue.
        packed = q_.front();
        q_.pop_front();
    } else {
        packed = inQ_.front();
        inQ_.pop_front();
    }
    return unpack(packed);
}

bool
MarkQueue::throttle() const
{
    return outQ_.size() >= config_.spillThrottle;
}

bool
MarkQueue::empty() const
{
    return q_.empty() && outQ_.empty() && inQ_.empty() &&
        spillHead_ == spillTail_ && !writeInFlight_ && !readInFlight_;
}

std::uint64_t
MarkQueue::depth() const
{
    return q_.size() + outQ_.size() + inQ_.size() +
        (spillTail_ - spillHead_);
}

void
MarkQueue::onResponse(const mem::MemResponse &resp, Tick now)
{
    pokeWakeup();
    (void)now;
    if (resp.req.isWrite()) {
        panic_if(!writeInFlight_, "unexpected spill write ack");
        writeInFlight_ = false;
        return;
    }
    panic_if(!readInFlight_, "unexpected spill read response");
    readInFlight_ = false;
    for (unsigned i = 0; i < granuleEntries(); ++i) {
        Word entry;
        if (config_.compressRefs) {
            const Word word = resp.rdata[i / 2];
            entry = (i % 2 == 0) ? (word & 0xffffffffULL) : (word >> 32);
        } else {
            entry = resp.rdata[i];
        }
        inQ_.push_back(entry);
    }
    spillHead_ += granuleEntries();
    if (consumer_ != nullptr) {
        pokeWakeup(*consumer_); // The refill made inQ dequeueable.
    }
}

void
MarkQueue::tick(Tick now)
{
    const unsigned granule = granuleEntries();

    // 1. Spill writes first (deadlock avoidance).
    if (!writeInFlight_ && outQ_.size() >= granule) {
        mem::MemRequest req;
        req.paddr = spillBase_ +
            (spillTail_ % spillCapacityEntries_) * entryBytes();
        req.size = lineBytes;
        req.op = mem::Op::Write;
        if (port_->canSend(req)) {
            for (unsigned i = 0; i < granule; ++i) {
                const Word entry = outQ_.front();
                outQ_.pop_front();
                if (config_.compressRefs) {
                    if (i % 2 == 0) {
                        req.wdata[i / 2] = entry;
                    } else {
                        req.wdata[i / 2] |= entry << 32;
                    }
                } else {
                    req.wdata[i] = entry;
                }
            }
            spillTail_ += granule;
            entriesSpilled_ += granule;
            ++spillWrites_;
            writeInFlight_ = true;
            port_->send(req, now);
            noteDepth();
            DPRINTF(now, "MarkQueue",
                    "%s: spill write tail=%llu entries=%u",
                    name().c_str(), (unsigned long long)spillTail_,
                    granule);
            return;
        }
    }

    // 2. Refill from the spill region when no full write granule is
    //    pending. (outQ may hold a sub-granule remainder; requiring
    //    it to be empty would deadlock — writes need a full granule,
    //    the bypass needs an empty spill region. Entry order does not
    //    matter for GC correctness, as the paper notes.)
    if (!readInFlight_ && outQ_.size() < granule &&
        spillTail_ - spillHead_ >= granule &&
        inQ_.size() + granule <= config_.spillQueueEntries) {
        mem::MemRequest req;
        req.paddr = spillBase_ +
            (spillHead_ % spillCapacityEntries_) * entryBytes();
        req.size = lineBytes;
        req.op = mem::Op::Read;
        if (port_->canSend(req)) {
            ++spillReads_;
            readInFlight_ = true;
            port_->send(req, now);
            DPRINTF(now, "MarkQueue", "%s: spill read head=%llu",
                    name().c_str(), (unsigned long long)spillHead_);
            return;
        }
    }

    // 3. Bypass: direct outQ -> inQ copy while memory holds nothing
    //    (keeps FIFO-ish order and drains partial granules).
    if (spillHead_ == spillTail_ && !readInFlight_) {
        unsigned moved = 0;
        while (moved < 4 && !outQ_.empty() &&
               inQ_.size() < config_.spillQueueEntries) {
            inQ_.push_back(outQ_.front());
            outQ_.pop_front();
            ++moved;
        }
    }
}

bool
MarkQueue::busy() const
{
    // Any queued entry counts as pending work: the consumer will
    // drain it on a later cycle, so the system must not go idle.
    return !empty();
}

Tick
MarkQueue::nextWakeup(Tick now) const
{
    // Mirrors the three tick() actions (before their port checks, so
    // port-full cycles retry densely). Entries sitting in q_/inQ_ are
    // the *marker's* work, and in-flight spill traffic resolves via
    // onResponse — neither needs a tick here.
    const unsigned granule = granuleEntries();
    if (!writeInFlight_ && outQ_.size() >= granule) {
        return now; // Spill write attempt.
    }
    if (!readInFlight_ && outQ_.size() < granule &&
        spillTail_ - spillHead_ >= granule &&
        inQ_.size() + granule <= config_.spillQueueEntries) {
        return now; // Refill read attempt.
    }
    if (spillHead_ == spillTail_ && !readInFlight_ && !outQ_.empty() &&
        inQ_.size() < config_.spillQueueEntries) {
        return now; // Bypass copy.
    }
    return maxTick;
}

CycleClass
MarkQueue::cycleClass(Tick now) const
{
    (void)now;
    if (empty()) {
        return CycleClass::Idle;
    }
    // The three tick() actions in priority order. nextWakeup() fires
    // for the first two before their port check (dense retry), so a
    // wanted-but-port-blocked cycle must classify as a bus stall, not
    // Busy.
    const unsigned granule = granuleEntries();
    const bool wants_write = !writeInFlight_ && outQ_.size() >= granule;
    const bool wants_read = !readInFlight_ && outQ_.size() < granule &&
        spillTail_ - spillHead_ >= granule &&
        inQ_.size() + granule <= config_.spillQueueEntries;
    if (wants_write || wants_read) {
        mem::MemRequest probe;
        probe.size = lineBytes;
        return port_->canSend(probe) ? CycleClass::Busy
                                     : CycleClass::StallBus;
    }
    if (spillHead_ == spillTail_ && !readInFlight_ && !outQ_.empty() &&
        inQ_.size() < config_.spillQueueEntries) {
        return CycleClass::Busy; // Bypass copy.
    }
    if (writeInFlight_ || readInFlight_) {
        return CycleClass::StallDram; // Spill traffic in flight.
    }
    // Entries parked (q_/inQ_, a sub-granule outQ remainder, or the
    // spill region) waiting for the consumer to drain them.
    return CycleClass::StallDownstreamFull;
}

template <class Ar>
void
MarkQueue::fields(Ar &ar)
{
    ar.list(q_);
    ar.list(outQ_);
    ar.list(inQ_);
    ar(spillHead_, spillTail_, writeInFlight_, readInFlight_, spillWrites_,
       spillReads_, entriesSpilled_, maxDepth_, peakSpill_);
}

template void MarkQueue::fields(checkpoint::Serializer &);
template void MarkQueue::fields(checkpoint::Deserializer &);

void
MarkQueue::reset()
{
    q_.clear();
    outQ_.clear();
    inQ_.clear();
    spillHead_ = spillTail_ = 0;
    panic_if(writeInFlight_ || readInFlight_,
             "reset with spill traffic in flight");
}

void
MarkQueue::resetStats()
{
    spillWrites_.reset();
    spillReads_.reset();
    entriesSpilled_.reset();
    maxDepth_.reset();
    peakSpill_.reset();
}

} // namespace hwgc::core
