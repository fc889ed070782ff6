/**
 * @file
 * DRAM controller timing model implementation.
 */

#include "dram.h"

#include <algorithm>

namespace hwgc::mem
{

Dram::Dram(std::string name, const DramParams &params, PhysMem &mem)
    : MemDevice(std::move(name)), params_(params), mem_(mem),
      banks_(params.banks),
      bandwidth_("bandwidth", params.bandwidthBucket)
{
    panic_if(params_.banks == 0, "DRAM needs at least one bank");
    panic_if(params_.busBytesPerCycle <= 0.0, "bad bus bandwidth");
}

Dram::Pending
Dram::decode(const MemRequest &req, Tick arrived) const
{
    return {req, arrived,
            unsigned((req.paddr / params_.rowBytes) % params_.banks),
            req.paddr / (params_.rowBytes * params_.banks)};
}

bool
Dram::canAccept(const MemRequest &req) const
{
    if (req.isWrite()) {
        return writesInFlight_ < params_.maxWrites;
    }
    return readsInFlight_ < params_.maxReads;
}

void
Dram::sendRequest(const MemRequest &req, Tick now)
{
    pokeWakeup(); // The new entry changes the earliest issue time.
    panic_if(!canAccept(req), "DRAM overflow: in-flight limit exceeded");
    DPRINTF(now, "DRAM", "%s: %s addr=%#llx size=%u", name().c_str(),
            req.isWrite() ? "write" : "read",
            (unsigned long long)req.paddr, req.size);
    if (req.isWrite()) {
        ++writesInFlight_;
    } else {
        ++readsInFlight_;
    }
    queue_.push_back(decode(req, now + params_.frontendLatency));
}

Tick
Dram::serviceAccess(const Pending &p, Tick start)
{
    Bank &bank = banks_[p.bank];

    Tick t = std::max(start, bank.readyAt);

    if (bank.rowOpen && bank.openRow == p.row) {
        ++rowHits_;
    } else {
        ++rowMisses_;
        if (bank.rowOpen) {
            // Precharge may not cut tRAS short.
            t = std::max(t, bank.activatedAt + params_.tRAS);
            t += params_.tRP;
        }
        t += params_.tRCD;
        bank.activatedAt = t;
        ++numActivates_;
        bank.rowOpen = true;
        bank.openRow = p.row;
    }

    // Column access plus burst transfer over the shared data bus.
    t += params_.tCAS;
    const Tick burst = std::max<Tick>(
        1, Tick(double(p.req.size) / params_.busBytesPerCycle + 0.999));
    const Tick data_start = std::max(t, busFreeAt_);
    const Tick done = data_start + burst;
    busFreeAt_ = done;
    bank.readyAt = done;

    if (params_.pagePolicy == DramParams::PagePolicy::Closed) {
        bank.readyAt = std::max<Tick>(
            bank.readyAt,
            std::max(done, bank.activatedAt + params_.tRAS) + params_.tRP);
        bank.rowOpen = false;
    }
    return done;
}

int
Dram::pickNext(Tick now) const
{
    // FIFO MAS (the §VI-A ablation): strict arrival order, head-of-
    // line blocking and all — only the front may issue.
    if (params_.scheduler == DramParams::Scheduler::Fifo) {
        return !queue_.empty() && queue_.front().arrived <= now ? 0 : -1;
    }

    // FR-FCFS: among requests whose bank can take a column command
    // now, prefer the first row hit, else the oldest; requests to
    // busy banks wait rather than blocking the command slot.
    int oldest_ready = -1;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Pending &p = queue_[i];
        if (p.arrived > now) {
            continue;
        }
        const Bank &bank = banks_[p.bank];
        if (bank.readyAt > now) {
            continue;
        }
        if (bank.rowOpen && bank.openRow == p.row) {
            return int(i); // First-ready row hit wins.
        }
        if (oldest_ready < 0) {
            oldest_ready = int(i);
        }
    }
    return oldest_ready;
}

void
Dram::recordTraffic(const MemRequest &req, Tick when)
{
    // DDR3 always bursts a full BL8 (64-byte) column regardless of
    // how few bytes the requester wanted — the paper's Fig 16 counts
    // bandwidth "based on 64B cache line accesses" for this reason,
    // and the energy model (Fig 23) must charge what the DRAM
    // actually moved. Sub-line requests are the unit's common case.
    const std::uint64_t moved = std::max<std::uint64_t>(req.size,
                                                        lineBytes);
    if (req.isWrite()) {
        ++numWrites_;
        bytesWritten_ += moved;
    } else {
        ++numReads_;
        bytesRead_ += moved;
    }
    bandwidth_.record(when, moved);
}

void
Dram::tick(Tick now)
{
    // Issue at most one command per controller cycle.
    const int idx = pickNext(now);
    if (idx >= 0) {
        const Pending &p = queue_[idx];
        const Tick done = serviceAccess(p, now);
        latency_.sample(done - p.arrived + params_.frontendLatency);
        recordTraffic(p.req, done);
        panic_if(!completions_.empty() && done <= completions_.back().at,
                 "DRAM completion at %llu not after %llu",
                 (unsigned long long)done,
                 (unsigned long long)completions_.back().at);
        completions_.push_back({done, p.req});
        queue_.erase(queue_.begin() + idx);
    }

    // Deliver due responses.
    while (!completions_.empty() && completions_.front().at <= now) {
        const Completion c = completions_.front();
        completions_.pop_front();
        MemResponse resp;
        resp.req = c.req;
        resp.completed = now;
        if (!c.req.timingOnly) {
            mem_.execute(c.req, resp.rdata);
        }
        if (c.req.isWrite()) {
            panic_if(writesInFlight_ == 0, "write in-flight underflow");
            --writesInFlight_;
        } else {
            panic_if(readsInFlight_ == 0, "read in-flight underflow");
            --readsInFlight_;
        }
        panic_if(responder_ == nullptr, "DRAM has no responder");
        responder_->onResponse(resp, now);
    }
}

bool
Dram::busy() const
{
    return !queue_.empty() || !completions_.empty();
}

CycleClass
Dram::cycleClass(Tick now) const
{
    (void)now;
    // The controller is the endpoint of the memory system: any queued
    // or in-flight access means it is doing its job. The default
    // classifier would report bank/bus latency waits as upstream
    // starvation, which is meaningless for a device.
    return busy() ? CycleClass::Busy : CycleClass::Idle;
}

Tick
Dram::nextWakeup(Tick) const
{
    Tick next = completions_.empty() ? maxTick : completions_.front().at;
    if (params_.scheduler == DramParams::Scheduler::Fifo) {
        // Only the front entry can issue; it waits solely on its
        // arrival time (serviceAccess absorbs bank readiness).
        return queue_.empty() ? next
                              : std::min(next, queue_.front().arrived);
    }
    // FR-FCFS: an entry becomes issuable once it has arrived and its
    // bank can take a column command.
    for (const auto &p : queue_) {
        next = std::min(next, std::max(p.arrived, banks_[p.bank].readyAt));
    }
    return next;
}

Tick
Dram::accessAtomic(const MemRequest &req, Tick now,
                   std::array<Word, maxReqWords> &rdata)
{
    const Tick start = now + params_.frontendLatency;
    const Tick done = serviceAccess(decode(req, start), start);
    recordTraffic(req, done);
    latency_.sample(done - now);
    if (!req.timingOnly) {
        mem_.execute(req, rdata);
    }
    return done - now;
}

template <class Ar>
void
Dram::fields(Ar &ar)
{
    ar.fixed(banks_, [&](Bank &bank) {
        ar(bank.rowOpen, bank.openRow, bank.readyAt, bank.activatedAt);
    });
    ar(busFreeAt_);
    ar.list(queue_, [&](Pending &p) {
        ar(p.req, p.arrived);
        if constexpr (Ar::loading) {
            p = decode(p.req, p.arrived);
        }
    });
    ar(readsInFlight_, writesInFlight_);
    ar.list(completions_, [&](Completion &c) { ar(c.at, c.req); });
    ar(numReads_, numWrites_, bytesRead_, bytesWritten_, rowHits_,
       rowMisses_, numActivates_, bandwidth_, latency_);
}

template void Dram::fields(checkpoint::Serializer &);
template void Dram::fields(checkpoint::Deserializer &);

void
Dram::resetStats()
{
    numReads_.reset();
    numWrites_.reset();
    bytesRead_.reset();
    bytesWritten_.reset();
    rowHits_.reset();
    rowMisses_.reset();
    numActivates_.reset();
    bandwidth_.reset();
    latency_.reset();
}

Dram::DebugState
Dram::debugState() const
{
    DebugState state;
    state.queued = queue_.size();
    state.completionsPending = completions_.size();
    state.readsInFlight = readsInFlight_;
    state.writesInFlight = writesInFlight_;
    state.busFreeAt = busFreeAt_;
    if (!queue_.empty()) {
        state.firstBankReadyAt = banks_[queue_.front().bank].readyAt;
    }
    return state;
}

void
Dram::resetBankState()
{
    for (auto &bank : banks_) {
        bank = Bank{};
    }
    busFreeAt_ = 0;
}

} // namespace hwgc::mem
