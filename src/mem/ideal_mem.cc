/**
 * @file
 * Ideal latency-bandwidth pipe implementation.
 */

#include "ideal_mem.h"

#include <algorithm>

#include "mem/request.h"
#include "sim/checkpoint.h"

namespace hwgc::mem
{

IdealMem::IdealMem(std::string name, const IdealMemParams &params,
                   PhysMem &mem)
    : MemDevice(std::move(name)), params_(params), mem_(mem),
      bandwidth_("bandwidth", params.bandwidthBucket)
{
}

bool
IdealMem::canAccept(const MemRequest &) const
{
    return inFlight_ < params_.maxInFlight;
}

Tick
IdealMem::serviceAccess(const MemRequest &req, Tick now)
{
    const Tick burst = params_.perRequestOverhead + std::max<Tick>(
        1, Tick(double(req.size) / params_.busBytesPerCycle + 0.999));
    const Tick start = std::max(now + params_.latency, busFreeAt_);
    busFreeAt_ = start + burst;
    ++numRequests_;
    bytesMoved_ += req.size;
    bandwidth_.record(start + burst, req.size);
    return start + burst;
}

void
IdealMem::sendRequest(const MemRequest &req, Tick now)
{
    pokeWakeup();
    panic_if(!canAccept(req), "IdealMem overflow");
    ++inFlight_;
    completions_.push({serviceAccess(req, now), req});
}

void
IdealMem::tick(Tick now)
{
    while (!completions_.empty() && completions_.top().at <= now) {
        const Completion c = completions_.top();
        completions_.pop();
        MemResponse resp;
        resp.req = c.req;
        resp.completed = now;
        if (!c.req.timingOnly) {
            mem_.execute(c.req, resp.rdata);
        }
        panic_if(inFlight_ == 0, "in-flight underflow");
        --inFlight_;
        panic_if(responder_ == nullptr, "IdealMem has no responder");
        responder_->onResponse(resp, now);
    }
}

bool
IdealMem::busy() const
{
    return !completions_.empty();
}

Tick
IdealMem::accessAtomic(const MemRequest &req, Tick now,
                       std::array<Word, maxReqWords> &rdata)
{
    const Tick done = serviceAccess(req, now);
    if (!req.timingOnly) {
        mem_.execute(req, rdata);
    }
    return done - now;
}

void
IdealMem::save(checkpoint::Serializer &ser) const
{
    ser.putU64(busFreeAt_);
    ser.putU64(inFlight_);
    // Drain a copy of the priority queue so completions serialize in
    // deterministic (time-sorted) order, not heap order.
    auto completions = completions_;
    ser.putU64(completions.size());
    while (!completions.empty()) {
        const Completion &c = completions.top();
        ser.putU64(c.at);
        saveRequest(ser, c.req);
        completions.pop();
    }
    checkpoint::putStat(ser, numRequests_);
    checkpoint::putStat(ser, bytesMoved_);
    checkpoint::putStat(ser, bandwidth_);
}

void
IdealMem::restore(checkpoint::Deserializer &des)
{
    busFreeAt_ = des.getU64();
    inFlight_ = unsigned(des.getU64());
    completions_ = {};
    const std::uint64_t num_completions = des.getU64();
    for (std::uint64_t i = 0; i < num_completions; ++i) {
        Completion c;
        c.at = des.getU64();
        c.req = restoreRequest(des);
        completions_.push(c);
    }
    checkpoint::getStat(des, numRequests_);
    checkpoint::getStat(des, bytesMoved_);
    checkpoint::getStat(des, bandwidth_);
}

void
IdealMem::resetStats()
{
    numRequests_.reset();
    bytesMoved_.reset();
    bandwidth_.reset();
}

} // namespace hwgc::mem
