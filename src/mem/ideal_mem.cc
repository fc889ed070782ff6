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

template <class Ar>
void
IdealMem::fields(Ar &ar)
{
    ar(busFreeAt_, inFlight_);
    ar.list(completions_, [&](Completion &c) { ar(c.at, c.req); });
    ar(numRequests_, bytesMoved_, bandwidth_);
}

template void IdealMem::fields(checkpoint::Serializer &);
template void IdealMem::fields(checkpoint::Deserializer &);

void
IdealMem::resetStats()
{
    numRequests_.reset();
    bytesMoved_.reset();
    bandwidth_.reset();
}

} // namespace hwgc::mem
