/**
 * @file
 * Blocking page-table walker implementation.
 */

#include "ptw.h"

#include <algorithm>

#include "sim/checkpoint.h"

namespace hwgc::mem
{

Ptw::Ptw(std::string name, const PtwParams &params,
         const PageTable &page_table, MemPort *port)
    : Clocked(std::move(name)), params_(params), pageTable_(&page_table),
      port_(port), l2Tlb_(this->name() + ".l2tlb", params.l2TlbEntries)
{
    panic_if(port_ == nullptr, "PTW needs a memory port");
}

unsigned
Ptw::registerRequester(std::string label)
{
    ports_.push_back({std::move(label), {}});
    return unsigned(ports_.size() - 1);
}

bool
Ptw::canRequest(unsigned port) const
{
    return ports_[port].queue.size() < params_.queueDepth;
}

void
Ptw::requestWalk(unsigned port, Addr va, Tick now, WalkCallback cb,
                 std::uint64_t token)
{
    panic_if(!canRequest(port), "PTW '%s' port '%s': queue overflow",
             name().c_str(), ports_[port].label.c_str());
    pokeWakeup(); // The latched walk becomes visible next cycle.
    ports_[port].queue.push_back({va, now + 1, std::move(cb), token});
}

void
Ptw::issueLevel(Tick now)
{
    MemRequest req;
    req.paddr = alignDown(walkPlan_.pteAddr[level_], wordBytes);
    req.size = wordBytes;
    req.op = Op::Read;
    req.tag = level_;
    if (port_->canSend(req)) {
        port_->send(req, now);
        ++pteFetches_;
        awaitingResponse_ = true;
    }
}

void
Ptw::finishWalk(bool valid, Addr pa, unsigned page_bits, Tick now)
{
    if (valid) {
        l2Tlb_.insert(current_.va, pa, page_bits);
    }
    pendingCallbacks_.push_back({now + 1, valid, current_.va, pa,
                                 page_bits, std::move(current_.cb),
                                 current_.token, currentPort_});
    walking_ = false;
    awaitingResponse_ = false;
}

void
Ptw::onResponse(const MemResponse &resp, Tick now)
{
    pokeWakeup();
    panic_if(!walking_ || !awaitingResponse_,
             "PTW response without a walk in progress");
    panic_if(resp.req.tag != level_, "PTW response level mismatch");
    awaitingResponse_ = false;
    ++level_;
    if (level_ >= walkPlan_.levels) {
        finishWalk(walkPlan_.valid, walkPlan_.pa, walkPlan_.pageBits,
                   now);
    }
}

void
Ptw::tick(Tick now)
{
    // Fire due callbacks.
    while (!pendingCallbacks_.empty() &&
           pendingCallbacks_.front().readyAt <= now) {
        PendingCallback pc = std::move(pendingCallbacks_.front());
        pendingCallbacks_.pop_front();
        pc.cb(pc.valid, pc.va, pc.pa, pc.pageBits);
    }

    if (walking_) {
        if (!awaitingResponse_ && level_ < walkPlan_.levels) {
            issueLevel(now); // Retry if the port was full last cycle.
        }
        return;
    }

    // Start at most one queued walk: oldest arrival wins, same-cycle
    // arrivals break by port id.
    unsigned best = ~0u;
    Tick best_at = maxTick;
    for (unsigned i = 0; i < ports_.size(); ++i) {
        const auto &q = ports_[i].queue;
        if (!q.empty() && q.front().arriveAt <= now &&
            q.front().arriveAt < best_at) {
            best = i;
            best_at = q.front().arriveAt;
        }
    }
    if (best == ~0u) {
        return;
    }

    Port &p = ports_[best];
    current_ = std::move(p.queue.front());
    currentPort_ = best;
    p.queue.pop_front();
    if (const auto hit = l2Tlb_.lookupEntry(current_.va)) {
        ++l2Hits_;
        pendingCallbacks_.push_back({now + params_.l2TlbLatency, true,
                                     current_.va, hit->first,
                                     hit->second,
                                     std::move(current_.cb),
                                     current_.token, currentPort_});
        return;
    }
    ++walks_;
    DPRINTF(now, "PTW", "%s: walk va=%#llx", name().c_str(),
            (unsigned long long)current_.va);
    walkPlan_ = pageTable_->walk(current_.va);
    level_ = 0;
    walking_ = true;
    issueLevel(now);
}

bool
Ptw::anyQueued() const
{
    for (const auto &pp : ports_) {
        if (!pp.queue.empty()) {
            return true;
        }
    }
    return false;
}

bool
Ptw::busy() const
{
    return walking_ || !pendingCallbacks_.empty() || anyQueued();
}

Tick
Ptw::nextWakeup(Tick now) const
{
    Tick next = maxTick;
    if (!pendingCallbacks_.empty()) {
        next = pendingCallbacks_.front().readyAt;
    }
    if (walking_) {
        if (!awaitingResponse_ && level_ < walkPlan_.levels) {
            return now; // Port-full retry of the current level.
        }
        return next; // Waiting on a PTE fetch response.
    }
    for (const auto &pp : ports_) {
        if (!pp.queue.empty()) {
            next = std::min(next,
                            std::max(pp.queue.front().arriveAt, now));
        }
    }
    return next;
}

CycleClass
Ptw::cycleClass(Tick now) const
{
    (void)now;
    if (!busy()) {
        return CycleClass::Idle;
    }
    if (walking_) {
        if (awaitingResponse_) {
            return CycleClass::StallDram; // PTE fetch in flight.
        }
        if (level_ < walkPlan_.levels) {
            MemRequest probe;
            probe.size = wordBytes;
            return port_->canSend(probe) ? CycleClass::Busy
                                         : CycleClass::StallBus;
        }
    }
    // Latching or starting a queued walk, or delivering completion
    // callbacks after their modeled latency: the walker itself is
    // doing the work.
    return CycleClass::Busy;
}

void
Ptw::setPageTable(const PageTable &page_table)
{
    panic_if(walking_ || anyQueued() || !pendingCallbacks_.empty(),
             "ptw retargeted with a walk in flight");
    pageTable_ = &page_table;
}

Ptw::WalkCallback
Ptw::resolveCallback(unsigned port, std::uint64_t token,
                     const std::string &origin) const
{
    fatal_if(port >= ports_.size(),
             "checkpoint '%s': PTW '%s' walk references port %u of %zu",
             origin.c_str(), name().c_str(), port, ports_.size());
    fatal_if(!resolver_,
             "checkpoint '%s': PTW '%s' has in-flight walks but no "
             "callback resolver is installed",
             origin.c_str(), name().c_str());
    const std::string &owner = ports_[port].label;
    WalkCallback cb = resolver_(owner, token);
    fatal_if(!cb,
             "checkpoint '%s': PTW '%s' cannot re-create the walk "
             "callback for owner '%s' token %llu",
             origin.c_str(), name().c_str(), owner.c_str(),
             (unsigned long long)token);
    return cb;
}

template <class Ar>
void
Ptw::fields(Ar &ar)
{
    // A walk's completion callback is an opaque closure. Its identity
    // (the issuing port's label and the requester's token) travels
    // instead, and loading rebuilds the closure through the resolver.
    const auto callback = [&](unsigned port, std::uint64_t token,
                              WalkCallback &cb) {
        if constexpr (Ar::loading) {
            cb = resolveCallback(port, token, ar.origin());
        } else {
            panic_if(ports_[port].label.empty(),
                     "PTW '%s': cannot checkpoint a walk issued through "
                     "unlabelled port %u", name().c_str(), port);
        }
    };
    ar.fixed(ports_, [&](Port &pp) {
        std::string label = pp.label;
        ar(label);
        if constexpr (Ar::loading) {
            fatal_if(label != pp.label,
                     "checkpoint '%s': PTW '%s' port label mismatch "
                     "('%s' vs '%s')", ar.origin().c_str(),
                     name().c_str(), label.c_str(), pp.label.c_str());
        }
        const auto port = unsigned(&pp - ports_.data());
        ar.list(pp.queue, [&](WalkRequest &r) {
            ar(r.va, r.arriveAt, r.token);
            callback(port, r.token, r.cb);
        });
    });
    ar.list(pendingCallbacks_, [&](PendingCallback &pc) {
        ar(pc.readyAt, pc.valid, pc.va, pc.pa, pc.pageBits, pc.port,
           pc.token);
        callback(pc.port, pc.token, pc.cb);
    });
    ar(walking_, awaitingResponse_);
    if constexpr (Ar::loading) {
        current_ = {};
        currentPort_ = 0;
        walkPlan_ = {};
        level_ = 0;
    }
    if (walking_) {
        ar(current_.va, currentPort_, current_.token);
        callback(currentPort_, current_.token, current_.cb);
        ar(walkPlan_.valid, walkPlan_.pa, walkPlan_.pteAddr,
           walkPlan_.levels, walkPlan_.pageBits, level_);
    }
    ar(walks_, l2Hits_, pteFetches_, l2Tlb_);
}

template void Ptw::fields(checkpoint::Serializer &);
template void Ptw::fields(checkpoint::Deserializer &);

void
Ptw::resetStats()
{
    walks_.reset();
    l2Hits_.reset();
    pteFetches_.reset();
    l2Tlb_.resetStats();
}

} // namespace hwgc::mem
