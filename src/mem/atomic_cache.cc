/**
 * @file
 * Atomic cache implementation.
 */

#include "atomic_cache.h"

#include "sim/checkpoint.h"

namespace hwgc::mem
{

AtomicCache::AtomicCache(std::string name,
                         const AtomicCacheParams &params,
                         AtomicCache *next, MemDevice *memory)
    : name_(std::move(name)), params_(params),
      tags_(params.sizeBytes, params.assoc), next_(next), memory_(memory)
{
    panic_if(next_ == nullptr && memory_ == nullptr,
             "cache '%s' has no downstream", name_.c_str());
}

Tick
AtomicCache::chargeDownstream(Addr line_addr, bool is_write, Tick now)
{
    if (next_ != nullptr) {
        return next_->access(line_addr, lineBytes, is_write, now);
    }
    MemRequest req;
    req.paddr = line_addr;
    req.size = lineBytes;
    req.op = is_write ? Op::Write : Op::Read;
    req.timingOnly = true;
    std::array<Word, maxReqWords> scratch{};
    return memory_->accessAtomic(req, now, scratch);
}

Tick
AtomicCache::accessLine(Addr line_addr, bool is_write, Tick now)
{
    if (tags_.access(line_addr)) {
        ++hits_;
        if (is_write) {
            tags_.markDirty(line_addr);
        }
        return params_.hitLatency;
    }

    ++misses_;
    Tick latency = params_.hitLatency;
    const CacheTags::Victim victim = tags_.insert(line_addr, is_write);
    if (victim.valid && victim.dirty) {
        ++writebacks_;
        // Dirty evictions are buffered in real designs; charge the
        // downstream for the traffic but not the requester's latency.
        chargeDownstream(victim.lineAddr, true, now);
    }
    latency += chargeDownstream(line_addr, false, now + latency);
    return latency;
}

Tick
AtomicCache::access(Addr addr, unsigned size, bool is_write, Tick now)
{
    panic_if(size == 0, "zero-size access");
    const Addr first = alignDown(addr, lineBytes);
    const Addr last = alignDown(addr + size - 1, lineBytes);
    Tick latency = 0;
    for (Addr line = first; line <= last; line += lineBytes) {
        latency += accessLine(line, is_write, now + latency);
    }
    return latency;
}

void
AtomicCache::flush()
{
    tags_.flush();
}

template <class Ar>
void
AtomicCache::fields(Ar &ar)
{
    ar(tags_, hits_, misses_, writebacks_);
}

template void AtomicCache::fields(checkpoint::Serializer &);
template void AtomicCache::fields(checkpoint::Deserializer &);

void
AtomicCache::resetStats()
{
    hits_.reset();
    misses_.reset();
    writebacks_.reset();
}

} // namespace hwgc::mem
