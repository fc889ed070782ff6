/**
 * @file
 * Out-of-line checkpoint pieces: the Clocked save/restore defaults
 * (which panic — every checkpointed component must override them) and
 * the System kernel-state serialization.
 */

#include "checkpoint.h"

#include <algorithm>

#include "sim/clocked.h"

namespace hwgc
{

void
Clocked::save(checkpoint::Serializer &ser) const
{
    (void)ser;
    panic("component '%s' does not support checkpointing",
          name_.c_str());
}

void
Clocked::restore(checkpoint::Deserializer &des)
{
    (void)des;
    panic("component '%s' does not support checkpointing",
          name_.c_str());
}

void
System::save(checkpoint::Serializer &ser) const
{
    ser.putU64(now_);
    ser.putU64(executedCycles_);
    ser.putU64(dueMask_);
    // Drain a copy of the scheduled-wakeup queue into (cycle, index)
    // order; a priority queue over the same pairs rebuilds an
    // equivalent heap on restore.
    auto copy = scheduled_;
    std::vector<ScheduledTick> pending;
    while (!copy.empty()) {
        pending.push_back(copy.top());
        copy.pop();
    }
    ser.putU64(pending.size());
    for (const auto &[at, index] : pending) {
        ser.putU64(at);
        ser.putU64(index);
    }
}

void
System::restore(checkpoint::Deserializer &des)
{
    now_ = des.getU64();
    executedCycles_ = des.getU64();
    dueMask_ = des.getU64();
    scheduled_ = {};
    const std::uint64_t pending = des.getU64();
    for (std::uint64_t i = 0; i < pending; ++i) {
        const Tick at = des.getU64();
        const std::size_t index = des.getU64();
        fatal_if(index >= components_.size(),
                 "checkpoint '%s': scheduled wakeup for component %zu "
                 "but only %zu are registered", des.origin().c_str(),
                 index, components_.size());
        scheduled_.push({at, index});
    }
    // Every cached wakeup and profiler class is stale; the run entry
    // points also set this, but restoring directly into a paused
    // System must not depend on that.
    invalidateAll();
    std::fill(wake_.begin(), wake_.end(), maxTick);
}

} // namespace hwgc
