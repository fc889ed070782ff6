/**
 * @file
 * The tracer queue decoupling marker and tracer (paper §IV-A idea II,
 * Fig 7): "our traversal unit consists of a pipeline with a marker
 * and a tracer connected via a tracer queue. If a long object is
 * being examined by the tracer, the marker continues operating and
 * the queue fills up."
 */

#ifndef HWGC_CORE_TRACE_QUEUE_H
#define HWGC_CORE_TRACE_QUEUE_H

#include <deque>

#include "sim/logging.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hwgc::core
{

/** A newly marked object awaiting reference tracing. */
struct TraceEntry
{
    Addr ref = 0;               //!< Status-word VA.
    std::uint32_t numRefs = 0;  //!< Outbound reference count.
};

/** Bounded FIFO between marker (producer) and tracer (consumer). */
class TraceQueue
{
  public:
    explicit TraceQueue(unsigned capacity) : capacity_(capacity)
    {
        panic_if(capacity_ == 0, "tracer queue needs capacity");
    }

    bool canPush() const { return q_.size() < capacity_; }

    void
    push(const TraceEntry &e)
    {
        panic_if(!canPush(), "tracer queue overflow");
        q_.push_back(e);
        if (q_.size() > maxDepth_.value()) {
            maxDepth_.set(q_.size());
        }
    }

    bool empty() const { return q_.empty(); }
    std::size_t size() const { return q_.size(); }

    TraceEntry
    pop()
    {
        panic_if(q_.empty(), "tracer queue underflow");
        const TraceEntry e = q_.front();
        q_.pop_front();
        return e;
    }

    void clear() { q_.clear(); }

    std::uint64_t maxDepth() const { return maxDepth_.value(); }
    void resetStats() { maxDepth_.reset(); }

    /** Registers the queue's statistics into @p g (telemetry). */
    void addStats(stats::Group &g) const { g.add(&maxDepth_); }

    /** Checkpoint field list (sim/checkpoint.h). */
    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar.list(q_, [&](TraceEntry &e) { ar(e.ref, e.numRefs); });
        if constexpr (Ar::loading) {
            fatal_if(q_.size() > capacity_,
                     "checkpoint '%s': trace queue holds %zu entries but "
                     "has capacity %u — configurations differ",
                     ar.origin().c_str(), q_.size(), capacity_);
        }
        ar(maxDepth_);
    }

  private:
    unsigned capacity_;
    std::deque<TraceEntry> q_;
    stats::Scalar maxDepth_{"maxDepth"};
};

} // namespace hwgc::core

#endif // HWGC_CORE_TRACE_QUEUE_H
