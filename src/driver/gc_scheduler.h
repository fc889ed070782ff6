/**
 * @file
 * Pluggable GC scheduling policies for fleet mode.
 *
 * A fleet time-multiplexes a few accelerator devices across many
 * tenant heaps; when more tenants want a collection than there are
 * free devices, the scheduler decides who goes first. The policy is
 * pure and deterministic — it looks only at the pending queue and the
 * current cycle — so every kernel replays the same dispatch order and
 * the fleet stays bit-identical across dense and event runs.
 */

#ifndef HWGC_DRIVER_GC_SCHEDULER_H
#define HWGC_DRIVER_GC_SCHEDULER_H

#include <memory>
#include <string>
#include <vector>

#include "sim/types.h"

namespace hwgc::driver
{

/** The scheduling policies bench_fleet_latency compares. */
enum class GcPolicy
{
    /** Dispatch in trigger order, ties broken by tenant id. */
    Fifo,
    /** Earliest-deadline-first: tightest SLO budget goes first. */
    Deadline,
    /**
     * Earliest-deadline-first dispatch, with the mark phase run
     * concurrently with the mutator (paper §VI-E): only the sweep
     * handoff is stop-the-world, so the tenant's pause window starts
     * at sweep start rather than at the trigger.
     */
    ConcurrentOverlap,
};

/** One tenant's outstanding collection request. */
struct GcRequest
{
    unsigned tenant = 0;
    Tick triggerAt = 0; //!< Cycle the heap filled and the world stopped.
    Tick deadline = 0;  //!< triggerAt + the tenant's SLO budget.
};

/** Picks which pending request a freed device should serve next. */
class GcScheduler
{
  public:
    virtual ~GcScheduler() = default;

    /**
     * Index into @p pending of the request to dispatch. @p pending is
     * non-empty and kept in trigger order by the caller; @p now is the
     * current cycle. Must be a pure function of its arguments.
     */
    virtual std::size_t pick(const std::vector<GcRequest> &pending,
                             Tick now) const = 0;

    /** True if the mark phase overlaps the mutator (only the sweep
     *  handoff counts toward the tenant's stop-the-world window). */
    virtual bool concurrentMark() const { return false; }

    virtual GcPolicy policy() const = 0;
    virtual const char *name() const = 0;
};

/** Instantiates the scheduler for @p policy. */
std::unique_ptr<GcScheduler> makeScheduler(GcPolicy policy);

/** Parses "fifo" / "deadline" / "overlap" (fatal on anything else). */
GcPolicy parseGcPolicy(const std::string &text);

/** The canonical CLI spelling of @p policy. */
const char *gcPolicyName(GcPolicy policy);

} // namespace hwgc::driver

#endif // HWGC_DRIVER_GC_SCHEDULER_H
