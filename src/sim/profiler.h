/**
 * @file
 * Top-down cycle-accounting profiler (DESIGN.md §10).
 *
 * A CycleProfiler is a KernelObserver that attributes every cycle the
 * kernel executes or fast-forwards over to one class per registered
 * component (Clocked::cycleClass()) and accrues the answer into
 * per-component stats::Vectors — one for the whole run plus one per
 * GC phase. The accounting identity
 *
 *     busy + Σ stalls + idle == observed cycles
 *
 * holds per component by construction: every observed cycle is
 * attributed exactly once (fast-forward gaps classify once at the gap
 * start and weight by the gap width, which is exact because component
 * state is frozen across a gap).
 *
 * The cost follows activity, not time. A component's class can only
 * change when it or one of its class inputs is ticked or poked
 * (System::touched(), System::classDependents()) or when its
 * Clocked::classHorizon() passes; on every other observation its
 * class is unchanged, so the profiler holds it as an open span
 * (class, start) and writes the vectors only when the class changes,
 * at phase boundaries, and before any read. The result is the same
 * as classifying every component on every observation.
 *
 * Everything here is observational. Classification reads const state
 * only, the accrued vectors live outside save()/restore() and the
 * config signature, and the profiler chains to any previously
 * attached observer — so profiling on/off is bit-identical in cycles,
 * checkpoints and core statistics (tests/test_profiler.cc enforces
 * this).
 */

#ifndef HWGC_SIM_PROFILER_H
#define HWGC_SIM_PROFILER_H

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/clocked.h"
#include "sim/cycle_class.h"
#include "sim/stats.h"

namespace hwgc::telemetry
{

/** See file header. */
class CycleProfiler : public KernelObserver
{
  public:
    /**
     * Snapshots @p system's current component list (all components
     * must already be registered) and registers one stats group per
     * component under "<stats_prefix>.profile.<component>", so the
     * attribution lands in the normal stats-JSON export. The same
     * prefix names the Perfetto counter tracks.
     */
    CycleProfiler(System &system, std::string stats_prefix);
    ~CycleProfiler() override;

    CycleProfiler(const CycleProfiler &) = delete;
    CycleProfiler &operator=(const CycleProfiler &) = delete;

    /**
     * Forwards every observer callback to @p chain after accounting.
     * System holds a single observer slot; this keeps the activity
     * tracer working while the profiler is attached.
     */
    void setChain(KernelObserver *chain) { chain_ = chain; }

    // KernelObserver interface.
    void cycleExecuted(Tick now, std::uint64_t active_mask) override;
    void fastForwarded(Tick from, Tick to) override;

    /** @name Phase attribution
     * Called by the device at GC phase boundaries ("rootScan",
     * "mark", "sweep"). Cycles outside any phase accrue only into
     * the per-run totals. Also emits the per-class Perfetto counter
     * tracks (0 at phase start, the phase's aggregate at phase end),
     * giving the weighted flamegraph-style timeline view. @{ */
    void beginPhase(const std::string &name);
    void endPhase();
    /** @} */

    /**
     * Human-readable bottleneck report: per phase and for the whole
     * run, the aggregated class mix plus each component's top stall
     * causes. @p top_n bounds the stall classes listed per line.
     */
    void report(std::FILE *out, std::size_t top_n = 3) const;

    /** @name Programmatic access (tests, benches) @{ */

    std::size_t numComponents() const { return comps_.size(); }
    const std::string &componentName(std::size_t i) const;

    /** Whole-run cycles of class @p c for component @p i. */
    std::uint64_t cycles(std::size_t i, CycleClass c) const;

    /** Whole-run cycles component @p i accounted across all classes
     *  (the identity says this equals observedCycles()). */
    std::uint64_t accounted(std::size_t i) const;

    /** Cycles this profiler observed (executed + fast-forwarded). */
    std::uint64_t observedCycles() const { return observed_; }

    /** Whole-run cycles of class @p c summed over all components. */
    std::uint64_t aggregate(CycleClass c) const;

    /** Like aggregate(), restricted to phase @p phase (0 if the
     *  phase never ran). */
    std::uint64_t phaseAggregate(const std::string &phase,
                                 CycleClass c) const;

    /** The stall class with the most whole-run aggregated cycles
     *  (ties resolve to the lower enum value). */
    CycleClass topStallClass() const;

    /** topStallClass() restricted to phase @p phase. */
    CycleClass topStallClass(const std::string &phase) const;

    /** Phase names in first-use order. */
    const std::vector<std::string> &phases() const { return phaseNames_; }
    /** @} */

  private:
    /** A component's stats, registered under
     *  "<prefix>.profile.<component>". */
    struct PerComponent
    {
        stats::Group group{"profile"};
        stats::Vector total;
        /** One vector per entry of phaseNames_, same order. Owned
         *  behind unique_ptr: the group keeps raw pointers. */
        std::vector<std::unique_ptr<stats::Vector>> phase;
        std::string registryPath;
    };

    /** A component's open span: class @c cls since observed cycle
     *  @c since. Kept apart from the stats so that the per-observation
     *  loop reads only these few bytes per component. */
    struct Span
    {
        const Clocked *clocked;
        /** First observation time at which @c cls may be stale
         *  (Clocked::classHorizon); 0 until first classified. */
        Tick horizon = 0;
        std::uint64_t since = 0;
        CycleClass cls = CycleClass::Idle;
    };

    /** Attributes one observation of @p weight cycles at @p now. */
    void observe(Tick now, std::uint64_t weight);

    /** Closes every open span into the stats vectors. Runs before
     *  every registry read of the profile groups (their before-read
     *  hook) and at phase boundaries; the public accessors add the
     *  open spans themselves. */
    void flush();

    /** Adds component @p i's open span to its vectors and restarts
     *  the span. */
    void closeSpan(std::size_t i);

    /** Cycles of class @p c for component @p i in phase @p phase_idx
     *  (-1 = whole run), open span included. */
    std::uint64_t value(std::size_t i, int phase_idx, CycleClass c) const;

    /** aggregate() over phase @p phase_idx (-1 = whole run). */
    std::uint64_t aggregateIn(int phase_idx, CycleClass c) const;
    int phaseIndex(const std::string &name) const;
    CycleClass topStallIn(int phase_idx) const;

    System &system_;
    std::string prefix_;
    std::vector<PerComponent> comps_;
    std::vector<Span> spans_; //!< Same order as comps_.
    Tick nextHorizon_ = 0; //!< At most every spans_[i].horizon.
    std::uint64_t registered_ = 0; //!< One bit per entry of comps_.
    std::vector<std::string> phaseNames_;
    int currentPhase_ = -1; //!< Index into phaseNames_, -1 = none.
    std::uint64_t observed_ = 0;
    KernelObserver *chain_ = nullptr;
};

} // namespace hwgc::telemetry

#endif // HWGC_SIM_PROFILER_H
