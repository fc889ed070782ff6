/**
 * @file
 * The simulation kernel: clocked components and the System driver.
 *
 * All timing models are Clocked components registered with a System.
 * One cycle of simulated time is one core clock at 1 GHz (paper
 * Table I). The System runs in one of two kernel modes:
 *
 *  - Dense: the reference kernel. Every component is ticked on every
 *    cycle, exactly like real hardware clocks every flop.
 *  - Event: the fast kernel. Each component publishes the earliest
 *    cycle at which its tick() could have an observable effect
 *    (nextWakeup), the System ticks only the components that are due,
 *    and when nothing is due it fast-forwards the clock straight to
 *    the earliest pending wakeup instead of stepping through the gap.
 *
 * The two modes are cycle-exact equivalents as long as every component
 * honours the wakeup contract documented on Clocked::nextWakeup (see
 * DESIGN.md, "Simulation kernel").
 */

#ifndef HWGC_SIM_CLOCKED_H
#define HWGC_SIM_CLOCKED_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/checkpoint.h"
#include "sim/cycle_class.h"
#include "sim/logging.h"
#include "sim/types.h"

namespace hwgc
{

class System;


/** Kernel selection for System (see file header). */
enum class KernelMode
{
    Dense, //!< Tick every component every cycle (reference kernel).
    Event, //!< Tick only due components; fast-forward idle gaps.
};

/** The kernel's name as --kernel=, HWGC_KERNEL and kernel= spell it. */
inline const char *
kernelModeName(KernelMode mode)
{
    return mode == KernelMode::Dense ? "dense" : "event";
}

/** Parses "dense" or "event"; nullopt for anything else. */
inline std::optional<KernelMode>
parseKernelMode(std::string_view name)
{
    if (name == "dense") {
        return KernelMode::Dense;
    }
    if (name == "event") {
        return KernelMode::Event;
    }
    return std::nullopt;
}

/**
 * Passive observer of the kernel's execution, used by the telemetry
 * layer to derive per-component activity spans and to pace interval
 * sampling off the wakeup machinery. Observers only *read* simulator
 * state: attaching one must never change simulated cycles or
 * statistics (tests/test_telemetry.cc enforces this).
 */
class KernelObserver
{
  public:
    virtual ~KernelObserver() = default;

    /**
     * One executed cycle finished. Bit i of @p active_mask is set if
     * component i (in registration order) ticked this cycle (event
     * kernel) or reported busy() (dense kernel).
     */
    virtual void cycleExecuted(Tick now, std::uint64_t active_mask) = 0;

    /** Cycles [from, to) were fast-forwarded with nothing ticking. */
    virtual void fastForwarded(Tick from, Tick to) = 0;
};

/** Base class for anything evaluated once per clock cycle. */
class Clocked
{
    friend class System;

  public:
    /** @param name A unique, human-readable instance name. */
    explicit Clocked(std::string name) : name_(std::move(name)) {}
    virtual ~Clocked() = default;

    Clocked(const Clocked &) = delete;
    Clocked &operator=(const Clocked &) = delete;

    /** Evaluates one clock cycle at time @p now. */
    virtual void tick(Tick now) = 0;

    /**
     * Reports whether the component could still make progress.
     * runUntilIdle() stops once every component is idle for a cycle.
     */
    virtual bool busy() const = 0;

    /**
     * Wakeup contract of the event kernel: the earliest cycle >= @p now
     * at which tick() might have any observable effect — state changes,
     * calls into other components, or statistics updates. Cycles before
     * that wakeup may be skipped without ticking this component, so an
     * implementation must be *conservative*: returning a cycle that
     * turns out to be a no-op only costs time, but returning one past
     * the first effective tick diverges from the dense kernel.
     *
     * Return @p now (not now + 1) to be ticked on every cycle, and
     * maxTick when only an external call (onResponse, a new request)
     * can create work — the System re-polls every component after each
     * cycle it actually executes, so cross-component pokes are seen.
     *
     * The default is safe for any component: tick every cycle while
     * busy(), never while idle.
     */
    virtual Tick
    nextWakeup(Tick now) const
    {
        return busy() ? now : maxTick;
    }

    /**
     * Classifies the cycle that just finished at time @p now for the
     * cycle-accounting profiler (DESIGN.md §10). Must be a pure
     * function of end-of-cycle architectural state — identical across
     * both kernels at every cycle boundary — and must never
     * mutate anything: the profiler is an observer, and enabling it
     * cannot change simulated results.
     *
     * The default covers components without internal stall structure:
     * idle when not busy, busy when due to tick, otherwise waiting on
     * a producer. Components that model backpressure, memory traffic
     * or translation override this wholesale; in particular, any
     * component whose nextWakeup() returns @p now for a dense
     * port-retry loop must classify those retry cycles as the stall
     * they are rather than Busy.
     */
    virtual CycleClass
    cycleClass(Tick now) const
    {
        if (!busy()) {
            return CycleClass::Idle;
        }
        return nextWakeup(now) <= now ? CycleClass::Busy
                                      : CycleClass::StallUpstreamEmpty;
    }

    /**
     * Time bound of the profiler's class cache (DESIGN.md §10): the
     * earliest cycle after @p now at which cycleClass() might return
     * something other than cycleClass(@p now) although neither this
     * component nor any of its class inputs (its declared wakeup
     * inputs and System::declareClassInputs) was ticked or poked in
     * between. The profiler reuses a class until that cycle and
     * reclassifies on the first observation at or past it. Call only
     * right after cycleClass(@p now), on the same state.
     *
     * The default is conservative — reclassify at every observation —
     * so a component nobody has audited stays exact. A component
     * whose class is a pure function of its own state and its class
     * inputs' returns maxTick; one whose class also moves with the
     * clock returns the first cycle at which it can.
     */
    virtual Tick
    classHorizon(Tick now) const
    {
        return now + 1;
    }

    /**
     * Notification that the event kernel let cycles [from, to) elapse
     * without ticking this component (either a fast-forwarded gap or
     * a single executed cycle on which this component was not due).
     * Only components with per-elapsed-cycle accounting (e.g. the
     * interconnect's cycle counter) need to override this; it must
     * reproduce exactly what the skipped no-op ticks would have done
     * and nothing more. An overrider MUST also set hasFastForward_
     * in its constructor — the kernel skips the virtual call for
     * everyone else (the A/B equivalence tests catch a forgotten
     * flag as a stats divergence) — and is called only while
     * accruesWhileSkipped() holds or its wakeup cache is stale.
     */
    virtual void fastForward(Tick from, Tick to)
    {
        (void)from;
        (void)to;
    }

    /** Whether fastForward() is overridden and must be called. */
    bool hasFastForward() const { return hasFastForward_; }

    /**
     * Skip-accrual predicate of a component with hasFastForward_:
     * false promises that fastForward() would change nothing if the
     * kernel skipped this component now, so the event kernel makes no
     * per-cycle call (and visits no cycle) for it. The kernel reads
     * it when it re-polls nextWakeup() and reuses the answer until
     * the wakeup cache goes stale, so it may read only state whose
     * changes already invalidate that cache (the wakeup contract of
     * System::declareWakeupInputs). The default accrues on every
     * skipped cycle, like a cycle counter.
     */
    virtual bool accruesWhileSkipped() const { return true; }

    /**
     * Serializes this component's complete architectural state —
     * registers, queues, in-flight bookkeeping and statistics — into
     * an already-open checkpoint chunk. Only legal at an inter-cycle
     * boundary (never mid-tick). The default implementation panics:
     * every component registered with a checkpointed System overrides
     * both with a walk of its fields() (sim/checkpoint.h).
     */
    virtual void
    save(checkpoint::Serializer &) const
    {
        panic("component '%s' does not support checkpointing",
              name_.c_str());
    }

    /** Restores state written by save(); layout mismatches fatal(). */
    virtual void
    restore(checkpoint::Deserializer &)
    {
        panic("component '%s' does not support checkpointing",
              name_.c_str());
    }

    const std::string &name() const { return name_; }

  protected:
    /**
     * Marks this component's cached wakeup stale so the event kernel
     * re-polls nextWakeup() on the next cycle it evaluates (see
     * System::declareWakeupInputs). A component with declared wakeup
     * inputs MUST call this from every externally callable method
     * that mutates wakeup-relevant state — onResponse, queue
     * enqueues/dequeues, walk callbacks — since those run inside
     * *other* components' ticks, where the kernel cannot see them.
     * Harmless (and a no-op) outside a System or in dense mode.
     */
    void pokeWakeup();

    /**
     * Invalidates *another* component's cached wakeup. For producers
     * that know exactly which consumer a state change can unblock
     * (e.g. the bus freeing one client's queue slot), this is a
     * precise alternative to a declareWakeupInputs() edge, which
     * would re-poll the consumer after *every* tick of the producer.
     */
    void pokeWakeup(const Clocked &other);

    /** Set by subclasses that override fastForward() (see above). */
    bool hasFastForward_ = false;

  private:
    std::string name_;
    System *system_ = nullptr;
    std::size_t sysIndex_ = 0;
};

/**
 * Owns the global clock and the component list. Components are
 * registered by raw pointer and must outlive the System (they are
 * typically members of the owning simulation object).
 */
class System
{
  public:
    /** Registers a component; evaluation order is registration order. */
    void
    add(Clocked *c)
    {
        panic_if(c == nullptr, "System::add(nullptr)");
        panic_if(components_.size() >= 64,
                 "System supports at most 64 components");
        panic_if(c->system_ != nullptr,
                 "component '%s' already registered", c->name().c_str());
        c->system_ = this;
        c->sysIndex_ = components_.size();
        const std::uint64_t bit = std::uint64_t(1) << c->sysIndex_;
        registered_ |= bit;
        if (c->hasFastForward()) {
            fastForwarders_ |= bit;
        }
        components_.push_back(c);
        wake_.push_back(maxTick);
        succ_.push_back(0);
        classSucc_.push_back(0);
    }

    /**
     * Opts @p dst into wakeup caching. By default the event kernel
     * re-polls every component's nextWakeup() on every cycle it
     * executes, because any tick anywhere might have created work for
     * it. A component whose wakeup can only drop when (a) one of the
     * listed @p srcs ticks, or (b) one of its own entry points runs
     * (which must then call pokeWakeup()), can declare that here: its
     * cached wakeup is then reused until one of those events — or its
     * own tick — invalidates it. Transitions that *raise* the wakeup
     * never need declaring; acting on a stale-low value just costs a
     * no-op tick or poll, exactly like a conservative nextWakeup().
     */
    void
    declareWakeupInputs(Clocked *dst,
                        std::initializer_list<Clocked *> srcs)
    {
        panic_if(dst == nullptr || dst->system_ != this,
                 "declareWakeupInputs for unregistered component");
        declared_ |= std::uint64_t(1) << dst->sysIndex_;
        for (Clocked *src : srcs) {
            panic_if(src == nullptr || src->system_ != this,
                     "wakeup input not registered");
            succ_[src->sysIndex_] |= std::uint64_t(1) << dst->sysIndex_;
            classSucc_[src->sysIndex_] |= std::uint64_t(1)
                << dst->sysIndex_;
        }
    }

    /**
     * Declares cross-reads that only @p dst's cycleClass() makes: the
     * profiler reclassifies @p dst whenever one of @p srcs is ticked
     * or poked. Declared wakeup inputs are class inputs already; this
     * adds the rest and leaves the event kernel's schedule untouched.
     */
    void
    declareClassInputs(Clocked *dst, std::initializer_list<Clocked *> srcs)
    {
        panic_if(dst == nullptr || dst->system_ != this,
                 "declareClassInputs for unregistered component");
        for (Clocked *src : srcs) {
            panic_if(src == nullptr || src->system_ != this,
                     "class input not registered");
            classSucc_[src->sysIndex_] |= std::uint64_t(1)
                << dst->sysIndex_;
        }
    }

    /** Components whose class reads component @p i's state (bit j set:
     *  component j), from declareWakeupInputs + declareClassInputs. */
    std::uint64_t classDependents(std::size_t i) const
    {
        return classSucc_[i];
    }

    /**
     * Components ticked or poked since the last observer callback
     * (bit i: component i). All ones at every run entry and after
     * restore(), when any state may have been rewritten off the
     * clock. Only the event kernel maintains it; under the dense
     * kernel every component ticks every cycle.
     */
    std::uint64_t touched() const { return touched_; }

    /** Invalidates @p c's cached wakeup (see Clocked::pokeWakeup). */
    void
    poke(const Clocked &c)
    {
        const std::uint64_t bit = std::uint64_t(1) << c.sysIndex_;
        dirty_ |= bit;
        touched_ |= bit;
    }

    /** Selects the kernel (callers may switch between runs). */
    void setMode(KernelMode mode) { mode_ = mode; }
    KernelMode mode() const { return mode_; }

    /**
     * Attaches a passive execution observer (nullptr detaches). The
     * observer is consulted only on cycles the kernel actually
     * executes plus fast-forward jumps, so a detached observer costs
     * one pointer compare per executed cycle and an attached one
     * cannot perturb simulated behaviour.
     */
    void setObserver(KernelObserver *observer) { observer_ = observer; }
    KernelObserver *observer() const { return observer_; }

    /**
     * Arms a wall-clock progress watchdog: if a single run call
     * (runUntilIdle / run / runUntilIdleStop) spends more than
     * @p seconds of host time without returning, @p reporter is
     * invoked to dump live diagnostics and the System panics — which
     * also fires the crash hook (logging.h) — instead of hanging
     * silently. The timer restarts at every run entry and the check
     * samples once per 64Ki executed cycles, so the cost is one
     * branch per cycle; @p seconds <= 0 disarms. Host-time-dependent
     * by design: it never alters simulated state, it only decides
     * when to give up on a wedged simulation.
     */
    void
    setWatchdog(double seconds, std::function<void()> reporter = {})
    {
        watchdogSecs_ = seconds;
        watchdogReporter_ = std::move(reporter);
    }

    /** Registered components, in evaluation order. */
    const std::vector<Clocked *> &components() const
    {
        return components_;
    }

    /** Current simulated time in cycles. */
    Tick now() const { return now_; }

    /**
     * Cycles the event kernel actually evaluated (vs. fast-forwarded
     * over). The ratio to now() is the kernel's skip rate.
     */
    std::uint64_t executedCycles() const { return executedCycles_; }

    /**
     * Requests an explicit tick of @p c at cycle @p at, in addition to
     * whatever its nextWakeup() reports. A wakeup scheduled in the
     * past or at the current cycle fires on the next cycle the kernel
     * evaluates — no cycle is lost and nothing is skipped past it.
     * Only meaningful in Event mode (Dense ticks everything anyway).
     */
    void
    schedule(Clocked *c, Tick at)
    {
        panic_if(c == nullptr || c->system_ != this,
                 "schedule() for unregistered component");
        scheduled_.push({std::max(at, now_), c->sysIndex_});
    }

    /**
     * Advances the clock by exactly one cycle, ticking every
     * component, and reports whether any component is still busy (the
     * idle scan rides the same call so runUntilIdle() does not pay a
     * separate per-cycle pre-scan pass).
     */
    bool
    step()
    {
        for (auto *c : components_) {
            c->tick(now_);
        }
        const Tick cycle = now_;
        ++now_;
        ++executedCycles_;
        if (observer_ != nullptr) {
            // The observer needs the full busy mask anyway, so the
            // idle scan rides the mask-building pass.
            std::uint64_t mask = 0;
            for (std::size_t i = 0; i < components_.size(); ++i) {
                if (components_[i]->busy()) {
                    mask |= std::uint64_t(1) << i;
                }
            }
            observer_->cycleExecuted(cycle, mask);
            return mask != 0;
        }
        for (auto *c : components_) {
            if (c->busy()) {
                return true;
            }
        }
        return false;
    }

    /**
     * Runs until every component reports idle, or @p max_cycles have
     * elapsed since the call.
     *
     * @return true if the system went idle, false if the cycle budget
     *         was exhausted (which callers treat as a deadlock bug).
     */
    bool
    runUntilIdle(Tick max_cycles = 2'000'000'000ULL)
    {
        const Tick limit = saturatingLimit(max_cycles);
        if (now_ >= limit) {
            return false;
        }
        if (!anyBusy()) {
            return true;
        }
        // Anything may have been reconfigured between runs (phase
        // starts, resets): every cached wakeup is stale.
        invalidateAll();
        watchdogArm();
        return mode_ == KernelMode::Dense ? runUntilIdleDense(limit)
                                          : runUntilIdleEvent(limit);
    }

    /** Runs for exactly @p cycles cycles (idle or not). */
    void
    run(Tick cycles)
    {
        const Tick limit = saturatingLimit(cycles);
        watchdogArm();
        if (mode_ == KernelMode::Dense) {
            while (now_ < limit) {
                step();
                if (watchdogDue()) {
                    watchdogFireIfExpired();
                }
            }
        } else {
            invalidateAll();
            runEvent(limit);
        }
    }

    /** Why runUntilIdleStop() returned. */
    enum class StopReason
    {
        Idle,    //!< Every component went idle.
        Budget,  //!< max_cycles elapsed (callers treat as deadlock).
        Stopped, //!< The clock reached stop_at (checkpoint boundary).
    };

    /**
     * runUntilIdle(), but additionally returns control the moment the
     * clock reaches @p stop_at, at a clean inter-cycle boundary. The
     * event kernel clamps its fast-forward jumps at the stop
     * cycle, so the boundary always exists; because per-cycle
     * fastForward() accounting is additive over adjacent spans and
     * nextWakeup() is pure, the split changes no simulated state — a
     * stopped-and-continued run stays bit-identical to an
     * uninterrupted one. This is the checkpoint-at hook.
     */
    StopReason
    runUntilIdleStop(Tick stop_at, Tick max_cycles = 2'000'000'000ULL)
    {
        if (now_ >= stop_at) {
            return StopReason::Stopped;
        }
        const Tick limit = saturatingLimit(max_cycles);
        if (now_ >= limit) {
            return StopReason::Budget;
        }
        if (!anyBusy()) {
            return StopReason::Idle;
        }
        invalidateAll();
        watchdogArm();
        if (mode_ == KernelMode::Dense) {
            while (now_ < limit) {
                if (now_ >= stop_at) {
                    return StopReason::Stopped;
                }
                if (!step()) {
                    return StopReason::Idle;
                }
                if (watchdogDue()) {
                    watchdogFireIfExpired();
                }
            }
            return StopReason::Budget;
        }
        while (now_ < limit) {
            if (now_ >= stop_at) {
                return StopReason::Stopped;
            }
            const CyclePass pass = executeCycle();
            if (watchdogDue()) {
                watchdogFireIfExpired();
            }
            if (pass.ticked) {
                if (!anyBusy()) {
                    return StopReason::Idle;
                }
                continue;
            }
            fastForwardTo(std::min({pass.next, limit, stop_at}));
        }
        return StopReason::Budget;
    }

    /**
     * Checkpoint field list of the kernel state: the clock, the
     * executed-cycle count, the due mask and the scheduled-wakeup
     * queue. The wakeup caches are deliberately *not* in it:
     * nextWakeup() is a pure function of component state, so loading
     * marks every cache stale and the next run rebuilds them exactly.
     * Kernel mode is a host-execution knob, not architectural state —
     * a checkpoint saved under one kernel restores under the other.
     */
    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar(now_, executedCycles_, dueMask_);
        ar.list(scheduled_, [&](ScheduledTick &wakeup) {
            ar(wakeup);
            if constexpr (Ar::loading) {
                fatal_if(wakeup.second >= components_.size(),
                         "checkpoint '%s': scheduled wakeup for component "
                         "%zu but only %zu are registered",
                         ar.origin().c_str(), wakeup.second,
                         components_.size());
            }
        });
        if constexpr (Ar::loading) {
            // Every cached wakeup and profiler class is stale; the run
            // entry points also set this, but restoring directly into
            // a paused System must not depend on that.
            invalidateAll();
            std::fill(wake_.begin(), wake_.end(), maxTick);
        }
    }

  private:
    /** Marks every wakeup cache stale and every component touched. */
    void
    invalidateAll()
    {
        dirty_ = ~std::uint64_t(0);
        touched_ = ~std::uint64_t(0);
    }

    Tick
    saturatingLimit(Tick cycles) const
    {
        return cycles > maxTick - now_ ? maxTick : now_ + cycles;
    }

    bool
    anyBusy() const
    {
        for (auto *c : components_) {
            if (c->busy()) {
                return true;
            }
        }
        return false;
    }

    bool
    runUntilIdleDense(Tick limit)
    {
        while (now_ < limit) {
            if (!step()) {
                return true;
            }
            if (watchdogDue()) {
                watchdogFireIfExpired();
            }
        }
        return false;
    }

    /** Outcome of one event-kernel cycle pass. */
    struct CyclePass
    {
        bool ticked;  //!< At least one component ticked.
        Tick next;    //!< Earliest future wakeup seen (maxTick if
                      //!< ticked — pokes invalidate it anyway).
    };

    /**
     * Executes one cycle in a single pass over the active components,
     * in registration order: those due by schedule or by cached
     * wakeup, those whose wakeup cache is stale (dirty or undeclared),
     * and those whose skipped cycles accrue (accruesWhileSkipped()).
     * Every other component has a cached wakeup in the future and
     * nothing to account, so the pass does not touch it.
     *
     * Each component's due-ness is evaluated *at its turn* — not in a
     * separate up-front poll — because a component later in the order
     * must react in the same cycle to work pushed by an earlier one
     * (in the dense kernel its tick simply runs after the poke): the
     * remaining set is recomputed after each visit, so a poke of a
     * later component adds it to this pass. Non-due accruing
     * components get the cycle as a fast-forward notification. If the
     * whole pass ticked nothing, no state changed, so the earliest
     * cached wakeup is a safe cycle to fast-forward to. If anything
     * ticked, it may have poked components already passed, so the
     * caller must run the next cycle normally rather than jump.
     *
     * Wakeup caching: a component that declared its wakeup inputs is
     * only re-polled while its dirty bit is set — a tick of its own,
     * a tick of a declared input, or an explicit pokeWakeup() sets
     * it; otherwise its cached absolute wakeup (and accrual
     * predicate) stands. Undeclared components are re-polled every
     * executed cycle.
     */
    CyclePass
    executeCycle()
    {
        // Move every scheduled wakeup that is due into the due mask.
        while (!scheduled_.empty() && scheduled_.top().first <= now_) {
            dueMask_ |= std::uint64_t(1) << scheduled_.top().second;
            scheduled_.pop();
        }
        // Cached wakeups that have come due. timerMin_ bounds every
        // finite cached wakeup from below, so most cycles skip the scan.
        std::uint64_t timerDue = 0;
        if (timerMin_ <= now_) {
            timerMin_ = maxTick;
            for (std::uint64_t t = timed_; t != 0; t &= t - 1) {
                const auto i = std::size_t(__builtin_ctzll(t));
                if (wake_[i] <= now_) {
                    timerDue |= std::uint64_t(1) << i;
                } else {
                    timerMin_ = std::min(timerMin_, wake_[i]);
                }
            }
        }
        const std::uint64_t undeclared = registered_ & ~declared_;
        const std::uint64_t active =
            dueMask_ | undeclared | timerDue | accruing_;
        std::uint64_t tickedMask = 0;
        std::uint64_t left = (active | dirty_) & registered_;
        while (left != 0) {
            const auto i = std::size_t(__builtin_ctzll(left));
            const std::uint64_t bit = std::uint64_t(1) << i;
            Tick w;
            if ((dueMask_ & bit) != 0) {
                dueMask_ &= ~bit;
                w = now_;
            } else if (((dirty_ | undeclared) & bit) != 0) {
                w = poll(i);
            } else {
                w = wake_[i];
            }
            if (w <= now_) {
                components_[i]->tick(now_);
                tickedMask |= bit;
                dirty_ |= succ_[i] | bit;
            } else if ((accruing_ & bit) != 0) {
                components_[i]->fastForward(now_, now_ + 1);
            }
            // Pokes made by that visit join the rest of this pass.
            left = (active | dirty_) & registered_ & ~(bit | (bit - 1));
        }
        touched_ |= tickedMask;
        const Tick cycle = now_;
        ++now_;
        ++executedCycles_;
        if (observer_ != nullptr) {
            observer_->cycleExecuted(cycle, tickedMask);
            touched_ = 0;
        }
        if (tickedMask != 0) {
            return {true, maxTick};
        }
        // Nothing ticked: every visited cache is fresh, so the jump
        // target is the earliest finite one (made exact here).
        timerMin_ = maxTick;
        for (std::uint64_t t = timed_; t != 0; t &= t - 1) {
            timerMin_ = std::min(
                timerMin_, wake_[std::size_t(__builtin_ctzll(t))]);
        }
        Tick next = timerMin_;
        if (!scheduled_.empty()) {
            next = std::min(next, scheduled_.top().first);
        }
        return {false, next};
    }

    /**
     * Re-polls component @p i: refreshes its cached wakeup, the timer
     * mask and bound, and whether its skipped cycles accrue.
     */
    Tick
    poll(std::size_t i)
    {
        const std::uint64_t bit = std::uint64_t(1) << i;
        Clocked *c = components_[i];
        const Tick w = c->nextWakeup(now_);
        wake_[i] = w;
        dirty_ &= ~bit;
        if (w != maxTick) {
            timed_ |= bit;
            timerMin_ = std::min(timerMin_, w);
        } else {
            timed_ &= ~bit;
        }
        if ((fastForwarders_ & bit) != 0 && w > now_ &&
            c->accruesWhileSkipped()) {
            accruing_ |= bit;
        } else {
            accruing_ &= ~bit;
        }
        return w;
    }

    /** Jumps the clock to @p target, notifying every component whose
     *  skipped cycles accrue so per-cycle accounting stays exact. */
    void
    fastForwardTo(Tick target)
    {
        if (target <= now_) {
            return;
        }
        // The jump target was folded from wakeups read at each
        // component's turn in the pass — but a later component's
        // per-cycle fastForward() handler may have poked an earlier
        // one, lowering a wakeup the fold already captured. Those
        // pokes are exactly the dirty bits set since the poll, so
        // re-poll every stale component and clamp the jump before
        // committing it. Bits stay set: the next executed pass
        // re-polls (and clears) them through the normal path.
        const std::uint64_t stale_mask = dirty_ & registered_;
        for (std::uint64_t stale = stale_mask; stale != 0;
             stale &= stale - 1) {
            const auto i = std::size_t(__builtin_ctzll(stale));
            target = std::min(target,
                              components_[i]->nextWakeup(now_));
        }
        if (target <= now_) {
            return; // A poked component is due now: no jump at all.
        }
        // A stale component's accrual answer is stale too; its
        // fastForward() decides for itself.
        for (std::uint64_t ff = (accruing_ | stale_mask) & fastForwarders_;
             ff != 0; ff &= ff - 1) {
            components_[std::size_t(__builtin_ctzll(ff))]->fastForward(
                now_, target);
        }
        if (observer_ != nullptr) {
            observer_->fastForwarded(now_, target);
            touched_ = 0;
        }
        now_ = target;
    }

    bool
    runUntilIdleEvent(Tick limit)
    {
        while (now_ < limit) {
            const CyclePass pass = executeCycle();
            if (watchdogDue()) {
                watchdogFireIfExpired();
            }
            if (pass.ticked) {
                if (!anyBusy()) {
                    return true;
                }
                continue;
            }
            // An empty cycle while busy: jump to the next wakeup (or
            // the budget limit — if every wakeup is maxTick while
            // components stay busy, that is the same deadlock the
            // dense kernel would step through as no-ops).
            fastForwardTo(std::min(pass.next, limit));
        }
        return false;
    }

    void
    runEvent(Tick limit)
    {
        while (now_ < limit) {
            const CyclePass pass = executeCycle();
            if (watchdogDue()) {
                watchdogFireIfExpired();
            }
            if (!pass.ticked) {
                fastForwardTo(std::min(pass.next, limit));
            }
        }
    }

    /** Restarts the watchdog timer (each public run entry point). */
    void
    watchdogArm()
    {
        if (watchdogSecs_ > 0) {
            watchdogStart_ = std::chrono::steady_clock::now();
        }
    }

    /** Cheap per-cycle gate: sample host time every 64Ki cycles. */
    bool
    watchdogDue() const
    {
        return watchdogSecs_ > 0 && (executedCycles_ & 0xFFFF) == 0;
    }

    void
    watchdogFireIfExpired()
    {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - watchdogStart_)
                .count();
        if (elapsed < watchdogSecs_) {
            return;
        }
        if (watchdogReporter_) {
            watchdogReporter_();
        }
        panic("watchdog: run made no completion progress for %.1f host "
              "seconds (cycle %llu, %llu executed); aborting wedged "
              "simulation",
              elapsed, static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(executedCycles_));
    }

    Tick now_ = 0;
    std::uint64_t executedCycles_ = 0;
    KernelMode mode_ = KernelMode::Event;
    KernelObserver *observer_ = nullptr;
    std::vector<Clocked *> components_;
    std::vector<Tick> wake_; //!< Cached absolute wakeups (event mode).
    std::vector<std::uint64_t> succ_; //!< Per-src mask of dependents.
    std::uint64_t dueMask_ = 0; //!< Scheduled-wakeup due components.
    std::uint64_t declared_ = 0; //!< Components with declared inputs.
    std::uint64_t dirty_ = ~std::uint64_t(0); //!< Stale wakeup caches.
    std::uint64_t registered_ = 0; //!< One bit per component.
    std::uint64_t fastForwarders_ = 0; //!< Components with fastForward().
    std::uint64_t timed_ = 0; //!< Finite cached wakeups.
    Tick timerMin_ = 0; //!< Lower bound of the finite cached wakeups.
    std::uint64_t accruing_ = 0; //!< Skipped cycles accrue (cached).
    std::vector<std::uint64_t> classSucc_; //!< Per-src class dependents.
    std::uint64_t touched_ = ~std::uint64_t(0); //!< See touched().
    double watchdogSecs_ = 0; //!< Progress watchdog limit (0 = off).
    std::function<void()> watchdogReporter_; //!< Pre-abort dump hook.
    std::chrono::steady_clock::time_point watchdogStart_;

    /** Explicitly scheduled (cycle, component index) wakeups. */
    using ScheduledTick = std::pair<Tick, std::size_t>;
    std::priority_queue<ScheduledTick, std::vector<ScheduledTick>,
                        std::greater<ScheduledTick>>
        scheduled_;
};

inline void
Clocked::pokeWakeup()
{
    if (system_ != nullptr) {
        system_->poke(*this);
    }
}

inline void
Clocked::pokeWakeup(const Clocked &other)
{
    if (other.system_ != nullptr) {
        other.system_->poke(other);
    }
}

} // namespace hwgc

#endif // HWGC_SIM_CLOCKED_H
