/**
 * @file
 * The unified telemetry layer (DESIGN.md §7).
 *
 * Three cooperating pieces turn the simulator's per-component
 * stats::Groups into machine-readable output:
 *
 *  - StatsRegistry: a process-wide hierarchy of stats::Groups keyed by
 *    dotted path ("system.hwgc0.marker"). Components register at
 *    construction and retire their final values at destruction, so a
 *    JSON export covers every component that ever lived, regardless
 *    of C++ destruction order. Supports periodic interval snapshots
 *    with delta semantics for plotting long runs over time.
 *
 *  - TraceWriter: a streaming Chrome trace-event (chrome://tracing /
 *    Perfetto) emitter. GC phase spans, per-component busy/idle
 *    activity spans and counter tracks all land on one timeline whose
 *    timebase is simulated cycles (1 cycle = 1 ns at the 1 GHz core
 *    clock, displayed as microseconds).
 *
 *  - SystemTracer: a KernelObserver gluing the two to the simulation
 *    kernel — it derives activity spans from which components the
 *    event kernel actually ticked (busy() in dense mode), samples
 *    registered counters, and paces registry snapshots.
 *
 * Everything is observational: enabling any of it must not change
 * simulated cycles or statistics (tests/test_telemetry.cc runs an
 * A/B to enforce this), and when disabled the only residual cost is a
 * null-pointer compare per executed kernel cycle, mirroring the
 * DPRINTF anyEnabled() guard.
 */

#ifndef HWGC_SIM_TELEMETRY_H
#define HWGC_SIM_TELEMETRY_H

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/clocked.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hwgc::telemetry
{

/**
 * JSON string escaping shared by every JSON emitter in the tree:
 * quotes, backslashes and all control characters (bytes < 0x20 become
 * \uXXXX), so user-supplied names (component labels, stat paths)
 * can never break an export.
 */
std::string jsonEscape(const std::string &s);

/**
 * Process-wide telemetry + kernel options, settable from the CLI
 * (--stats-json=, --trace-out=, --stats-interval=, --debug-flags=,
 * --kernel=, --checkpoint-in=, --checkpoint-out=, --checkpoint-at=,
 * --profile, --watchdog-secs=, --bench-out=), the environment
 * (HWGC_STATS_JSON, HWGC_TRACE_OUT, HWGC_STATS_INTERVAL, HWGC_DEBUG,
 * HWGC_KERNEL, HWGC_CHECKPOINT_IN, HWGC_CHECKPOINT_OUT,
 * HWGC_CHECKPOINT_AT, HWGC_PROFILE, HWGC_WATCHDOG_SECS,
 * HWGC_BENCH_OUT) or directly by tests.
 */
struct Options
{
    std::string statsJson;  //!< Stats JSON path ("" off, "-" stdout).
    std::string traceOut;   //!< Chrome trace path ("" off).
    Tick statsInterval = 0; //!< Snapshot/counter period (0 off).

    /** @name Checkpointing (see sim/checkpoint.h, DESIGN.md §9) @{ */

    /** Checkpoint to restore when the device is configured ("" off). */
    std::string checkpointIn;

    /**
     * Checkpoint file to write ("" off). Arming this also installs a
     * crash hook: on panic()/fatal() the device writes
     * "<path>.crash.<pid>" plus a "<path>.crash.<pid>.stats.json"
     * registry dump for post-mortem inspection
     * (examples/heap_inspector). The pid suffix keeps concurrent
     * workers' artifacts collision-free.
     */
    std::string checkpointOut;

    /**
     * Device cycle at which to write the checkpoint. 0 means "after
     * every completed GC pause" (the warmup-reuse mode: the file
     * always holds the latest post-sweep state).
     */
    Tick checkpointAt = 0;
    /** @} */

    /**
     * Simulation kernel override: "", "dense" or "event" (--kernel= /
     * HWGC_KERNEL). "" keeps each driver's configured
     * HwgcConfig::kernel. Both kernels are bit-identical in
     * simulated cycles and statistics; this picks the host execution
     * strategy for binaries whose config the user cannot reach
     * (examples, benches).
     */
    std::string kernel;

    /**
     * Cycle-accounting profiler (DESIGN.md §10): every component
     * classifies each executed cycle (busy / stall cause / idle), and
     * the bottleneck report lands in the stats JSON, the trace's
     * counter tracks, and heap_inspector --profile. Observational:
     * simulated cycles and core statistics are bit-identical either
     * way (tests/test_profiler.cc).
     */
    bool profile = false;

    /**
     * Progress watchdog: if a single System::run*() call makes no
     * forward progress for this many host seconds, dump the live
     * bottleneck report + stats JSON to stderr and abort (0 off).
     * Catches wedged simulations — a deadlocked model otherwise spins
     * silently forever.
     */
    double watchdogSecs = 0.0;

    /**
     * Directory for canonical per-bench BENCH_<name>.json result
     * files ("" off). scripts/bench_compare.py diffs two such
     * directories; bench/baseline/ holds the committed reference.
     */
    std::string benchOut;
};

/** The mutable global options instance. */
Options &options();

/** Applies HWGC_STATS_JSON / HWGC_TRACE_OUT / HWGC_STATS_INTERVAL. */
void applyEnv();

/**
 * Parses and strips the telemetry arguments from @p argv, leaving
 * everything else (including argv[0]) for the caller. Unrecognized
 * arguments are untouched. Recognized forms: --stats-json=PATH,
 * --trace-out=PATH, --stats-interval=N, --debug-flags=LIST.
 */
void parseArgs(int &argc, char **argv);

/** Run metadata embedded in every JSON export. */
struct RunMetadata
{
    std::string binary;       //!< argv[0] (or a caller-chosen name).
    std::string kernel;       //!< "event" / "dense" / "".
    std::string config;       //!< Free-form configuration summary.
    std::uint64_t seed = 0;
    std::uint64_t simCycles = 0;
    double hostSeconds = 0.0;
    /** Additional key/value pairs, exported verbatim. */
    std::vector<std::pair<std::string, std::string>> extra;
};

/**
 * The process-wide hierarchical statistics registry.
 *
 * Paths are dotted ("system.hwgc0.marker.tlb"); add() uniquifies a
 * colliding path by appending "#N". remove() retires the group's
 * *values* (not the pointer) so exports after a component's death
 * still cover it.
 */
class StatsRegistry
{
  public:
    static StatsRegistry &global();

    /**
     * Registers @p group under @p path (uniquified against *live*
     * groups on collision). A retired group at the chosen path is
     * superseded — its stale values drop out of future exports —
     * which is what device churn wants: the slot's current occupant
     * represents the path, and re-registering does not grow the
     * export or shift the path with an ever-increasing "#N" suffix.
     * @return The path actually used — pass it to remove().
     */
    std::string add(const std::string &path, const stats::Group *group);

    /**
     * Unregisters @p path, retiring the group's current values. Also
     * drops the path's interval-delta baselines, so a later
     * re-registration at the same path starts its deltas from zero
     * instead of inheriting the dead component's running totals
     * (which rendered as a large negative delta).
     */
    void remove(const std::string &path);

    /**
     * Reserves a fresh instance prefix: "system.hwgc" becomes
     * "system.hwgc0", then "system.hwgc1", ... Prefixes never repeat
     * within a process, so two live devices cannot collide.
     */
    std::string uniquePrefix(const std::string &base);

    /**
     * Claims the *specific* prefix "<base><n>" and bumps the counter
     * past it, so later uniquePrefix() calls cannot hand it out
     * again. Checkpoint restore uses this to pin each restored
     * device to the index it had when the image was written —
     * without it the counter restarts at 0 in the new process and
     * stats paths drift between the saver and the restorer.
     */
    std::string indexedPrefix(const std::string &base, unsigned n);

    /** Live groups, sorted by path. */
    const std::map<std::string, const stats::Group *> &groups() const
    {
        return groups_;
    }

    /** Human-readable listing of every live group, sorted by path. */
    void dump(std::ostream &os) const;

    /** @name Interval snapshots (delta semantics) @{ */

    /**
     * Records one snapshot row at simulated time @p now: for every
     * registered Scalar, the delta since the previous snapshot (or
     * since registration). Only non-zero deltas are stored, so idle
     * components cost nothing. Deltas are signed — a stats reset
     * between snapshots shows up as a negative delta.
     */
    void snapshot(Tick now);

    std::size_t numSnapshots() const { return snapshots_.size(); }
    void clearSnapshots();
    /** @} */

    /**
     * Writes the full JSON export: metadata, every live and retired
     * group (scalars, vectors, histograms, time series), and the
     * interval snapshot rows.
     */
    void exportJson(std::ostream &os, const RunMetadata &meta) const;

    /** exportJson() to a file, or stdout when @p path is "-". */
    void exportJsonFile(const std::string &path,
                        const RunMetadata &meta) const;

    /** Drops retired groups and snapshots (test isolation). */
    void clearRetired();

  private:
    StatsRegistry() = default;

    /** Erases the interval-delta baselines under "<path>.". */
    void dropSnapshotBaselines(const std::string &path);

    struct SnapshotRow
    {
        Tick tick;
        std::vector<std::pair<std::string, std::int64_t>> deltas;
    };

    /** A group serialized to plain values (for retirement). */
    struct RetiredGroup
    {
        std::string json; //!< Pre-rendered group JSON object body.
    };

    std::map<std::string, const stats::Group *> groups_;
    std::map<std::string, RetiredGroup> retired_;
    std::map<std::string, unsigned> prefixCounters_;
    std::vector<SnapshotRow> snapshots_;
    std::map<std::string, std::uint64_t> snapshotPrev_;
};

/**
 * Streaming Chrome trace-event writer. Events are written as they are
 * emitted (JSON array format, loadable by chrome://tracing and
 * Perfetto); close() finalizes the array. All timestamps are in
 * simulated cycles and exported as microseconds (1 cycle = 1 ns).
 */
class TraceWriter
{
  public:
    static TraceWriter &global();

    /** Opens @p path for writing and enables the writer. */
    void open(const std::string &path);

    bool enabled() const { return out_ != nullptr; }

    /** Finalizes and closes the file; further emits are no-ops. */
    void close();

    /** A complete ("X") span on the named track. */
    void completeSpan(const std::string &track, const std::string &name,
                      Tick begin, Tick end);

    /** A counter ("C") sample; each @p name is its own track. */
    void counter(const std::string &name, Tick when, double value);

    /** An instant ("i") event on the named track. */
    void instant(const std::string &track, const std::string &name,
                 Tick when);

    std::uint64_t eventsWritten() const { return events_; }

  private:
    TraceWriter() = default;

    /** Track name -> tid, emitting thread_name metadata on first use. */
    unsigned trackId(const std::string &track);

    void emitPrefix();

    std::FILE *out_ = nullptr;
    std::string path_; //!< Open file's path (error reporting).
    std::uint64_t events_ = 0;
    std::map<std::string, unsigned> tracks_;
};

/**
 * The KernelObserver bridging a System to the telemetry sinks:
 *
 *  - activity spans: contiguous runs of executed ticks per component
 *    (gaps up to mergeGap cycles are coalesced to bound event count);
 *  - counter tracks: registered samplers evaluated every
 *    counterInterval executed cycles and at fast-forward boundaries;
 *  - registry snapshots: StatsRegistry::snapshot() paced at
 *    options().statsInterval cycles.
 *
 * The tracer only reads state through const accessors; it never calls
 * into components.
 */
class SystemTracer : public KernelObserver
{
  public:
    /**
     * @param component_names Names in System registration order
     *        (index == bit position of the activity mask).
     * @param track_prefix Prepended to every track/counter name so
     *        multiple instrumented systems stay distinguishable.
     */
    SystemTracer(std::vector<std::string> component_names,
                 std::string track_prefix);

    /** Registers a sampled counter track (absolute value). */
    void addCounter(std::string name, std::function<double()> sample);

    /**
     * Registers a rate counter: emits (cur - prev) / elapsed cycles,
     * clamped at zero (stat resets between samples read as idle).
     */
    void addRateCounter(std::string name,
                        std::function<double()> cumulative);

    // KernelObserver interface.
    void cycleExecuted(Tick now, std::uint64_t active_mask) override;
    void fastForwarded(Tick from, Tick to) override;

    /** Closes all open activity spans at @p now (phase boundaries). */
    void flush(Tick now);

  private:
    /** Activity gaps up to this many cycles merge into one span. */
    static constexpr Tick mergeGap = 32;

    struct Span
    {
        bool open = false;
        Tick start = 0;
        Tick lastActive = 0;
    };

    struct Counter
    {
        std::string name;
        std::function<double()> sample;
        bool rate = false;
        double prev = 0.0;
        Tick prevTick = 0;
    };

    void sampleCounters(Tick now);
    void maybeSample(Tick now);

    std::vector<std::string> names_;
    std::string prefix_;
    std::vector<Span> spans_;
    std::vector<Counter> counters_;
    Tick counterInterval_ = 0;
    Tick nextSample_ = 0;
    Tick snapshotInterval_ = 0;
    Tick nextSnapshot_ = 0;
};

/**
 * RAII telemetry session for bench/example main()s:
 *
 *   int main(int argc, char **argv) {
 *       telemetry::Session session(argc, argv);  // parses CLI + env
 *       ... build labs, run ...
 *       session.finish();  // export stats JSON, close the trace
 *   }
 *
 * finish() is idempotent and also runs from the destructor; calling
 * it explicitly before the simulation objects go out of scope exports
 * live values instead of retired ones (both are complete).
 */
class Session
{
  public:
    /** Parses environment and argv (stripping telemetry arguments). */
    Session(int &argc, char **argv);

    /** Environment-only variant for argument-less binaries. */
    explicit Session(std::string binary_name);

    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** Metadata exported with the stats JSON; fill in what you know. */
    RunMetadata &meta() { return meta_; }

    /** Exports the stats JSON (if requested) and closes the trace. */
    void finish();

  private:
    void start();

    RunMetadata meta_;
    double startSeconds_ = 0.0;
    bool finished_ = false;
};

} // namespace hwgc::telemetry

#endif // HWGC_SIM_TELEMETRY_H
