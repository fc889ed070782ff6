/**
 * @file
 * Shared formatting and aggregation helpers for the per-figure bench
 * binaries. Every bench prints the rows/series its paper figure
 * reports, in plain text, so EXPERIMENTS.md can quote them directly.
 */

#ifndef HWGC_BENCH_BENCH_UTIL_H
#define HWGC_BENCH_BENCH_UTIL_H

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.h"
#include "sim/profiler.h"
#include "sim/telemetry.h"
#include "sim/types.h"
#include "workload/quantile.h"

namespace hwgc::bench
{

/** Milliseconds of simulated time for a cycle count (1 GHz clock). */
inline double
msFromCycles(double cycles)
{
    return cycles / 1e6;
}

// Shared quantile helpers (range-clamped: p99.9 of fewer than 1000
// samples is the max sample, never an out-of-range read). Benches
// report percentiles through these, not ad-hoc index arithmetic.
using workload::nearestRankSorted;
using workload::quantile;
using workload::quantileSorted;

/** Geometric mean of a list of ratios. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (const double v : values) {
        log_sum += std::log(v);
    }
    return std::exp(log_sum / double(values.size()));
}

/** Prints a banner naming the figure being reproduced. */
inline void
banner(const char *figure, const char *claim)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", figure);
    std::printf("  paper: %s\n", claim);
    std::printf("==============================================================\n");
}

/** Wall-clock stopwatch for host-side simulation-speed reporting. */
class HostTimer
{
  public:
    HostTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Seconds elapsed since construction (or the last restart()). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    void restart() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Emits one JSON line of simulation-speed reporting — host wall-clock
 * and simulated-cycles-per-host-second (MIPS-style) — so the perf
 * trajectory (BENCH_*.json) can track kernel speed across PRs.
 */
inline void
printKernelSpeed(const char *bench, const char *kernel,
                 double host_seconds, double sim_cycles)
{
    const double rate =
        host_seconds > 0.0 ? sim_cycles / host_seconds : 0.0;
    // Bench and kernel labels can carry user-supplied text (config
    // summaries); escape them so the line stays JSON.
    std::printf("{\"bench\":\"%s\",\"kernel\":\"%s\","
                "\"host_seconds\":%.6f,\"sim_cycles\":%.0f,"
                "\"cycles_per_host_second\":%.0f}\n",
                telemetry::jsonEscape(bench).c_str(),
                telemetry::jsonEscape(kernel).c_str(),
                host_seconds, sim_cycles, rate);
}

/**
 * Canonical per-bench perf record, written as BENCH_<name>.json into
 * the --bench-out=/HWGC_BENCH_OUT directory (no-op when unset):
 *
 *     { "bench": ..., "schema": 1, "host_seconds": ...,
 *       "metrics": { "<label>": <int>, ... },
 *       "attribution": { "<phase>": { "<class>": <cycles> } } }
 *
 * Metrics are deterministic integers (simulated cycles, counts) and
 * scripts/bench_compare.py compares them *exactly* against the
 * committed bench/baseline/ record; host_seconds is the machine's
 * wall clock and only ever produces a warning. Attribution carries
 * the profiler's per-phase cycle-class totals, which are equally
 * deterministic — a perf change shows up in review as a readable
 * diff of where the cycles moved.
 */
class BenchRecord
{
  public:
    explicit BenchRecord(std::string name) : name_(std::move(name)) {}

    /** Adds one deterministic integer metric (exact-compared). */
    void
    metric(const std::string &label, std::uint64_t value)
    {
        metrics_.emplace_back(label, value);
    }

    /**
     * Accumulates @p prof's per-phase class totals into the record.
     * Callable once per GcLab/device before it is destroyed; repeated
     * calls sum, so a suite-wide record aggregates all its runs.
     */
    void
    addAttribution(const telemetry::CycleProfiler &prof)
    {
        for (const auto &phase : prof.phases()) {
            auto &classes = phaseSlot(phase);
            for (std::size_t c = 0; c < numCycleClasses; ++c) {
                const auto cc = CycleClass(c);
                const std::uint64_t v = prof.phaseAggregate(phase, cc);
                if (v != 0) {
                    classSlot(classes, cycleClassName(cc)) += v;
                }
            }
        }
    }

    /**
     * Writes BENCH_<name>.json. I/O errors are fatal with filename
     * and errno — a perf-trajectory record silently missing from the
     * output directory would defeat the regression harness.
     */
    void
    write(double host_seconds) const
    {
        const std::string &dir = telemetry::options().benchOut;
        if (dir.empty()) {
            return;
        }
        const std::string path = dir + "/BENCH_" + name_ + ".json";
        std::string text = "{\n  \"bench\": \"" +
                           telemetry::jsonEscape(name_) +
                           "\",\n  \"schema\": 1,\n";
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6f", host_seconds);
        text += std::string("  \"host_seconds\": ") + buf + ",\n";
        text += "  \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            text += i ? ",\n    \"" : "\n    \"";
            text += telemetry::jsonEscape(metrics_[i].first) + "\": ";
            std::snprintf(buf, sizeof buf, "%llu",
                          (unsigned long long)metrics_[i].second);
            text += buf;
        }
        text += metrics_.empty() ? "},\n" : "\n  },\n";
        text += "  \"attribution\": {";
        for (std::size_t p = 0; p < attribution_.size(); ++p) {
            text += p ? ",\n    \"" : "\n    \"";
            text += telemetry::jsonEscape(attribution_[p].first) +
                    "\": {";
            const auto &classes = attribution_[p].second;
            for (std::size_t c = 0; c < classes.size(); ++c) {
                text += c ? ", \"" : " \"";
                text += classes[c].first + "\": ";
                std::snprintf(buf, sizeof buf, "%llu",
                              (unsigned long long)classes[c].second);
                text += buf;
            }
            text += " }";
        }
        text += attribution_.empty() ? "}\n}\n" : "\n  }\n}\n";

        std::FILE *f = std::fopen(path.c_str(), "w");
        fatal_if(f == nullptr, "bench: cannot write '%s': %s",
                 path.c_str(), std::strerror(errno));
        const std::size_t written =
            std::fwrite(text.data(), 1, text.size(), f);
        const bool bad = written != text.size() ||
                         std::fflush(f) != 0 || std::ferror(f) != 0;
        const int close_err = std::fclose(f);
        fatal_if(bad || close_err != 0, "bench: error writing '%s': %s",
                 path.c_str(), std::strerror(errno));
        std::printf("bench record: %s\n", path.c_str());
    }

  private:
    using ClassTotals =
        std::vector<std::pair<std::string, std::uint64_t>>;

    ClassTotals &
    phaseSlot(const std::string &phase)
    {
        for (auto &entry : attribution_) {
            if (entry.first == phase) {
                return entry.second;
            }
        }
        attribution_.emplace_back(phase, ClassTotals{});
        return attribution_.back().second;
    }

    static std::uint64_t &
    classSlot(ClassTotals &classes, const std::string &name)
    {
        for (auto &entry : classes) {
            if (entry.first == name) {
                return entry.second;
            }
        }
        classes.emplace_back(name, 0);
        return classes.back().second;
    }

    std::string name_;
    std::vector<std::pair<std::string, std::uint64_t>> metrics_;
    std::vector<std::pair<std::string, ClassTotals>> attribution_;
};

/**
 * Warmup-reuse hook: if --checkpoint-in=/HWGC_CHECKPOINT_IN names a
 * checkpoint, restores it into @p device and returns true — the
 * caller can then skip re-simulating whatever the checkpoint already
 * covers (warmup pauses, a long mark prefix). Pairs with
 * --checkpoint-out=, which makes the device write a checkpoint after
 * every completed pause (or at --checkpoint-at=<cycle>).
 */
template <typename Device>
inline bool
restoreCheckpointIfRequested(Device &device)
{
    const std::string &path = telemetry::options().checkpointIn;
    if (path.empty()) {
        return false;
    }
    device.restoreCheckpoint(path);
    return true;
}

/** Prints one row of a two-column-per-engine table. */
inline void
row(const std::string &label, double a, double b,
    const char *unit = "ms")
{
    std::printf("  %-10s %10.3f %-4s %10.3f %-4s  (ratio %5.2fx)\n",
                label.c_str(), a, unit, b, unit, b != 0.0 ? a / b : 0.0);
}

} // namespace hwgc::bench

#endif // HWGC_BENCH_BENCH_UTIL_H
