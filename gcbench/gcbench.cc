/**
 * @file
 * The repo benchmark: runs one workload through the library's
 * public layer calls, from one process on one thread, with the
 * default event kernel, checks the answers and prints every metric by
 * name with its unit. gcbench/run.py builds it and is the command
 * BENCHMARK.json names; METRICS.md maps the metrics to the layers.
 *
 *   gcbench --workload W --seed N --seconds S --trace 0|1
 *           [--spans-out PATH]
 *   gcbench --anchor      full-numGCs lab-dacapo totals at the
 *                         default seed, for comparison against
 *                         bench/baseline/BENCH_fig15_mark_sweep.json
 *
 * Every workload is a closed loop with one caller: a round sets up
 * its heaps and devices, then runs its GC pauses back to back, each
 * starting after the previous one finished. Rounds repeat until the
 * measuring time is spent; host times are medians over rounds, and
 * every simulated count must repeat exactly from round to round.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/hwgc_device.h"
#include "cpu/core_model.h"
#include "driver/fleet.h"
#include "gc/sw_collector.h"
#include "gc/verifier.h"
#include "gcbench_lib.h"
#include "mem/dram.h"
#include "mem/ideal_mem.h"
#include "workload/dacapo.h"
#include "workload/latency.h"

namespace gcbench
{
namespace
{

using namespace hwgc;

/** Whether a timed call counts toward wall_s. */
enum class Kind
{
    Timed, //!< One of the workload's timed calls.
    Other, //!< Set-up (setup_s), or the benchmark's own structure and
           //!< checks.
};

/** Times calls into the layers and, in a traced round, keeps spans. */
class Recorder
{
  public:
    Recorder() : t0_(std::chrono::steady_clock::now()) {}

    /** Starts a round; @p traced selects span recording. */
    void
    beginRound(bool traced)
    {
        traced_ = traced;
        spans_.clear();
        open_.clear();
        seconds_.clear();
        wall_ = 0.0;
    }

    /** Runs @p f as the call @p name of layer @p layer; returns its
     *  host seconds. */
    double
    time(const char *name, const char *layer, Kind kind,
         const std::function<void()> &f)
    {
        int idx = -1;
        const double start = now();
        if (traced_) {
            idx = int(spans_.size());
            spans_.push_back({name, layer, start, start,
                              open_.empty() ? -1 : open_.back(), pause_});
            open_.push_back(idx);
        }
        f();
        const double end = now();
        if (traced_) {
            spans_[std::size_t(idx)].end = end;
            open_.pop_back();
        }
        seconds_[name] += end - start;
        if (kind == Kind::Timed) {
            wall_ += end - start;
        }
        return end - start;
    }

    void setPause(unsigned id) { pause_ = id; }
    bool traced() const { return traced_; }
    double now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0_)
            .count();
    }

    const std::map<std::string, double> &seconds() const
    {
        return seconds_;
    }
    double wall() const { return wall_; }
    std::vector<Span> takeSpans() { return std::move(spans_); }

  private:
    std::chrono::steady_clock::time_point t0_;
    bool traced_ = false;
    unsigned pause_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> seconds_;
    double wall_ = 0.0;
};

/**
 * Counts tick() dispatches per component and forwards every callback
 * to the observer installed before it (the device's profiler, when
 * on). In event mode active_mask is exactly the set of components
 * that ticked, so the counts are dispatches, not busy cycles.
 */
class TickCounter : public KernelObserver
{
  public:
    explicit TickCounter(System &sys)
        : sys_(sys), chain_(sys.observer()),
          ticks_(sys.components().size(), 0)
    {
        sys_.setObserver(this);
    }

    ~TickCounter() override
    {
        if (sys_.observer() == this) {
            sys_.setObserver(chain_);
        }
    }

    TickCounter(const TickCounter &) = delete;
    TickCounter &operator=(const TickCounter &) = delete;

    void
    cycleExecuted(Tick now, std::uint64_t active_mask) override
    {
        for (std::uint64_t m = active_mask; m != 0; m &= m - 1) {
            ++ticks_[std::size_t(__builtin_ctzll(m))];
        }
        if (chain_ != nullptr) {
            chain_->cycleExecuted(now, active_mask);
        }
    }

    void
    fastForwarded(Tick from, Tick to) override
    {
        if (chain_ != nullptr) {
            chain_->fastForwarded(from, to);
        }
    }

    /** Adds the counts under component names, summing fleet devices
     *  ("hwgc0.marker" and "hwgc1.marker" both count as "marker"). */
    void
    addTo(std::map<std::string, double> &out) const
    {
        for (std::size_t i = 0; i < ticks_.size(); ++i) {
            std::string name = sys_.components()[i]->name();
            if (name.rfind("hwgc", 0) == 0) {
                const std::size_t dot = name.find('.');
                if (dot != std::string::npos) {
                    name = name.substr(dot + 1);
                }
            }
            out[name] += double(ticks_[i]);
        }
    }

  private:
    System &sys_;
    KernelObserver *chain_;
    std::vector<std::uint64_t> ticks_;
};

/** One round's measurements. */
struct RoundResult
{
    double setupSeconds = 0.0;
    double wallSeconds = 0.0;
    double simHostSeconds = 0.0; //!< In runMark/runSweep or run().
    std::map<std::string, double> callSeconds;
    /** Simulated values; every round must repeat them exactly. */
    std::map<std::string, double> sim;
    std::map<std::string, double> ticks; //!< Traced rounds only.
    std::vector<Span> spans;             //!< Traced rounds only.
    unsigned attempted = 0;
    unsigned failed = 0;
};

/**
 * Request stream of a latency-sensitive service tenant, as in
 * bench_fleet_latency: 50k QPS of ~5 us requests. Its SLO is tighter
 * than that bench's 10 ms: an unqueued avrora pause (~3.2 ms) already
 * misses 2 ms, so svc_slo_miss_share measures how long service pauses
 * last on every seed instead of counting a rare event that is 0 on
 * most seeds.
 */
constexpr double svcSloMs = 2.0;

workload::LatencyParams
svcLatency(unsigned tenant, std::uint64_t seed)
{
    workload::LatencyParams p;
    p.totalQueries = 250'000;
    p.issueIntervalMs = 0.02;
    p.serviceMeanMs = 0.005;
    p.serviceJitterMs = 0.005;
    p.seed = mixSeed(7 + tenant, seed);
    return p;
}

/** Adds a service tenant's replayed latencies to the round. */
void
addSvcLatency(RoundResult &out, const workload::LatencyResult &lat,
              double p99_ms, double slo_ms)
{
    double misses = 0.0;
    for (const auto &s : lat.samples) {
        misses += s.latencyMs > slo_ms ? 1.0 : 0.0;
    }
    out.sim["svc_p99_ms"] = std::max(out.sim["svc_p99_ms"], p99_ms);
    out.sim["svc_slo_misses"] += misses;
    out.sim["svc_requests"] += double(lat.samples.size());
}

/** Adds a device's memory-side and unit counters. */
void
addDeviceCounters(RoundResult &out, core::HwgcDevice &dev,
                  bool memory_side)
{
    out.sim["core.objects_marked"] += double(dev.marker().newlyMarked());
    out.sim["core.tracer_requests"] +=
        double(dev.tracer().requestsIssued());
    out.sim["core.spilled_entries"] +=
        double(dev.markQueue().entriesSpilled());
    out.sim["mem.ptw_walks"] += double(dev.ptw().walksStarted());
    out.sim["mem.tlb_misses"] += double(dev.marker().tlb().misses() +
                                        dev.tracer().tlb().misses());
    if (!memory_side) {
        return;
    }
    out.sim["mem.bus_busy_cycles"] += double(dev.bus().busBusyCycles());
    out.sim["mem.bus_cycles"] += double(dev.bus().observedCycles());
    if (const mem::Dram *dram = dev.dram()) {
        out.sim["mem.dram_reads"] += double(dram->numReads().value());
        out.sim["mem.dram_writes"] += double(dram->numWrites().value());
        out.sim["mem.dram_row_hits"] += double(dram->rowHits().value());
        out.sim["mem.dram_row_misses"] +=
            double(dram->rowMisses().value());
    }
}

/** Every cycle class the profiler attributes, in enum order. */
constexpr CycleClass allClasses[] = {
    CycleClass::Busy,         CycleClass::StallDownstreamFull,
    CycleClass::StallUpstreamEmpty, CycleClass::StallDram,
    CycleClass::StallBus,     CycleClass::StallPtw,
    CycleClass::StallMarkbit, CycleClass::StallBarrier,
    CycleClass::Idle,
};

/**
 * One profile's lab, assembled as driver::GcLab assembles it, with
 * each pause making GcLab::runOnePause's calls in the same order so
 * that every call is timed on its own. Without the SW collector it
 * is the HW unit alone (hw-chain).
 */
class Lab
{
  public:
    Lab(const workload::BenchmarkProfile &profile, bool run_sw,
        bool splice_churn, Recorder &rec)
        : profile_(profile), spliceChurn_(splice_churn),
          churnRng_(splitmix64(profile.graph.seed))
    {
        rec.time("runtime.init", "runtime", Kind::Other, [&] {
            heap_ = std::make_unique<runtime::Heap>(mem_);
        });
        builder_ = std::make_unique<workload::GraphBuilder>(
            *heap_, profile_.graph);
        rec.time("workload.build", "workload", Kind::Other,
                 [&] { builder_->build(); });
        if (run_sw) {
            rec.time("mem.init", "mem", Kind::Other, [&] {
                if (config_.memModel == core::MemModel::Ddr3) {
                    cpuMemory_ = std::make_unique<mem::Dram>(
                        "cpu.dram", config_.dram, mem_);
                } else {
                    cpuMemory_ = std::make_unique<mem::IdealMem>(
                        "cpu.idealmem", config_.ideal, mem_);
                }
            });
            rec.time("gc.init", "gc", Kind::Other, [&] {
                core_ = std::make_unique<cpu::CoreModel>(
                    "rocket", cpu::CoreParams{}, mem_, heap_->pageTable(),
                    *cpuMemory_);
                sw_ = std::make_unique<gc::SwCollector>(*heap_, *core_);
            });
        }
        rec.time("core.init", "core", Kind::Other, [&] {
            device_ = std::make_unique<core::HwgcDevice>(
                mem_, heap_->pageTable(), config_);
        });
    }

    core::HwgcDevice &device() { return *device_; }

    /** One GC pause; returns its HW mark + sweep cycles. */
    Tick
    pause(Recorder &rec, RoundResult &out)
    {
        ++out.attempted;
        bool ok = true;
        auto check = [&](bool cond, const char *what) {
            if (!cond) {
                std::fprintf(stderr, "gcbench: %s: %s failed\n",
                             profile_.name.c_str(), what);
                ok = false;
            }
        };
        // Checks one collector's result and returns its marked set
        // (count and digest) for the HW/SW comparison.
        struct MarkedSet
        {
            std::uint64_t count = 0;
            std::uint64_t digest = 0;
        };
        auto verify = [&](const char *who) {
            MarkedSet set;
            rec.time("check", "bench", Kind::Other, [&] {
                const auto marks = gc::verifyMarks(*heap_);
                check(marks.ok, (std::string(who) + " mark check").c_str());
                const auto swept = gc::verifySweptHeap(*heap_);
                check(swept.ok,
                      (std::string(who) + " sweep check").c_str());
                set = {heap_->countMarked(), gc::markSetDigest(*heap_)};
            });
            return set;
        };

        rec.time("runtime.prep", "runtime", Kind::Timed, [&] {
            heap_->clearAllMarks();
            heap_->publishRoots();
        });

        gc::GcResult sw;
        MarkedSet sw_set;
        if (sw_) {
            mem::PhysMem::Snapshot snap;
            rec.time("mem.snapshot", "mem", Kind::Timed,
                     [&] { snap = mem_.snapshot(); });
            rec.time("gc.sw_collect", "gc", Kind::Timed, [&] {
                core_->resetCycles();
                core_->resetStats();
                core_->flushMicroarchState();
                cpuMemory_->resetStats();
                cpuMemory_->resetTimingState();
                sw = sw_->collect();
            });
            out.sim["gc.sw_gc_cycles"] +=
                double(sw.markCycles + sw.sweepCycles);
            out.sim[profile_.name + ".sw_mark_cycles"] +=
                double(sw.markCycles);
            out.sim[profile_.name + ".sw_sweep_cycles"] +=
                double(sw.sweepCycles);
            sw_set = verify("SW");
            check(sw_set.count == sw.objectsMarked, "SW objectsMarked");
            rec.time("mem.snapshot", "mem", Kind::Timed,
                     [&] { mem_.restore(snap); });
        }

        rec.time("core.configure", "core", Kind::Timed, [&] {
            device_->resetPhaseState();
            device_->resetStats();
            device_->configure(*heap_);
        });
        core::HwPhaseResult mark, sweep;
        out.simHostSeconds +=
            rec.time("core.mark", "core", Kind::Timed,
                     [&] { mark = device_->runMark(); }) +
            rec.time("core.sweep", "core", Kind::Timed,
                     [&] { sweep = device_->runSweep(); });
        out.sim["hw_gc_cycles"] += double(mark.cycles + sweep.cycles);
        out.sim[profile_.name + ".hw_mark_cycles"] += double(mark.cycles);
        out.sim[profile_.name + ".hw_sweep_cycles"] +=
            double(sweep.cycles);
        addDeviceCounters(out, *device_, true);
        const MarkedSet hw_set = verify("HW");
        // The marker may count one object twice when two in-flight
        // reads see the same unmarked header (tests/test_hwgc.cc), so
        // its objectsMarked bounds the marked set from above; the two
        // collectors must agree on the set itself.
        check(mark.objectsMarked >= hw_set.count, "HW objectsMarked");
        if (sw_) {
            check(hw_set.count == sw_set.count &&
                      hw_set.digest == sw_set.digest,
                  "HW/SW marked-set agreement");
            check(sweep.cellsFreed == sw.cellsFreed,
                  "HW/SW cellsFreed agreement");
        }

        rec.time("runtime.prep", "runtime", Kind::Timed,
                 [&] { heap_->onAfterSweep(); });
        rec.time("workload.mutate", "workload", Kind::Timed, [&] {
            if (spliceChurn_) {
                spliceChain(profile_.churnPerGC);
            } else {
                builder_->mutate(profile_.churnPerGC);
            }
        });
        out.failed += ok ? 0 : 1;
        return mark.cycles + sweep.cycles;
    }

    /** Adds the device's kernel and profiler totals to @p out. */
    void
    finish(RoundResult &out)
    {
        System &sys = device_->system();
        out.sim["sim_cycles"] += double(sys.now());
        out.sim["executed_cycles"] += double(sys.executedCycles());
        if (telemetry::CycleProfiler *prof = device_->profiler()) {
            for (const char *phase : {"mark", "sweep"}) {
                for (const CycleClass c : allClasses) {
                    out.sim[std::string("core.") + phase + "." +
                            cycleClassName(c) + "_cycles"] +=
                        double(prof->phaseAggregate(phase, c));
                }
            }
        }
    }

  private:
    /**
     * Churn that keeps a single chain a single chain: replaces a
     * @p churn fraction of its objects with fresh allocations spliced
     * into their place. The replaced objects become garbage, and the
     * fresh ones land in the cells the last sweep freed, so the chain
     * scatters across the heap as pauses go by. GraphBuilder::mutate
     * would cut the chain short instead.
     */
    void
    spliceChain(double churn)
    {
        std::vector<runtime::ObjRef> chain;
        std::unordered_set<runtime::ObjRef> seen;
        for (runtime::ObjRef obj = heap_->roots().at(0);
             obj != runtime::nullRef && seen.insert(obj).second;
             obj = heap_->getRef(obj, 0)) {
            chain.push_back(obj);
        }
        const auto replace =
            std::uint64_t(double(chain.size()) * churn);
        for (std::uint64_t i = 0; i < replace && chain.size() > 2; ++i) {
            const std::size_t at = 1 + churnRng_.below(chain.size() - 2);
            const runtime::ObjRef victim = chain[at];
            const runtime::ObjRef fresh = heap_->allocate(
                1, std::uint32_t(profile_.graph.avgPayloadWords));
            heap_->setRef(fresh, 0, heap_->getRef(victim, 0));
            heap_->setRef(chain[at - 1], 0, fresh);
            chain[at] = fresh;
        }
        heap_->publishRoots();
    }

    workload::BenchmarkProfile profile_;
    bool spliceChurn_;
    Rng churnRng_;
    core::HwgcConfig config_;

    mem::PhysMem mem_;
    std::unique_ptr<runtime::Heap> heap_;
    std::unique_ptr<workload::GraphBuilder> builder_;
    std::unique_ptr<mem::MemDevice> cpuMemory_;
    std::unique_ptr<cpu::CoreModel> core_;
    std::unique_ptr<gc::SwCollector> sw_;
    std::unique_ptr<core::HwgcDevice> device_;
};

/** A DaCapo profile with the workload seed mixed into its graph. */
workload::BenchmarkProfile
seededProfile(const std::string &name, std::uint64_t seed)
{
    workload::BenchmarkProfile p = workload::dacapoProfile(name);
    p.graph.seed = mixSeed(p.graph.seed, seed);
    return p;
}

/**
 * Runs @p pauses pauses on each profile's lab, one profile after the
 * other, and replays a service tenant's requests over each profile's
 * measured pause timeline (the paper's Fig 1b method).
 */
void
runLabs(const std::vector<std::pair<workload::BenchmarkProfile,
                                    unsigned>> &plan,
        bool run_sw, bool splice_churn, std::uint64_t seed,
        Recorder &rec, RoundResult &out)
{
    unsigned pause_id = 0;
    unsigned tenant = 0;
    for (const auto &[profile, pauses] : plan) {
        std::unique_ptr<Lab> lab;
        out.setupSeconds += rec.time("setup", "bench", Kind::Other, [&] {
            lab = std::make_unique<Lab>(profile, run_sw, splice_churn, rec);
        });
        std::optional<TickCounter> ticks;
        if (rec.traced()) {
            ticks.emplace(lab->device().system());
        }
        std::vector<double> pause_ms;
        for (unsigned i = 0; i < pauses; ++i) {
            rec.setPause(++pause_id);
            rec.time("pause", "bench", Kind::Other, [&] {
                pause_ms.push_back(double(lab->pause(rec, out)) / 1e6);
            });
        }
        rec.setPause(0);
        lab->finish(out);
        if (ticks) {
            ticks->addTo(out.ticks);
        }
        workload::LatencyResult lat;
        double p99 = 0.0;
        rec.time("workload.replay", "workload", Kind::Timed, [&] {
            lat = workload::runLatencyExperiment(
                svcLatency(tenant, seed), pause_ms,
                profile.mutatorMsPerGC);
            p99 = lat.percentile(0.99);
        });
        addSvcLatency(out, lat, p99, svcSloMs);
        ++tenant;
    }
}

/** lab-dacapo pauses per profile and round (numGCs is 8 and 5). */
constexpr unsigned labLuindexPauses = 1;
constexpr unsigned labPmdPauses = 1;

void
roundLabDacapo(std::uint64_t seed, Recorder &rec, RoundResult &out)
{
    // Profiled as bench_fig15_mark_sweep ships it.
    telemetry::options().profile = true;
    runLabs({{seededProfile("luindex", seed), labLuindexPauses},
             {seededProfile("pmd", seed), labPmdPauses}},
            true, false, seed, rec, out);
}

/** bench_micro's latency shape (one root, one reference per object,
 *  no sharing), scaled to 200k objects. */
workload::BenchmarkProfile
chainProfile(std::uint64_t seed)
{
    workload::BenchmarkProfile p;
    p.name = "chain";
    p.graph.liveObjects = 200'000;
    p.graph.garbageObjects = 20'000;
    p.graph.numRoots = 1;
    p.graph.avgRefs = 1.0;
    p.graph.maxRefs = 1;
    p.graph.minRefs = 1;
    p.graph.arrayFraction = 0.0;
    p.graph.shareProb = 0.0;
    p.graph.localityBias = 0.0;
    p.graph.seed = mixSeed(17, seed);
    p.churnPerGC = 0.3;
    p.mutatorMsPerGC = 100.0;
    return p;
}

constexpr unsigned chainPauses = 2;

void
roundHwChain(std::uint64_t seed, Recorder &rec, RoundResult &out)
{
    telemetry::options().profile = false;
    runLabs({{chainProfile(seed), chainPauses}}, false, true, seed, rec,
            out);
}

/** fleet-shared service horizon per tenant and round. */
constexpr unsigned fleetGcsPerTenant = 1;

/**
 * bench_fleet_latency's tenant mix at four tenants: even slots are
 * avrora-shaped services, odd slots pmd- and xalan-shaped batch jobs.
 * The workload seed reaches the heap graphs and request streams but
 * not the trigger-jitter seeds: the trigger schedule alone decides
 * which service pause queues behind a batch mark, and mixing the seed
 * into it made the fleet's figures vary by a third across seeds.
 */
/** Batch heaps are this many times smaller than their profiles, so
 *  that a fleet round stays a few seconds long. */
constexpr std::uint64_t batchHeapDivisor = 3;

std::vector<driver::TenantParams>
fleetTenants(std::uint64_t seed)
{
    const auto svc_shape = workload::dacapoProfile("avrora");
    const workload::BenchmarkProfile batch_shapes[2] = {
        workload::dacapoProfile("pmd"),
        workload::dacapoProfile("xalan"),
    };
    std::vector<driver::TenantParams> mix;
    for (unsigned t = 0; t < 4; ++t) {
        driver::TenantParams p;
        const bool svc = t % 2 == 0;
        const auto &shape = svc ? svc_shape : batch_shapes[(t / 2) % 2];
        p.graph = shape.graph;
        if (!svc) {
            p.graph.liveObjects /= batchHeapDivisor;
            p.graph.garbageObjects /= batchHeapDivisor;
        }
        p.graph.seed = mixSeed(shape.graph.seed + 7919 * t, seed);
        p.churnPerGC = shape.churnPerGC;
        p.seed = 100 + t;
        if (svc) {
            p.name = "svc" + std::to_string(t);
            p.gcPeriodCycles = 12'000'000;
            p.deadlineMs = 5.0;
            p.sloMs = svcSloMs;
            p.latency = svcLatency(t, seed);
        } else {
            p.name = "batch" + std::to_string(t);
            p.gcPeriodCycles = 30'000'000;
            p.deadlineMs = 60.0;
            p.sloMs = 200.0;
            p.latency.issueIntervalMs = 0.2;
            p.latency.serviceMeanMs = 0.1;
            p.latency.serviceJitterMs = 0.1;
            p.latency.totalQueries = 25'000;
            p.latency.seed = mixSeed(7 + t, seed);
        }
        mix.push_back(p);
    }
    return mix;
}

void
roundFleetShared(std::uint64_t seed, Recorder &rec, RoundResult &out)
{
    telemetry::options().profile = false;
    driver::FleetConfig config;
    config.devices = 2;
    config.policy = driver::GcPolicy::Deadline;
    config.gcsPerTenant = fleetGcsPerTenant;
    const auto tenants = fleetTenants(seed);

    std::unique_ptr<driver::FleetLab> lab;
    out.setupSeconds += rec.time("setup", "bench", Kind::Other, [&] {
        rec.time("workload.build", "workload", Kind::Other, [&] {
            lab = std::make_unique<driver::FleetLab>(config, tenants);
        });
    });
    std::optional<TickCounter> ticks;
    if (rec.traced()) {
        ticks.emplace(lab->system());
    }
    out.simHostSeconds += rec.time("driver.fleet_run", "driver",
                                   Kind::Timed, [&] { lab->run(); });
    const std::vector<driver::TenantStats> *stats = nullptr;
    rec.time("workload.replay", "workload", Kind::Timed,
             [&] { stats = &lab->measure(); });

    for (std::size_t t = 0; t < stats->size(); ++t) {
        const driver::TenantStats &s = (*stats)[t];
        out.attempted += fleetGcsPerTenant;
        if (s.gcs < fleetGcsPerTenant) {
            std::fprintf(stderr, "gcbench: tenant %s completed %u of %u "
                         "collections\n", s.name.c_str(), s.gcs,
                         fleetGcsPerTenant);
            out.failed += fleetGcsPerTenant - s.gcs;
        }
        out.sim["hw_gc_cycles"] += double(s.stwCycles);
        out.sim["driver.stw_cycles"] += double(s.stwCycles);
        out.sim["driver.queue_cycles"] += double(s.queueCycles);
        if (tenants[t].name.rfind("svc", 0) == 0) {
            addSvcLatency(out, s.latency, s.p99Ms, tenants[t].sloMs);
        }
    }
    for (unsigned d = 0; d < lab->numDevices(); ++d) {
        addDeviceCounters(out, lab->device(d), d == 0);
    }
    out.sim["sim_cycles"] = double(lab->now());
    out.sim["executed_cycles"] = double(lab->system().executedCycles());
    if (ticks) {
        ticks->addTo(out.ticks);
    }
}

using RoundFn = void (*)(std::uint64_t, Recorder &, RoundResult &);

RoundFn
roundFor(const std::string &workload)
{
    if (workload == "lab-dacapo") {
        return roundLabDacapo;
    }
    if (workload == "hw-chain") {
        return roundHwChain;
    }
    if (workload == "fleet-shared") {
        return roundFleetShared;
    }
    return nullptr;
}

RoundResult
runRound(RoundFn fn, std::uint64_t seed, bool traced, Recorder &rec)
{
    RoundResult out;
    rec.beginRound(traced);
    rec.time("round", "bench", Kind::Other, [&] { fn(seed, rec, out); });
    out.wallSeconds = rec.wall();
    out.callSeconds = rec.seconds();
    out.spans = rec.takeSpans();
    return out;
}

/** Accumulates "name": {"value": v, "unit": u} entries. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        std::printf("metric %-34s %.6g %s\n", name.c_str(), value, unit);
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        json_ += (json_.empty() ? "" : ", ");
        json_ += "\"" + name + "\": {\"value\": " + buf +
                 ", \"unit\": \"" + unit + "\"}";
    }

    const std::string &json() const { return json_; }

  private:
    std::string json_;
};

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

/** Median over @p rounds of @p get. */
double
medianOf(const std::vector<const RoundResult *> &rounds,
         const std::function<double(const RoundResult &)> &get)
{
    std::vector<double> v;
    for (const RoundResult *r : rounds) {
        v.push_back(get(*r));
    }
    return median(v);
}

void
endToEndMetrics(const std::vector<const RoundResult *> &rounds,
                const RoundResult &first, MetricSet &m)
{
    m.add("wall_s",
          medianOf(rounds, [](const RoundResult &r) {
              return r.wallSeconds;
          }),
          "s");
    m.add("setup_s",
          medianOf(rounds, [](const RoundResult &r) {
              return r.setupSeconds;
          }),
          "s");
    m.add("sim_mcycles_per_s",
          medianOf(rounds,
                   [](const RoundResult &r) {
                       return share(r.sim.at("sim_cycles"),
                                    r.simHostSeconds) / 1e6;
                   }),
          "Mcycles/s");
    m.add("peak_rss_mb", peakRssMiB(), "MiB");
    const auto &sim = first.sim;
    m.add("hw_gc_cycles", sim.at("hw_gc_cycles"), "cycles");
    m.add("svc_p99_ms", sim.at("svc_p99_ms"), "ms");
    m.add("svc_slo_miss_share",
          share(sim.at("svc_slo_misses"), sim.at("svc_requests")),
          "ratio");
}

/** Calls whose host time is reported on its own, as "<call>_s". */
const char *const timedCalls[] = {
    "workload.build", "workload.mutate", "workload.replay",
    "runtime.prep",   "mem.snapshot",    "gc.sw_collect",
    "core.mark",      "core.sweep",      "driver.fleet_run",
};

const char *const spanLayers[] = {
    "bench", "workload", "runtime", "mem", "gc", "core", "driver",
};

const char *const tickComponents[] = {
    "rootReader", "markQueue", "marker", "tracer", "reclamation",
    "reclamation.sweeper0", "reclamation.sweeper1", "ptw", "ptwcache",
    "bus", "dram",
};

void
perLayerMetrics(const std::vector<const RoundResult *> &plain,
                const std::vector<const RoundResult *> &traced,
                const RoundResult &first, unsigned attempted,
                unsigned failed, MetricSet &m)
{
    const auto &sim = first.sim;
    auto get = [&sim](const char *key) {
        const auto it = sim.find(key);
        return it == sim.end() ? 0.0 : it->second;
    };
    // Call times and ns per cycle come from the untraced rounds, free
    // of the tick counter's per-cycle call; spans and tick counts from
    // the traced ones.
    for (const char *call : timedCalls) {
        m.add(std::string(call) + "_s",
              medianOf(plain,
                       [call](const RoundResult &r) {
                           const auto it = r.callSeconds.find(call);
                           return it == r.callSeconds.end() ? 0.0
                                                            : it->second;
                       }),
              "s");
    }
    for (const char *layer : spanLayers) {
        m.add(std::string("self.") + layer + "_s",
              medianOf(traced,
                       [layer](const RoundResult &r) {
                           const auto self = layerSelfTimes(r.spans);
                           const auto it = self.find(layer);
                           return it == self.end() ? 0.0 : it->second;
                       }),
              "s");
    }

    m.add("mem.dram_reads", get("mem.dram_reads"), "count");
    m.add("mem.dram_writes", get("mem.dram_writes"), "count");
    m.add("mem.dram_row_hit_share",
          share(get("mem.dram_row_hits"),
                get("mem.dram_row_hits") + get("mem.dram_row_misses")),
          "ratio");
    m.add("mem.bus_busy_share",
          share(get("mem.bus_busy_cycles"), get("mem.bus_cycles")),
          "ratio");
    m.add("mem.ptw_walks", get("mem.ptw_walks"), "count");
    m.add("mem.tlb_misses", get("mem.tlb_misses"), "count");
    m.add("gc.sw_gc_cycles", get("gc.sw_gc_cycles"), "cycles");
    m.add("core.objects_marked", get("core.objects_marked"), "count");
    m.add("core.tracer_requests", get("core.tracer_requests"), "count");
    m.add("core.spilled_entries", get("core.spilled_entries"), "count");
    for (const char *phase : {"mark", "sweep"}) {
        for (const CycleClass c : allClasses) {
            const std::string key = std::string("core.") + phase + "." +
                cycleClassName(c) + "_cycles";
            m.add(key, get(key.c_str()), "cycles");
        }
    }

    const double executed = get("executed_cycles");
    m.add("sim.executed_share", share(executed, get("sim_cycles")),
          "ratio");
    m.add("sim.ns_per_executed_cycle",
          medianOf(plain,
                   [executed](const RoundResult &r) {
                       return share(r.simHostSeconds, executed) * 1e9;
                   }),
          "ns");
    const RoundResult &t0 = *traced.front();
    for (const char *comp : tickComponents) {
        const auto it = t0.ticks.find(comp);
        m.add(std::string("sim.ticks.") + comp,
              it == t0.ticks.end() ? 0.0 : it->second, "count");
    }
    double ticks = 0.0;
    for (const auto &[comp, n] : t0.ticks) {
        ticks += n;
        if (std::none_of(std::begin(tickComponents),
                         std::end(tickComponents),
                         [&](const char *known) { return comp == known; })) {
            std::fprintf(stderr, "gcbench: unlisted component %s ticked "
                         "%.0f times\n", comp.c_str(), n);
        }
    }
    m.add("sim.ticks_per_executed_cycle", share(ticks, executed),
          "count");

    m.add("driver.queue_cycles", get("driver.queue_cycles"), "cycles");
    m.add("driver.stw_cycles", get("driver.stw_cycles"), "cycles");

    const auto wall = [](const RoundResult &r) { return r.wallSeconds; };
    const double traced_wall = medianOf(traced, wall);
    const double plain_wall = medianOf(plain, wall);
    m.add("trace.wall_s", traced_wall, "s");
    m.add("trace.untraced_wall_s", plain_wall, "s");
    m.add("trace.overhead_share", share(traced_wall, plain_wall) - 1.0,
          "ratio");
    m.add("failed_share", share(failed, attempted), "ratio");
}

void
writeSpans(const std::string &path,
           const std::vector<const RoundResult *> &traced)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "gcbench: cannot write spans to %s\n",
                     path.c_str());
        return;
    }
    out << "[\n";
    bool first = true;
    for (std::size_t r = 0; r < traced.size(); ++r) {
        for (const Span &s : traced[r]->spans) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"round\": %zu, \"name\": \"%s\", "
                          "\"layer\": \"%s\", \"start_s\": %.9f, "
                          "\"end_s\": %.9f, \"parent\": %d, "
                          "\"pause\": %u}",
                          first ? "" : ",\n", r, s.name, s.layer,
                          s.start, s.end, s.parent, s.pause);
            out << buf;
            first = false;
        }
    }
    out << "\n]\n";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: gcbench --workload lab-dacapo|hw-chain|"
                 "fleet-shared --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n"
                 "       gcbench --anchor\n");
    return 2;
}

bool
parseU64(const char *text, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return errno == 0 && end != text && *end == '\0' && text[0] != '-';
}

/**
 * Full-numGCs lab-dacapo totals at the default seed. Profiling is
 * observational, so it is off here to halve the time; run.py compares
 * the totals with the committed fig15 baseline.
 */
int
anchor()
{
    Recorder rec;
    rec.beginRound(false);
    RoundResult out;
    telemetry::options().profile = false;
    std::vector<std::pair<workload::BenchmarkProfile, unsigned>> plan;
    for (const char *name : {"luindex", "pmd"}) {
        const auto p = seededProfile(name, defaultSeed);
        plan.emplace_back(p, p.numGCs);
    }
    runLabs(plan, true, false, defaultSeed, rec, out);
    std::string json;
    for (const char *name : {"luindex", "pmd"}) {
        for (const char *key : {"sw_mark_cycles", "sw_sweep_cycles",
                                "hw_mark_cycles", "hw_sweep_cycles"}) {
            const std::string label = std::string(name) + "." + key;
            char buf[128];
            std::snprintf(buf, sizeof(buf), "%s\"%s\": %.0f",
                          json.empty() ? "" : ", ", label.c_str(),
                          out.sim.at(label));
            json += buf;
        }
    }
    std::printf("{\"anchor\": {%s}, \"failed\": %u}\n", json.c_str(),
                out.failed);
    return out.failed == 0 ? 0 : 1;
}

} // namespace
} // namespace gcbench

int
main(int argc, char **argv)
{
    using namespace gcbench;
    std::string workload;
    std::string spans_out;
    std::uint64_t seed = defaultSeed, seconds = 0, trace = 0;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--anchor" && argc == 2) {
            return anchor();
        }
        if (i + 1 >= argc) {
            return usage();
        }
        const char *value = argv[++i];
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            have_seed = parseU64(value, seed);
        } else if (arg == "--seconds") {
            have_seconds = parseU64(value, seconds) && seconds > 0;
        } else if (arg == "--trace") {
            have_trace = parseU64(value, trace) && trace <= 1;
        } else if (arg == "--spans-out") {
            spans_out = value;
        } else {
            return usage();
        }
    }
    const RoundFn fn = roundFor(workload);
    if (fn == nullptr || !have_seed || !have_seconds || !have_trace) {
        return usage();
    }

    std::printf("{\"facts\": {\"nproc\": %u, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"kernel\": \"event\"}}\n",
                std::thread::hardware_concurrency(), GCBENCH_COMPILER,
                GCBENCH_BUILD_TYPE);

    // Every round builds its heaps afresh, so none is a warm-up. A
    // traced run alternates untraced and traced rounds, so the tracing
    // overhead is measured in one process on one input.
    Recorder rec;
    std::vector<RoundResult> rounds;
    std::vector<double> round_seconds;
    const std::size_t min_rounds = 2;
    const double start = rec.now();
    for (;;) {
        const bool traced = trace != 0 && rounds.size() % 2 == 1;
        const double t = rec.now();
        rounds.push_back(runRound(fn, seed, traced, rec));
        round_seconds.push_back(rec.now() - t);
        const RoundResult &r = rounds.back();
        std::printf("round %zu traced %d wall_s %.4f setup_s %.4f "
                    "sim_host_s %.4f\n", rounds.size() - 1, int(traced),
                    r.wallSeconds, r.setupSeconds, r.simHostSeconds);
        const double spent = rec.now() - start;
        if (rounds.size() >= min_rounds &&
            spent + median(round_seconds) > double(seconds)) {
            break;
        }
    }

    unsigned attempted = 0, failed = 0;
    bool repeats = true;
    std::vector<const RoundResult *> plain, traced;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        attempted += rounds[i].attempted;
        failed += rounds[i].failed;
        if (rounds[i].sim != rounds.front().sim) {
            std::fprintf(stderr, "gcbench: round %zu's simulated counts "
                         "differ from round 0's\n", i);
            repeats = false;
            ++failed;
        }
        (trace != 0 && i % 2 == 1 ? traced : plain).push_back(&rounds[i]);
    }
    std::printf("rounds %zu, pauses %u, failed %u\n", rounds.size(),
                attempted, failed);

    MetricSet m;
    if (trace == 0) {
        endToEndMetrics(plain, rounds.front(), m);
    } else {
        perLayerMetrics(plain, traced, rounds.front(), attempted, failed,
                        m);
        if (!spans_out.empty()) {
            writeSpans(spans_out, traced);
        }
    }
    const bool correct = failed == 0 && repeats;
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed,
                m.json().c_str());
    return 0;
}
