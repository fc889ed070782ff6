/**
 * @file
 * Fleet mode: several accelerator devices time-multiplexed across
 * many tenant heaps behind one shared interconnect and DRAM.
 *
 * The paper sizes the unit so "a single GC accelerator instance"
 * serves a process, and sketches the datacenter deployment in §VII:
 * context switching between processes, bandwidth throttling so GC
 * traffic "only use[s] residual bandwidth", and concurrent collection
 * to hide the mark phase. FleetLab composes those pieces into a
 * multi-tenant tail-latency service: each tenant owns a heap (a
 * disjoint stride of one shared PhysMem), a DaCapo-style profile and
 * a stochastic GC trigger process; a small array of devices shares
 * one Interconnect + memory device; a pluggable GcScheduler decides
 * dispatch order when demand exceeds devices; and per-tenant bus
 * budget groups pace each device at the bandwidth its running tenant
 * paid for.
 *
 * The service loop advances the one shared System in fixed quanta and
 * makes every driver-level decision (trigger, dispatch, phase
 * transition, completion) only at quantum boundaries. Decisions are
 * therefore pure functions of simulated state at deterministic
 * cycles, which keeps the whole fleet bit-identical across the
 * dense and event kernels — at the cost of quantum-resolution
 * timestamps on phase transitions (DESIGN.md §12).
 */

#ifndef HWGC_DRIVER_FLEET_H
#define HWGC_DRIVER_FLEET_H

#include <memory>
#include <string>
#include <vector>

#include "core/hwgc_device.h"
#include "driver/gc_scheduler.h"
#include "workload/graph_gen.h"
#include "workload/latency.h"

namespace hwgc::driver
{

/** One tenant: a heap, a workload, an SLO, and a bandwidth budget. */
struct TenantParams
{
    std::string name = "tenant";
    workload::GraphParams graph; //!< Heap shape (per-tenant seed!).
    double churnPerGC = 0.3;     //!< Live-set turnover between GCs.

    /** Mean cycles between GC triggers (heap-full events). */
    Tick gcPeriodCycles = 2'000'000;

    /**
     * SLO threshold for the tenant's request latencies: a post-run
     * sample above this many ms counts as a violation.
     */
    double sloMs = 5.0;

    /**
     * Deadline budget for the tenant's collections (EDF key): a
     * request triggered at T carries deadline T + deadlineMs. Tight
     * for latency-sensitive tenants, loose for batch.
     */
    double deadlineMs = 2.0;

    /**
     * Per-tenant bus bandwidth budget in bytes/cycle while one of the
     * fleet's devices collects this tenant (§VII bandwidth
     * throttling, per-group buckets). 0 = unpaced.
     */
    double paceBytesPerCycle = 0.0;

    /** Request process driven over the measured pause timeline. */
    workload::LatencyParams latency;

    std::uint64_t seed = 1; //!< Trigger-jitter RNG seed.
};

/** Fleet-wide configuration. */
struct FleetConfig
{
    core::HwgcConfig hwgc;     //!< Every device runs this config.
    runtime::HeapParams heap;  //!< Per-tenant heap shape (addrBase is
                               //!< assigned by the fleet).
    unsigned devices = 2;
    GcPolicy policy = GcPolicy::Fifo;
    Tick quantum = 1024;       //!< Scheduling-decision granularity.
    unsigned gcsPerTenant = 4; //!< Service horizon per tenant.

    /** Address stride between tenant heaps in the shared PhysMem. */
    std::uint64_t tenantStride = 2ULL << 30;
};

/** Per-tenant results of a completed fleet run. */
struct TenantStats
{
    std::string name;
    unsigned gcs = 0;
    Tick stwCycles = 0;   //!< Total stop-the-world cycles.
    Tick queueCycles = 0; //!< Trigger-to-dispatch waiting cycles.

    /** Stop-the-world windows on the fleet timeline, in ms. */
    std::vector<workload::PauseWindow> pausesMs;

    /** Filled by measure(). @{ */
    workload::LatencyResult latency;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    double maxMs = 0.0;
    unsigned sloViolations = 0;
    /** @} */
};

/** The fleet harness. */
class FleetLab
{
  public:
    FleetLab(const FleetConfig &config,
             const std::vector<TenantParams> &tenants);
    ~FleetLab();

    /** Services the fleet until every tenant completed its GCs. */
    void run();

    /**
     * run(), but hands control back once the shared clock reaches
     * @p stop_at (at a quantum boundary) — the checkpoint hook. The
     * split run is bit-identical to an uninterrupted one.
     */
    void runUntilCycle(Tick stop_at);

    /** True once every tenant completed gcsPerTenant collections. */
    bool done() const;

    /**
     * Replays each tenant's request process over its measured pause
     * timeline (tiled to the full issue horizon) and fills the
     * latency percentiles and SLO-violation counts. Call after run().
     */
    const std::vector<TenantStats> &measure();

    /** Per-tenant results so far (pause data valid during the run). */
    const std::vector<TenantStats> &stats() const { return stats_; }

    /** @name Component access @{ */
    System &system() { return sys_; }
    Tick now() const { return sys_.now(); }
    unsigned numDevices() const { return unsigned(devices_.size()); }
    unsigned numTenants() const { return unsigned(tenants_.size()); }
    core::HwgcDevice &device(unsigned i) { return *devices_[i].device; }
    runtime::Heap &heap(unsigned t) { return *tenants_[t].heap; }
    mem::Interconnect &bus() { return *bus_; }
    mem::MemDevice &memory() { return *memory_; }
    const GcScheduler &scheduler() const { return *scheduler_; }
    std::uint64_t totalGcs() const;
    /** @} */

    /**
     * @name Checkpointing (DESIGN.md §12)
     *
     * Captures the whole fleet at an inter-cycle boundary: driver
     * state (trigger schedule, pending queue, per-device assignment
     * and MMIO registers, pause windows), the shared kernel, every
     * component, every tenant's runtime heap view and builder RNG,
     * and the functional memory image once. Restore into an
     * identically configured FleetLab resumes bit-identically under
     * any kernel. Only legal between runUntilCycle() slices.
     * @{
     */
    void saveCheckpoint(checkpoint::Serializer &ser) const { ser(*this); }
    void restoreCheckpoint(checkpoint::Deserializer &des) { des(*this); }
    bool writeCheckpoint(const std::string &path) const;
    void restoreCheckpoint(const std::string &path);

    /** The checkpoint's chunks, in file order (sim/checkpoint.h). */
    template <class Ar> void fields(Ar &ar);
    /** @} */

    /** Configuration fingerprint embedded in fleet checkpoints. */
    std::string configSignature() const;

  private:
    static constexpr unsigned noTenant = ~0u;

    /** Per-tenant runtime state. */
    struct Tenant
    {
        TenantParams params;
        std::unique_ptr<runtime::Heap> heap;
        std::unique_ptr<workload::GraphBuilder> builder;
        Rng rng{1};
        Tick nextTriggerAt = 0;
        unsigned gcsDone = 0;
        bool queued = false;  //!< In the pending queue.
        bool running = false; //!< A device is collecting this heap.
        std::vector<std::pair<Tick, Tick>> pauseCycles;
    };

    /** Per-device runtime state. */
    struct Device
    {
        std::unique_ptr<core::HwgcDevice> device;
        unsigned firstClient = 0; //!< Bus client-id range [first,
        unsigned numClients = 0;  //!< first+num) of this device.
        unsigned tenant = noTenant;
        unsigned phase = 0; //!< 0 idle, 1 marking, 2 sweeping.
        Tick triggerAt = 0;
        Tick dispatchAt = 0;
        Tick sweepStartAt = 0;
    };

    /** One pass of driver decisions at the current cycle. */
    void pollCompletions();
    void enqueueTriggers();
    void dispatchIdle();

    void dispatch(Device &dev, const GcRequest &req);
    void completeGc(Device &dev);

    /** Earliest next trigger among unfinished, un-queued tenants. */
    Tick nextTriggerTime() const;

    /** True while any device has a phase in flight. */
    bool anyPhaseInFlight() const;

    /** Draws the next trigger gap for @p t (25% jitter). */
    Tick drawPeriod(Tenant &t);

    FleetConfig config_;
    std::unique_ptr<GcScheduler> scheduler_;

    mem::PhysMem mem_;
    System sys_;
    std::unique_ptr<mem::MemDevice> memory_;
    mem::Dram *dramPtr_ = nullptr;
    std::unique_ptr<mem::Interconnect> bus_;

    std::vector<Tenant> tenants_;
    std::vector<Device> devices_;
    std::vector<GcRequest> pending_; //!< Kept in trigger order.

    std::vector<TenantStats> stats_;
    bool measured_ = false;

    /** Shared bus/memory telemetry (the devices register their own). */
    std::vector<std::unique_ptr<stats::Group>> statGroups_;
    std::vector<std::string> statPaths_;
};

} // namespace hwgc::driver

#endif // HWGC_DRIVER_FLEET_H
