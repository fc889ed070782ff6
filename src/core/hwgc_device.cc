/**
 * @file
 * Device assembly: memory side, ports, units, and phase control.
 */

#include "hwgc_device.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <vector>

#include "runtime/heap_layout.h"

namespace hwgc::core
{

HwgcDevice::HwgcDevice(mem::PhysMem &mem,
                       const mem::PageTable &page_table,
                       const HwgcConfig &config)
    : HwgcDevice(mem, page_table, config, nullptr)
{
}

HwgcDevice::HwgcDevice(mem::PhysMem &mem,
                       const mem::PageTable &page_table,
                       const HwgcConfig &config, const SocContext &soc)
    : HwgcDevice(mem, page_table, config, &soc)
{
}

HwgcDevice::HwgcDevice(mem::PhysMem &mem,
                       const mem::PageTable &page_table,
                       const HwgcConfig &config, const SocContext *soc)
    : config_(config), mem_(mem), pageTable_(page_table)
{
    external_ = soc != nullptr;
    if (external_) {
        panic_if(soc->system == nullptr || soc->bus == nullptr ||
                 soc->memory == nullptr,
                 "fleet device needs a shared system, bus and memory");
        sys_ = soc->system;
        busPtr_ = soc->bus;
        memPtr_ = soc->memory;
        dramPtr_ = soc->dram;
        namePrefix_ = soc->namePrefix;
        statsPrefix_ = soc->statsPrefix;
    } else {
        ownSystem_ = std::make_unique<System>();
        sys_ = ownSystem_.get();
        // --kernel= / HWGC_KERNEL overrides the configured kernel so
        // binaries without their own kernel plumbing (examples,
        // benches) can run either of the bit-identical kernels.
        KernelMode mode = config_.kernel;
        std::string kernel_opt = telemetry::options().kernel;
        if (kernel_opt.empty()) {
            // Direct env fallback for binaries that never construct a
            // telemetry::Session.
            if (const char *env = std::getenv("HWGC_KERNEL")) {
                kernel_opt = env;
            }
        }
        if (!kernel_opt.empty()) {
            const auto parsed = parseKernelMode(kernel_opt);
            fatal_if(!parsed, "--kernel: unknown kernel '%s' (want dense "
                     "or event)", kernel_opt.c_str());
            mode = *parsed;
        }
        sys_->setMode(mode);

        // Memory side: DRAM (Table I) or the ideal pipe (Fig 17).
        if (config_.memModel == MemModel::Ddr3) {
            auto dram = std::make_unique<mem::Dram>("dram",
                                                    config_.dram, mem_);
            dramPtr_ = dram.get();
            memory_ = std::move(dram);
        } else {
            memory_ = std::make_unique<mem::IdealMem>(
                "idealmem", config_.ideal, mem_);
        }
        memPtr_ = memory_.get();
        bus_ = std::make_unique<mem::Interconnect>("bus", config_.bus,
                                                   *memory_);
        busPtr_ = bus_.get();
    }

    // Port plumbing. In the shared design every traversal component
    // (and the PTW) competes for one 16 KiB cache (Fig 18a); in the
    // partitioned design the PTW keeps a private 8 KiB cache and the
    // others talk to the interconnect directly (Fig 18b).
    auto make_bus_port = [this](const std::string &label) {
        busPorts_.push_back(std::make_unique<mem::BusPort>(
            *busPtr_, nullptr, namePrefix_ + label));
        return busPorts_.back().get();
    };

    mem::MemPort *ptw_port = nullptr;
    if (config_.sharedCache) {
        sharedCache_ = std::make_unique<mem::TimedCache>(
            namePrefix_ + "unitcache", config_.sharedCacheParams, mem_,
            *busPtr_);
        markerPort_ = sharedCache_->addPort(nullptr, "marker");
        tracerPort_ = sharedCache_->addPort(nullptr, "tracer");
        spillPort_ = sharedCache_->addPort(nullptr, "markQueue");
        readerPort_ = sharedCache_->addPort(nullptr, "reader");
        ptw_port = sharedCache_->addPort(nullptr, "ptw");
    } else {
        ptwCache_ = std::make_unique<mem::TimedCache>(
            namePrefix_ + "ptwcache", config_.ptwCacheParams, mem_,
            *busPtr_);
        markerPort_ = make_bus_port("marker");
        tracerPort_ = make_bus_port("tracer");
        spillPort_ = make_bus_port("markQueue");
        readerPort_ = make_bus_port("reader");
        ptw_port = ptwCache_->addPort(nullptr, "ptw");
    }
    blockReaderPort_ = make_bus_port("blockReader");
    for (unsigned i = 0; i < config_.numSweepers; ++i) {
        sweeperPorts_.push_back(
            make_bus_port("sweeper" + std::to_string(i)));
    }

    ptw_ = std::make_unique<mem::Ptw>(namePrefix_ + "ptw", config_.ptw,
                                      pageTable_, ptw_port);

    // Traversal unit.
    markQueue_ = std::make_unique<MarkQueue>(
        namePrefix_ + "markQueue", config_, spillPort_,
        runtime::HeapLayout::spillBase, runtime::HeapLayout::spillSize);
    traceQueue_ =
        std::make_unique<TraceQueue>(config_.tracerQueueEntries);
    marker_ = std::make_unique<Marker>(namePrefix_ + "marker", config_,
                                       *markQueue_, *traceQueue_,
                                       markerPort_, *ptw_);
    tracer_ = std::make_unique<Tracer>(namePrefix_ + "tracer", config_,
                                       *traceQueue_, *markQueue_,
                                       tracerPort_, *ptw_);
    tracer_->setMarker(marker_.get());
    rootReader_ = std::make_unique<RootReader>(
        namePrefix_ + "rootReader", config_, *markQueue_, readerPort_,
        *ptw_);
    reclamation_ = std::make_unique<ReclamationUnit>(
        namePrefix_ + "reclamation", config_, blockReaderPort_,
        sweeperPorts_, *ptw_);

    // Wire responders now that the units exist.
    auto wire = [this](mem::MemPort *port, mem::MemResponder *responder) {
        if (auto *bp = dynamic_cast<mem::BusPort *>(port)) {
            busPtr_->setClientResponder(bp->clientId(), responder);
        } else if (sharedCache_) {
            sharedCache_->setPortResponder(port, responder);
        } else {
            panic("unknown port kind");
        }
    };
    wire(markerPort_, marker_.get());
    wire(tracerPort_, tracer_.get());
    wire(spillPort_, markQueue_.get());
    wire(readerPort_, rootReader_.get());
    wire(blockReaderPort_, reclamation_.get());
    for (unsigned i = 0; i < config_.numSweepers; ++i) {
        wire(sweeperPorts_[i], reclamation_->sweepers()[i].get());
    }
    if (config_.sharedCache) {
        sharedCache_->setPortResponder(ptw_port, ptw_.get());
    } else {
        ptwCache_->setPortResponder(ptw_port, ptw_.get());
    }

    // Clock everything. Evaluation order: consumers before producers
    // is not required (queues decouple), but memory devices last so
    // same-cycle requests are seen next cycle. A fleet device only
    // registers its unit components; the fleet driver adds the shared
    // bus and memory once, after the last device.
    auto addc = [this](Clocked *c) {
        sys_->add(c);
        ownComponents_.push_back(c);
    };
    addc(rootReader_.get());
    addc(marker_.get());
    addc(tracer_.get());
    addc(markQueue_.get());
    addc(reclamation_.get());
    for (auto &sweeper : reclamation_->sweepers()) {
        addc(sweeper.get());
    }
    addc(ptw_.get());
    if (sharedCache_) {
        addc(sharedCache_.get());
    }
    if (ptwCache_) {
        addc(ptwCache_.get());
    }
    if (!external_) {
        sys_->add(bus_.get());
        sys_->add(memory_.get());
    }

    // Wakeup-caching contract (event kernel): every component above
    // pokes itself from its external entry points (sendRequest,
    // onResponse, enqueue/dequeue, requestWalk, start/extend, assign),
    // and producers poke the specific consumer a hand-off can unblock
    // (the bus/cache poke a port's owner — the marker's and the
    // tracer's, which sleep on a full port — when a pop raises canSend,
    // the mark queue pokes the marker when entries become
    // dequeueable, the tracer pokes the marker when a trace-queue pop
    // raises canPush). What remains to declare are the coarse
    // cross-reads — state a component's nextWakeup() inspects that
    // another component's *tick* mutates without calling into it:
    //  - marker and tracer wait on PTW walk callbacks and launch
    //    slots (ptw.canRequest), and on mark-queue state the queue's
    //    own spill tick shuffles (canDequeue, throttle).
    //  - tracer polls the trace queue, which the marker's tick feeds,
    //    and markQueue.throttle, which the root reader's tick can
    //    raise by enqueueing roots. A rising throttle only raises the
    //    tracer's wakeup, but it starts the throttle stalls its
    //    skipped cycles accrue (accruesWhileSkipped), so it must be
    //    seen as well.
    //  - rootReader and the sweepers wait on PTW walk callbacks.
    //  - reclamation polls sweeper->idle() and PTW walk callbacks.
    //  - the bus polls memory.canAccept.
    // markQueue, ptw, the caches and memory read only their own
    // state, so their entry-point pokes alone keep them fresh.
    sys_->declareWakeupInputs(marker_.get(),
                              {markQueue_.get(), ptw_.get()});
    sys_->declareWakeupInputs(tracer_.get(),
                              {rootReader_.get(), marker_.get(),
                               markQueue_.get(), ptw_.get()});
    if (!config_.decoupledTracer) {
        // Coupled-pipeline ablation: the tracer also polls the
        // marker's in-flight reads, which drop inside the bus/cache
        // tick that delivers the marker's response. A fleet device
        // defers the bus edge to declareSharedBusEdges() — the shared
        // bus is registered after the devices.
        if (!external_) {
            sys_->declareWakeupInputs(
                tracer_.get(), {static_cast<Clocked *>(busPtr_)});
        }
        if (config_.sharedCache) {
            sys_->declareWakeupInputs(
                tracer_.get(),
                {static_cast<Clocked *>(sharedCache_.get())});
        }
    }
    markQueue_->setConsumer(marker_.get());
    for (const auto &[port, owner] :
         {std::pair<mem::MemPort *, Clocked *>(markerPort_, marker_.get()),
          std::pair<mem::MemPort *, Clocked *>(tracerPort_,
                                               tracer_.get())}) {
        if (config_.sharedCache) {
            sharedCache_->setPortOwner(port, owner);
        } else {
            busPtr_->setClientOwner(
                static_cast<mem::BusPort *>(port)->clientId(), owner);
        }
    }
    sys_->declareWakeupInputs(rootReader_.get(), {ptw_.get()});
    sys_->declareWakeupInputs(reclamation_.get(), {ptw_.get()});
    for (auto &sweeper : reclamation_->sweepers()) {
        sys_->declareWakeupInputs(sweeper.get(), {ptw_.get()});
        sys_->declareWakeupInputs(reclamation_.get(), {sweeper.get()});
    }
    // Profiler class inputs beyond the wakeup inputs: an idle
    // sweeper classes itself as starved while upstream_->busy(), i.e.
    // while the reclamation unit is not done(), which reads every
    // sweeper's drained().
    for (auto &sweeper : reclamation_->sweepers()) {
        sys_->declareClassInputs(sweeper.get(), {reclamation_.get()});
        for (auto &other : reclamation_->sweepers()) {
            sys_->declareClassInputs(sweeper.get(), {other.get()});
        }
    }
    sys_->declareWakeupInputs(markQueue_.get(), {});
    sys_->declareWakeupInputs(ptw_.get(), {});
    if (sharedCache_) {
        sys_->declareWakeupInputs(sharedCache_.get(), {});
    }
    if (ptwCache_) {
        sys_->declareWakeupInputs(ptwCache_.get(), {});
    }
    if (!external_) {
        sys_->declareWakeupInputs(bus_.get(), {memory_.get()});
        sys_->declareWakeupInputs(memory_.get(), {});
    }

    installWalkResolver();
    registerTelemetry();
}

void
HwgcDevice::installWalkResolver()
{
    // Walk-completion callbacks are opaque closures and cannot live in
    // a checkpoint; each in-flight walk instead records its (owner
    // name, token) identity and this factory re-creates the closure on
    // restore (see mem::Ptw::CallbackResolver).
    ptw_->setCallbackResolver(
        [this](const std::string &owner,
               std::uint64_t token) -> mem::Ptw::WalkCallback {
            if (owner == marker_->name()) {
                return marker_->walkCallback(token);
            }
            if (owner == tracer_->name()) {
                return tracer_->walkCallback();
            }
            if (owner == rootReader_->name()) {
                return rootReader_->walkCallback();
            }
            if (owner == reclamation_->name()) {
                return reclamation_->walkCallback();
            }
            for (auto &sweeper : reclamation_->sweepers()) {
                if (owner == sweeper->name()) {
                    return sweeper->walkCallback();
                }
            }
            return nullptr; // Ptw::resolveCallback() fatals.
        });
}

void
HwgcDevice::declareSharedBusEdges()
{
    panic_if(!external_,
             "declareSharedBusEdges is for fleet devices only");
    if (!config_.decoupledTracer) {
        sys_->declareWakeupInputs(
            tracer_.get(), {static_cast<Clocked *>(busPtr_)});
    }
}

void
HwgcDevice::registerTelemetry()
{
    auto &registry = telemetry::StatsRegistry::global();
    // Fleet devices register under the driver-assigned prefix (stable
    // "system.hwgcN" numbering across checkpoint/restore); owned-SoC
    // devices keep the classic first-free uniquification.
    statsPrefix_ = statsPrefix_.empty()
        ? registry.uniquePrefix("system.hwgc")
        : statsPrefix_;
    auto addGroup = [&](const std::string &sub) -> stats::Group & {
        statGroups_.push_back(std::make_unique<stats::Group>(sub));
        statPaths_.push_back(registry.add(statsPrefix_ + "." + sub,
                                          statGroups_.back().get()));
        return *statGroups_.back();
    };
    rootReader_->addStats(addGroup("rootReader"));
    marker_->addStats(addGroup("marker"));
    marker_->tlb().addStats(addGroup("marker.tlb"));
    tracer_->addStats(addGroup("tracer"));
    tracer_->tlb().addStats(addGroup("tracer.tlb"));
    markQueue_->addStats(addGroup("markQueue"));
    traceQueue_->addStats(addGroup("traceQueue"));
    reclamation_->addStats(addGroup("reclamation"));
    for (std::size_t i = 0; i < reclamation_->sweepers().size(); ++i) {
        reclamation_->sweepers()[i]->addStats(
            addGroup("sweeper" + std::to_string(i)));
    }
    ptw_->addStats(addGroup("ptw"));
    ptw_->l2Tlb().addStats(addGroup("ptw.l2tlb"));
    if (!external_) {
        // Shared bus/memory stats belong to the fleet driver, not to
        // any one device.
        bus_->addStats(addGroup("bus"));
        memory_->addStats(addGroup("memory"));
    }
    if (sharedCache_) {
        sharedCache_->addStats(addGroup("unitcache"));
    }
    if (ptwCache_) {
        ptwCache_->addStats(addGroup("ptwcache"));
    }

    // Attach kernel observers only when a telemetry sink is on, so
    // the default cost is one null-pointer compare per executed cycle.
    // A shared System holds one observer; in fleet mode the driver
    // owns it (the devices only contribute stats groups).
    if (external_) {
        return;
    }
    const telemetry::Options &opts = telemetry::options();
    if (telemetry::TraceWriter::global().enabled() ||
        opts.statsInterval != 0) {
        std::vector<std::string> names;
        for (const Clocked *c : sys_->components()) {
            names.push_back(c->name());
        }
        sysTracer_ = std::make_unique<telemetry::SystemTracer>(
            std::move(names), statsPrefix_ + ".");
        sysTracer_->addCounter("markQueue.depth", [this] {
            return double(markQueue_->depth());
        });
        sysTracer_->addCounter("traceQueue.depth", [this] {
            return double(traceQueue_->size());
        });
        sysTracer_->addRateCounter("bus.utilization", [this] {
            return double(bus_->busBusyCycles());
        });
        if (dramPtr_ != nullptr) {
            sysTracer_->addRateCounter("dram.bytesPerCycle", [this] {
                return double(dramPtr_->bytesRead().value() +
                              dramPtr_->bytesWritten().value());
            });
        }
        if (sharedCache_) {
            sysTracer_->addCounter("unitcache.mshrs", [this] {
                return double(sharedCache_->mshrsInUse());
            });
        }
        if (ptwCache_) {
            sysTracer_->addCounter("ptwcache.mshrs", [this] {
                return double(ptwCache_->mshrsInUse());
            });
        }
    }

    // The System holds one observer pointer; with both sinks active
    // the profiler observes first and forwards to the tracer.
    if (opts.profile) {
        profiler_ = std::make_unique<telemetry::CycleProfiler>(
            *sys_, statsPrefix_);
        profiler_->setChain(sysTracer_.get());
        sys_->setObserver(profiler_.get());
    } else if (sysTracer_) {
        sys_->setObserver(sysTracer_.get());
    }
}

HwgcDevice::~HwgcDevice()
{
    if (crashHookId_ != 0) {
        removeCrashHook(crashHookId_);
    }
    if (sysTracer_) {
        sysTracer_->flush(sys_->now());
    }
    if (sysTracer_ || profiler_) {
        sys_->setObserver(nullptr);
    }
    auto &registry = telemetry::StatsRegistry::global();
    for (const std::string &path : statPaths_) {
        registry.remove(path);
    }
}

void
HwgcDevice::configure(const runtime::Heap &heap)
{
    regs_.pageTableBase = heap.pageTable().root();
    regs_.hwgcSpaceBase = heap.hwgcSpaceBase();
    regs_.rootCount = heap.publishedRootCount();
    regs_.blockTableBase = heap.blockTableBase();
    regs_.blockCount = heap.blocks().size();
    regs_.spillBase = heap.spillBase();
    regs_.spillBytes = heap.spillBytes();

    // Retarget the translation and spill plumbing at this heap — the
    // driver-level half of the §VII context switch. For the classic
    // one-device/one-heap setup these re-program the same values.
    ptw_->setPageTable(heap.pageTable());
    markQueue_->setSpillRegion(regs_.spillBase, regs_.spillBytes);

    if (external_) {
        // Checkpoint arming and the watchdog act on the whole shared
        // SoC; the fleet driver owns both.
        return;
    }

    // Driver-level checkpoint wiring (--checkpoint-* / HWGC_CHECKPOINT_*).
    const telemetry::Options &opts = telemetry::options();
    if (!opts.checkpointOut.empty() && checkpointOut_.empty()) {
        armCheckpoint(opts.checkpointOut, opts.checkpointAt);
    }
    if (!opts.checkpointIn.empty()) {
        restoreCheckpoint(opts.checkpointIn);
    }

    // Progress watchdog (--watchdog-secs= / HWGC_WATCHDOG_SECS): a
    // wedged run dumps its live bottleneck report and stats to stderr
    // before aborting; the panic also fires any armed crash hook, so
    // the "<path>.crash.<pid>" post-mortem path is shared with real
    // panics.
    if (opts.watchdogSecs > 0.0) {
        sys_->setWatchdog(opts.watchdogSecs,
                          [this] { writeWatchdogReport(); });
    }
}

Tick
HwgcDevice::runUntil(const char *phase)
{
    const Tick start = sys_->now();
    for (;;) {
        // An armed --checkpoint-at= pauses the kernel at that exact
        // inter-cycle boundary, mid-phase; the split run is
        // bit-identical to an uninterrupted one (see
        // System::runUntilIdleStop).
        Tick stop = maxTick;
        if (!checkpointOut_.empty() && checkpointAt_ != 0 &&
            !checkpointAtDone_) {
            stop = checkpointAt_;
        }
        const System::StopReason reason = sys_->runUntilIdleStop(stop);
        if (reason == System::StopReason::Stopped) {
            checkpointAtDone_ = true;
            if (writeCheckpoint(checkpointOut_)) {
                inform("checkpoint: wrote '%s' at cycle %llu",
                       checkpointOut_.c_str(),
                       (unsigned long long)sys_->now());
            }
            continue;
        }
        panic_if(reason == System::StopReason::Budget,
                 "%s phase deadlocked (cycle budget exhausted)", phase);
        return sys_->now() - start;
    }
}

void
HwgcDevice::startMark()
{
    panic_if(regs_.rootCount == 0 && regs_.hwgcSpaceBase == 0,
             "device not configured");
    // A restored mid-mark checkpoint left the status register at
    // Marking with the units already in flight: resume, don't restart.
    if (regs_.status == MmioRegs::Marking) {
        return;
    }
    regs_.status = MmioRegs::Marking;
    rootReader_->start(regs_.hwgcSpaceBase, regs_.rootCount);
}

bool
HwgcDevice::markDone() const
{
    return markQueue_->empty() && marker_->idle() && tracer_->idle() &&
        rootReader_->done();
}

HwPhaseResult
HwgcDevice::finishMark()
{
    panic_if(!markDone(), "mark phase ended with residual work");
    HwPhaseResult result;
    result.objectsMarked = marker_->newlyMarked();
    result.refsTraced = tracer_->refsEnqueued();
    regs_.status = MmioRegs::Idle;
    return result;
}

HwPhaseResult
HwgcDevice::runMark()
{
    const bool resuming = regs_.status == MmioRegs::Marking;
    const Tick start = sys_->now();
    DPRINTF(start, "Device", "%s: mark phase %s, %llu roots",
            statsPrefix_.c_str(), resuming ? "resume" : "start",
            (unsigned long long)regs_.rootCount);
    startMark();
    if (profiler_) {
        profiler_->beginPhase("mark");
    }

    const Tick cycles = runUntil("mark");
    if (profiler_) {
        profiler_->endPhase();
    }
    HwPhaseResult result = finishMark();
    result.cycles = cycles;

    const Tick end = sys_->now();
    DPRINTF(end, "Device", "%s: mark phase done, %llu marked",
            statsPrefix_.c_str(),
            (unsigned long long)result.objectsMarked);
    if (sysTracer_) {
        sysTracer_->flush(end);
    }
    telemetry::TraceWriter &tw = telemetry::TraceWriter::global();
    if (tw.enabled()) {
        const Tick roots_done = rootReader_->doneAt();
        tw.completeSpan(statsPrefix_, "rootScan", start,
                        roots_done != 0 ? roots_done : end);
        tw.completeSpan(statsPrefix_, "mark", start, end);
    }
    writePhaseCheckpoint();
    return result;
}

void
HwgcDevice::startSweep()
{
    if (regs_.status == MmioRegs::Sweeping) {
        return; // Restored mid-sweep: resume, don't restart.
    }
    regs_.status = MmioRegs::Sweeping;
    reclamation_->start(regs_.blockTableBase, regs_.blockCount);
}

bool
HwgcDevice::sweepDone() const
{
    return reclamation_->done();
}

HwPhaseResult
HwgcDevice::finishSweep()
{
    panic_if(!sweepDone(), "sweep phase ended with residual work");
    HwPhaseResult result;
    result.cellsFreed = reclamation_->cellsFreed();
    regs_.status = MmioRegs::Idle;
    return result;
}

HwPhaseResult
HwgcDevice::runSweep()
{
    const bool resuming = regs_.status == MmioRegs::Sweeping;
    const Tick start = sys_->now();
    DPRINTF(start, "Device", "%s: sweep phase %s, %llu blocks",
            statsPrefix_.c_str(), resuming ? "resume" : "start",
            (unsigned long long)regs_.blockCount);
    startSweep();
    if (profiler_) {
        profiler_->beginPhase("sweep");
    }

    const Tick cycles = runUntil("sweep");
    if (profiler_) {
        profiler_->endPhase();
    }
    HwPhaseResult result = finishSweep();
    result.cycles = cycles;

    const Tick end = sys_->now();
    DPRINTF(end, "Device", "%s: sweep phase done, %llu freed",
            statsPrefix_.c_str(),
            (unsigned long long)result.cellsFreed);
    if (sysTracer_) {
        sysTracer_->flush(end);
    }
    telemetry::TraceWriter &tw = telemetry::TraceWriter::global();
    if (tw.enabled()) {
        tw.completeSpan(statsPrefix_, "sweep", start, end);
    }
    writePhaseCheckpoint();
    return result;
}

HwPhaseResult
HwgcDevice::collect()
{
    HwPhaseResult mark = runMark();
    const HwPhaseResult sweep = runSweep();
    mark.cycles += sweep.cycles;
    mark.cellsFreed = sweep.cellsFreed;
    return mark;
}

void
HwgcDevice::resetPhaseState()
{
    markQueue_->reset();
    marker_->reset();
    tracer_->reset();
    rootReader_->reset();
    reclamation_->reset();
    ptw_->l2Tlb().flush();
    // A shared (fleet) memory backend stays warm: peer devices may be
    // mid-phase, and the context switch only flushes unit state.
    if (!external_) {
        memory_->resetTimingState();
    }
}

void
HwgcDevice::resetStats()
{
    markQueue_->resetStats();
    marker_->resetStats();
    tracer_->resetStats();
    traceQueue_->resetStats();
    reclamation_->resetStats();
    ptw_->resetStats();
    if (!external_) {
        bus_->resetStats();
        memory_->resetStats();
    }
    if (sharedCache_) {
        sharedCache_->resetStats();
    }
    if (ptwCache_) {
        ptwCache_->resetStats();
    }
}

std::string
HwgcDevice::configSignature() const
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "mq=%u,spill=%u/%u,comp=%d,slots=%u,waiters=%u,mbc=%u,tq=%u,"
        "pend=%u,utlb=%u,layout=%d,dec=%d,tags=%u,sweep=%u,stlb=%u,"
        "shared=%d,mem=%d",
        config_.markQueueEntries, config_.spillQueueEntries,
        config_.spillThrottle, int(config_.compressRefs),
        config_.markerSlots, config_.markerWalkWaiters,
        config_.markBitCacheEntries, config_.tracerQueueEntries,
        config_.tracerPendingRefs, config_.unitTlbEntries,
        int(config_.layout), int(config_.decoupledTracer),
        config_.tracerTagSlots, config_.numSweepers,
        config_.sweeperTlbEntries, int(config_.sharedCache),
        int(config_.memModel));
    return buf;
}

template <class Ar>
void
HwgcDevice::fields(Ar &ar)
{
    panic_if(external_,
             "fleet device state is checkpointed by the fleet driver");
    // The configuration fingerprint goes first so a mismatched file
    // fails with "configurations differ" before any state parsing.
    std::string sig = configSignature();
    ar.chunk("config", sig);
    if constexpr (Ar::loading) {
        fatal_if(sig != configSignature(),
                 "checkpoint '%s' was written by a different device "
                 "configuration\n  file: %s\n  this: %s",
                 ar.origin().c_str(), sig.c_str(),
                 configSignature().c_str());
    }
    ar.chunk("regs", regs_);
    ar.chunk("kernel", *sys_);
    // One chunk per Clocked component, named by instance name, in
    // registration (= evaluation) order.
    for (Clocked *c : sys_->components()) {
        ar.chunk(c->name(), *c);
    }
    // The trace queue is passive (not Clocked) but carries phase state.
    ar.chunk("traceQueue", *traceQueue_);
    // The functional memory image (shared farm-snapshot encoding).
    ar.chunk("physmem", mem_);

    if constexpr (Ar::loading) {
        fatal_if(!ar.atEnd(),
                 "checkpoint '%s': trailing data after the last expected "
                 "chunk — the saving and restoring configurations differ",
                 ar.origin().c_str());
        DPRINTF(sys_->now(), "Device",
                "%s: restored checkpoint '%s' at cycle %llu (status %llu)",
                statsPrefix_.c_str(), ar.origin().c_str(),
                (unsigned long long)sys_->now(),
                (unsigned long long)regs_.status);
    }
}

template void HwgcDevice::fields(checkpoint::Serializer &);
template void HwgcDevice::fields(checkpoint::Deserializer &);

bool
HwgcDevice::writeCheckpoint(const std::string &path) const
{
    checkpoint::Serializer ser;
    saveCheckpoint(ser);
    return ser.writeFile(path);
}

void
HwgcDevice::restoreCheckpoint(const std::string &path)
{
    checkpoint::Deserializer des = checkpoint::Deserializer::fromFile(path);
    restoreCheckpoint(des);
}

void
HwgcDevice::armCheckpoint(const std::string &path, Tick at)
{
    checkpointOut_ = path;
    checkpointAt_ = at;
    checkpointAtDone_ = false;
    if (checkpointOut_.empty()) {
        if (crashHookId_ != 0) {
            removeCrashHook(crashHookId_);
            crashHookId_ = 0;
        }
        return;
    }
    // One registry slot per armed device: a fleet arms several
    // sessions and a panic must dump every one of them, not just the
    // most recently armed (the old single-slot hook's failure mode).
    if (crashHookId_ == 0) {
        crashHookId_ = addCrashHook(&HwgcDevice::crashHook, this);
    }
}

void
HwgcDevice::writePhaseCheckpoint()
{
    // The after-every-pause mode (--checkpoint-out= without
    // --checkpoint-at=): the file always holds the latest post-phase
    // state, so a crashed or aborted multi-pause run can resume from
    // its last completed pause.
    if (checkpointOut_.empty() || checkpointAt_ != 0) {
        return;
    }
    writeCheckpoint(checkpointOut_);
}

void
HwgcDevice::crashHook(void *ctx)
{
    static_cast<HwgcDevice *>(ctx)->writeCrashDump();
}

void
HwgcDevice::writeCrashDump()
{
    // Artifact names carry the pid so parallel fuzz/farm workers (and
    // concurrent --watchdog-secs panics) never clobber each other.
    const std::string base =
        checkpoint::crashArtifactBase(checkpointOut_);
    // The stats dump first: it only reads counters, so it succeeds
    // even when the failure struck mid-tick.
    telemetry::RunMetadata meta;
    meta.binary = "crash-dump";
    meta.config = configSignature();
    meta.simCycles = sys_->now();
    telemetry::StatsRegistry::global().exportJsonFile(
        base + ".stats.json", meta);
    inform("crash dump: wrote '%s.stats.json'", base.c_str());
    // Best-effort architectural snapshot. A mid-tick failure can make
    // component state unserializable (the save() invariants fire); the
    // hook is cleared before it runs, so that second failure cannot
    // recurse — the original diagnostic is already on stderr.
    if (writeCheckpoint(base)) {
        inform("crash dump: wrote '%s'", base.c_str());
    }
}

void
HwgcDevice::writeWatchdogReport()
{
    std::fprintf(stderr,
                 "watchdog: %s made no progress (cycle %llu); live "
                 "state follows\n",
                 statsPrefix_.c_str(),
                 (unsigned long long)sys_->now());
    if (profiler_) {
        profiler_->report(stderr);
    }
    telemetry::RunMetadata meta;
    meta.binary = "watchdog-dump";
    meta.config = configSignature();
    meta.simCycles = sys_->now();
    std::ostringstream os;
    telemetry::StatsRegistry::global().exportJson(os, meta);
    std::fputs(os.str().c_str(), stderr);
}

} // namespace hwgc::core
