/**
 * @file
 * A reference cycle-accounting profiler for lockstep tests against
 * telemetry::CycleProfiler (DESIGN.md §10).
 */

#ifndef HWGC_TESTS_REF_PROFILER_H
#define HWGC_TESTS_REF_PROFILER_H

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/hwgc_device.h"
#include "sim/cycle_class.h"
#include "sim/profiler.h"
#include "sim/telemetry.h"

namespace hwgc::test
{

/**
 * The profiler written the direct way: on every observation it
 * classifies every component and accrues into plain arrays. The phase
 * comes from the device's status register, since runMark()/runSweep()
 * bracket exactly the observations the device's profiler books to
 * "mark" and "sweep". Chained behind the device's profiler, it checks
 * that profiler's attribution at every phase change; call
 * expectMatch() for any other point.
 */
class RefProfiler : public KernelObserver
{
  public:
    using Row = std::array<std::uint64_t, numCycleClasses>;

    explicit RefProfiler(core::HwgcDevice &device)
        : device_(device), total_(device.system().components().size())
    {
        device_.profiler()->setChain(this);
    }

    ~RefProfiler() override { device_.profiler()->setChain(nullptr); }

    RefProfiler(const RefProfiler &) = delete;
    RefProfiler &operator=(const RefProfiler &) = delete;

    void
    cycleExecuted(Tick now, std::uint64_t) override
    {
        accrue(now, 1);
    }

    void
    fastForwarded(Tick from, Tick to) override
    {
        accrue(from, to - from);
    }

    /**
     * Expects the device profiler's accessors and its registered
     * "total" and per-phase vectors to equal this reference.
     */
    void
    expectMatch() const
    {
        const telemetry::CycleProfiler &prof = *device_.profiler();
        ASSERT_EQ(prof.observedCycles(), observed_);
        const auto &groups = telemetry::StatsRegistry::global().groups();
        for (std::size_t i = 0; i < total_.size(); ++i) {
            const std::string &name = prof.componentName(i);
            for (std::size_t c = 0; c < numCycleClasses; ++c) {
                EXPECT_EQ(prof.cycles(i, CycleClass(c)), total_[i][c])
                    << name << "." << cycleClassName(CycleClass(c));
            }
            const auto it =
                groups.find(device_.statsPrefix() + ".profile." + name);
            ASSERT_NE(it, groups.end()) << name;
            it->second->prepareRead();
            for (const stats::Vector *v : it->second->vectors()) {
                const Row want = v->name() == "total"
                    ? total_[i]
                    : phaseRow(v->name(), i);
                for (std::size_t c = 0; c < numCycleClasses; ++c) {
                    EXPECT_EQ(v->value(c), want[c])
                        << name << "." << v->name() << "."
                        << cycleClassName(CycleClass(c));
                }
            }
        }
    }

    std::uint64_t observed() const { return observed_; }

  private:
    void
    accrue(Tick now, std::uint64_t weight)
    {
        const std::uint64_t status = device_.regs().status;
        std::vector<Row> *phase = nullptr;
        if (status != core::MmioRegs::Idle) {
            phase = &phases_[status == core::MmioRegs::Marking ? "mark"
                                                               : "sweep"];
            phase->resize(total_.size());
        }
        const auto &comps = device_.system().components();
        for (std::size_t i = 0; i < total_.size(); ++i) {
            const auto c = std::size_t(comps[i]->cycleClass(now));
            total_[i][c] += weight;
            if (phase != nullptr) {
                (*phase)[i][c] += weight;
            }
        }
        observed_ += weight;
        if (status != lastStatus_) {
            lastStatus_ = status;
            expectMatch();
        }
    }

    Row
    phaseRow(const std::string &phase, std::size_t i) const
    {
        const auto it = phases_.find(phase);
        return it == phases_.end() ? Row{} : it->second[i];
    }

    core::HwgcDevice &device_;
    std::vector<Row> total_;
    std::map<std::string, std::vector<Row>> phases_;
    std::uint64_t observed_ = 0;
    std::uint64_t lastStatus_ = core::MmioRegs::Idle;
};

} // namespace hwgc::test

#endif // HWGC_TESTS_REF_PROFILER_H
