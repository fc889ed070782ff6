#include "sim/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <utility>

#include "sim/telemetry.h"

namespace hwgc::telemetry
{
namespace
{

std::vector<std::string>
classLabels()
{
    std::vector<std::string> labels;
    labels.reserve(numCycleClasses);
    for (std::size_t c = 0; c < numCycleClasses; ++c) {
        labels.emplace_back(cycleClassName(CycleClass(c)));
    }
    return labels;
}

} // namespace

CycleProfiler::CycleProfiler(System &system, std::string stats_prefix)
    : system_(system), prefix_(std::move(stats_prefix))
{
    auto &registry = StatsRegistry::global();
    const auto labels = classLabels();
    // reserve() up front: the registry and each group hold pointers
    // into the elements, so the vectors must never reallocate.
    const std::size_t n = system_.components().size();
    comps_.reserve(n);
    spans_.reserve(n);
    registered_ = n >= 64 ? ~std::uint64_t(0)
                          : (std::uint64_t(1) << n) - 1;
    for (const Clocked *c : system_.components()) {
        spans_.push_back(Span{c});
        comps_.emplace_back();
        auto &pc = comps_.back();
        pc.total = stats::Vector("total", labels);
        pc.group.add(&pc.total);
        pc.group.setBeforeRead([this] { flush(); });
        pc.registryPath =
            registry.add(prefix_ + ".profile." + c->name(), &pc.group);
    }
}

CycleProfiler::~CycleProfiler()
{
    // remove() renders each group's final values, through flush().
    auto &registry = StatsRegistry::global();
    for (const auto &pc : comps_) {
        registry.remove(pc.registryPath);
    }
}

void
CycleProfiler::closeSpan(std::size_t i)
{
    Span &span = spans_[i];
    const std::uint64_t n = observed_ - span.since;
    if (n == 0) {
        return;
    }
    const auto cls = std::size_t(span.cls);
    comps_[i].total.add(cls, n);
    if (currentPhase_ >= 0) {
        comps_[i].phase[std::size_t(currentPhase_)]->add(cls, n);
    }
    span.since = observed_;
}

void
CycleProfiler::flush()
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        closeSpan(i);
    }
}

void
CycleProfiler::observe(Tick now, std::uint64_t weight)
{
    // Reclassify what was touched, what reads touched state, and what
    // outlived its class horizon; every other class stands. The dense
    // kernel ticks everything, so it reclassifies everything.
    const std::uint64_t touched = system_.mode() == KernelMode::Dense
        ? registered_
        : system_.touched() & registered_;
    std::uint64_t due = touched;
    for (std::uint64_t t = touched; t != 0; t &= t - 1) {
        due |= system_.classDependents(std::size_t(__builtin_ctzll(t)));
    }
    if (now >= nextHorizon_) { // Else no horizon can have passed.
        nextHorizon_ = maxTick;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].horizon <= now) {
                due |= std::uint64_t(1) << i;
            } else {
                nextHorizon_ = std::min(nextHorizon_, spans_[i].horizon);
            }
        }
    }
    for (due &= registered_; due != 0; due &= due - 1) {
        const auto i = std::size_t(__builtin_ctzll(due));
        Span &span = spans_[i];
        const CycleClass cls = span.clocked->cycleClass(now);
        span.horizon = span.clocked->classHorizon(now);
        nextHorizon_ = std::min(nextHorizon_, span.horizon);
        if (cls != span.cls) {
            closeSpan(i);
            span.cls = cls;
        }
    }
    observed_ += weight;
}

void
CycleProfiler::cycleExecuted(Tick now, std::uint64_t active_mask)
{
    observe(now, 1);
    if (chain_ != nullptr) {
        chain_->cycleExecuted(now, active_mask);
    }
}

void
CycleProfiler::fastForwarded(Tick from, Tick to)
{
    // Component state is frozen across the gap (nothing ticked), so
    // one classification at the gap start, weighted by its width, is
    // exactly what per-cycle classification would have produced.
    observe(from, to - from);
    if (chain_ != nullptr) {
        chain_->fastForwarded(from, to);
    }
}

void
CycleProfiler::beginPhase(const std::string &name)
{
    flush(); // Spans so far belong to the previous phase (if any).
    int idx = phaseIndex(name);
    if (idx < 0) {
        // First time this phase runs: give every component a vector.
        // Re-entering an existing phase (later GC pauses, resumed
        // checkpoints) accrues into the same vectors, so per-phase
        // attribution is cumulative over the run.
        idx = int(phaseNames_.size());
        phaseNames_.push_back(name);
        const auto labels = classLabels();
        for (auto &pc : comps_) {
            pc.phase.push_back(
                std::make_unique<stats::Vector>(name, labels));
            pc.group.add(pc.phase.back().get());
        }
    }
    currentPhase_ = idx;
    auto &tw = TraceWriter::global();
    if (tw.enabled()) {
        // Zero-sample every class track at the phase start so each
        // phase renders as a ramp up to its aggregate in the trace.
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            tw.counter(prefix_ + ".profile." +
                           cycleClassName(CycleClass(c)),
                       system_.now(), 0.0);
        }
    }
}

void
CycleProfiler::endPhase()
{
    if (currentPhase_ < 0) {
        return;
    }
    flush();
    auto &tw = TraceWriter::global();
    if (tw.enabled()) {
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            tw.counter(
                prefix_ + ".profile." + cycleClassName(CycleClass(c)),
                system_.now(),
                double(aggregateIn(currentPhase_, CycleClass(c))));
        }
    }
    currentPhase_ = -1;
}

const std::string &
CycleProfiler::componentName(std::size_t i) const
{
    return spans_.at(i).clocked->name();
}

std::uint64_t
CycleProfiler::value(std::size_t i, int phase_idx, CycleClass c) const
{
    const PerComponent &pc = comps_.at(i);
    const stats::Vector &v =
        phase_idx < 0 ? pc.total : *pc.phase[std::size_t(phase_idx)];
    const Span &span = spans_[i];
    const bool open = span.cls == c &&
        (phase_idx < 0 || phase_idx == currentPhase_);
    return v.value(std::size_t(c)) + (open ? observed_ - span.since : 0);
}

std::uint64_t
CycleProfiler::cycles(std::size_t i, CycleClass c) const
{
    return value(i, -1, c);
}

std::uint64_t
CycleProfiler::accounted(std::size_t i) const
{
    return comps_.at(i).total.total() + (observed_ - spans_.at(i).since);
}

std::uint64_t
CycleProfiler::aggregate(CycleClass c) const
{
    return aggregateIn(-1, c);
}

std::uint64_t
CycleProfiler::phaseAggregate(const std::string &phase,
                              CycleClass c) const
{
    const int idx = phaseIndex(phase);
    return idx < 0 ? 0 : aggregateIn(idx, c);
}

CycleClass
CycleProfiler::topStallClass() const
{
    return topStallIn(-1);
}

CycleClass
CycleProfiler::topStallClass(const std::string &phase) const
{
    // An unknown phase falls back to the whole-run answer.
    return topStallIn(phaseIndex(phase));
}

std::uint64_t
CycleProfiler::aggregateIn(int phase_idx, CycleClass c) const
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < comps_.size(); ++i) {
        sum += value(i, phase_idx, c);
    }
    return sum;
}

int
CycleProfiler::phaseIndex(const std::string &name) const
{
    for (std::size_t i = 0; i < phaseNames_.size(); ++i) {
        if (phaseNames_[i] == name) {
            return int(i);
        }
    }
    return -1;
}

CycleClass
CycleProfiler::topStallIn(int phase_idx) const
{
    CycleClass best = CycleClass::StallDownstreamFull;
    std::uint64_t bestCount = 0;
    for (std::size_t c = 0; c < numCycleClasses; ++c) {
        const auto cls = CycleClass(c);
        if (!isStallClass(cls)) {
            continue;
        }
        const std::uint64_t n = aggregateIn(phase_idx, cls);
        if (n > bestCount) { // Strict: ties keep the lower enum value.
            best = cls;
            bestCount = n;
        }
    }
    return best;
}

void
CycleProfiler::report(std::FILE *out, std::size_t top_n) const
{
    std::fprintf(out,
                 "cycle accounting: %s (%" PRIu64
                 " cycles observed, %zu components)\n",
                 prefix_.c_str(), observed_, comps_.size());

    const auto printLine = [&](const std::string &label,
                               const std::uint64_t (
                                   &counts)[numCycleClasses]) {
        std::uint64_t total = 0;
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            total += counts[c];
        }
        if (total == 0) {
            std::fprintf(out, "    %-18s (no cycles)\n", label.c_str());
            return;
        }
        const auto pct = [total](std::uint64_t n) {
            return 100.0 * double(n) / double(total);
        };
        std::fprintf(out, "    %-18s busy %5.1f%%  idle %5.1f%%  stalls:",
                     label.c_str(),
                     pct(counts[std::size_t(CycleClass::Busy)]),
                     pct(counts[std::size_t(CycleClass::Idle)]));
        std::vector<std::pair<std::uint64_t, std::size_t>> stalls;
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            if (isStallClass(CycleClass(c)) && counts[c] != 0) {
                stalls.emplace_back(counts[c], c);
            }
        }
        std::sort(stalls.begin(), stalls.end(),
                  [](const auto &a, const auto &b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                  });
        if (stalls.empty()) {
            std::fprintf(out, " none");
        }
        for (std::size_t i = 0; i < stalls.size() && i < top_n; ++i) {
            std::fprintf(out, " %s %.1f%%",
                         cycleClassName(CycleClass(stalls[i].second)),
                         pct(stalls[i].first));
        }
        std::fprintf(out, "\n");
    };

    for (int p = -1; p < int(phaseNames_.size()); ++p) {
        std::fprintf(out, "  [%s]\n",
                     p < 0 ? "run total" : phaseNames_[p].c_str());
        std::uint64_t agg[numCycleClasses] = {};
        for (std::size_t c = 0; c < numCycleClasses; ++c) {
            agg[c] = aggregateIn(p, CycleClass(c));
        }
        printLine("(aggregated)", agg);
        for (std::size_t i = 0; i < comps_.size(); ++i) {
            std::uint64_t row[numCycleClasses];
            for (std::size_t c = 0; c < numCycleClasses; ++c) {
                row[c] = value(i, p, CycleClass(c));
            }
            printLine(componentName(i), row);
        }
    }
}

} // namespace hwgc::telemetry
