/**
 * @file
 * A small gem5-flavoured statistics framework.
 *
 * Components own statistics objects registered in named groups; the
 * benches pull values out programmatically and the examples dump
 * human-readable listings. Everything is plain counters — statistics
 * never affect simulated behaviour.
 */

#ifndef HWGC_SIM_STATS_H
#define HWGC_SIM_STATS_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace hwgc::stats
{

/** A named 64-bit counter / gauge. */
class Scalar
{
  public:
    Scalar() = default;
    explicit Scalar(std::string name) : name_(std::move(name)) {}

    Scalar &operator++() { ++value_; return *this; }
    Scalar &operator+=(std::uint64_t v) { value_ += v; return *this; }
    void set(std::uint64_t v) { value_ = v; }
    void reset() { value_ = 0; }

    std::uint64_t value() const { return value_; }
    const std::string &name() const { return name_; }

    /** Checkpoint field list (sim/checkpoint.h). */
    template <class Ar> void fields(Ar &ar) { ar(value_); }

  private:
    std::string name_;
    std::uint64_t value_ = 0;
};

/** A fixed set of named sub-counters (e.g. requests per source). */
class Vector
{
  public:
    Vector() = default;
    Vector(std::string name, std::vector<std::string> labels)
        : name_(std::move(name)), labels_(std::move(labels)),
          values_(labels_.size(), 0)
    {}

    void
    add(std::size_t idx, std::uint64_t v = 1)
    {
        panic_if(idx >= values_.size(), "stats::Vector index %zu out of "
                 "range for '%s'", idx, name_.c_str());
        values_[idx] += v;
    }

    void reset() { values_.assign(values_.size(), 0); }

    std::uint64_t value(std::size_t idx) const { return values_.at(idx); }

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (auto v : values_) {
            t += v;
        }
        return t;
    }

    std::size_t size() const { return values_.size(); }
    const std::string &label(std::size_t i) const { return labels_.at(i); }
    const std::string &name() const { return name_; }

    template <class Ar> void fields(Ar &ar) { ar.fixed(values_); }

  private:
    std::string name_;
    std::vector<std::string> labels_;
    std::vector<std::uint64_t> values_;
};

/** A sample distribution with mean/min/max and power-of-two buckets. */
class Histogram
{
  public:
    Histogram() = default;
    explicit Histogram(std::string name, unsigned log2_buckets = 32)
        : name_(std::move(name)), buckets_(log2_buckets, 0)
    {}

    /** Records one sample. */
    void
    sample(std::uint64_t v)
    {
        ++count_;
        sum_ += v;
        if (count_ == 1 || v < min_) {
            min_ = v;
        }
        if (v > max_) {
            max_ = v;
        }
        // Bucket floor(log2(v + 1)), without wrapping v + 1 at the top.
        ++buckets_[std::min<std::size_t>(std::bit_width(v - v / 2),
                                         buckets_.size() - 1)];
    }

    void
    reset()
    {
        count_ = sum_ = min_ = max_ = 0;
        buckets_.assign(buckets_.size(), 0);
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t minValue() const { return min_; }
    std::uint64_t maxValue() const { return max_; }
    double mean() const { return count_ ? double(sum_) / count_ : 0.0; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    const std::string &name() const { return name_; }

    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar(count_, sum_, min_, max_);
        ar.fixed(buckets_);
    }

  private:
    std::string name_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
    std::vector<std::uint64_t> buckets_;
};

/**
 * Accumulates a value over fixed-width windows of simulated time;
 * used for the Fig 16 bandwidth-over-time traces.
 */
class TimeSeries
{
  public:
    TimeSeries() = default;
    TimeSeries(std::string name, Tick bucket_width)
        : name_(std::move(name)), width_(bucket_width)
    {
        panic_if(width_ == 0, "TimeSeries bucket width must be > 0");
    }

    /** Adds @p v to the bucket containing @p when. */
    void
    record(Tick when, std::uint64_t v)
    {
        const std::size_t idx = when / width_;
        if (idx >= buckets_.size()) {
            buckets_.resize(idx + 1, 0);
        }
        buckets_[idx] += v;
    }

    void reset() { buckets_.clear(); }

    Tick bucketWidth() const { return width_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    const std::string &name() const { return name_; }

    template <class Ar> void fields(Ar &ar) { ar.list(buckets_); }

  private:
    std::string name_;
    Tick width_ = 1;
    std::vector<std::uint64_t> buckets_;
};

/**
 * A registry of statistics owned by one component; purely a dumping
 * convenience. Pointers must outlive the group. Groups register into
 * the process-wide telemetry::StatsRegistry under dotted paths so the
 * JSON exporter can reach every component (see sim/telemetry.h).
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

    void add(const Scalar *s) { scalars_.push_back(s); }
    void add(const Vector *v) { vectors_.push_back(v); }
    void add(const Histogram *h) { histograms_.push_back(h); }
    void add(const TimeSeries *t) { timeSeries_.push_back(t); }

    /** Writes a human-readable listing of all registered stats. */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /**
     * Installs @p fn to run before every read of this group's values
     * (dump() and the registry's JSON rendering), for owners that
     * accrue lazily and must settle their stats first.
     */
    void setBeforeRead(std::function<void()> fn)
    {
        beforeRead_ = std::move(fn);
    }

    /** Runs the before-read hook, if any (see setBeforeRead). */
    void
    prepareRead() const
    {
        if (beforeRead_) {
            beforeRead_();
        }
    }

    /** @name Introspection (telemetry exporters) @{ */
    const std::vector<const Scalar *> &scalars() const { return scalars_; }
    const std::vector<const Vector *> &vectors() const { return vectors_; }
    const std::vector<const Histogram *> &histograms() const
    {
        return histograms_;
    }
    const std::vector<const TimeSeries *> &timeSeries() const
    {
        return timeSeries_;
    }
    /** @} */

  private:
    std::string name_;
    std::vector<const Scalar *> scalars_;
    std::vector<const Vector *> vectors_;
    std::vector<const Histogram *> histograms_;
    std::vector<const TimeSeries *> timeSeries_;
    std::function<void()> beforeRead_;
};

} // namespace hwgc::stats

#endif // HWGC_SIM_STATS_H
