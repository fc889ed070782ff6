/**
 * @file
 * Statistics dumping.
 */

#include "stats.h"

#include <algorithm>
#include <iomanip>

namespace hwgc::stats
{

void
Group::dump(std::ostream &os) const
{
    prepareRead();
    os << "---------- " << name_ << " ----------\n";
    for (const auto *s : scalars_) {
        os << std::left << std::setw(40) << s->name() << " "
           << s->value() << "\n";
    }
    for (const auto *v : vectors_) {
        for (std::size_t i = 0; i < v->size(); ++i) {
            os << std::left << std::setw(40)
               << (v->name() + "::" + v->label(i)) << " " << v->value(i)
               << "\n";
        }
        os << std::left << std::setw(40) << (v->name() + "::total") << " "
           << v->total() << "\n";
    }
    for (const auto *h : histograms_) {
        os << std::left << std::setw(40) << (h->name() + "::count") << " "
           << h->count() << "\n";
        os << std::left << std::setw(40) << (h->name() + "::mean") << " "
           << h->mean() << "\n";
        os << std::left << std::setw(40) << (h->name() + "::min") << " "
           << h->minValue() << "\n";
        os << std::left << std::setw(40) << (h->name() + "::max") << " "
           << h->maxValue() << "\n";
    }
    for (const auto *t : timeSeries_) {
        std::uint64_t total = 0;
        std::uint64_t peak = 0;
        for (const auto v : t->buckets()) {
            total += v;
            peak = std::max(peak, v);
        }
        os << std::left << std::setw(40) << (t->name() + "::bucketWidth")
           << " " << t->bucketWidth() << "\n";
        os << std::left << std::setw(40) << (t->name() + "::buckets")
           << " " << t->buckets().size() << "\n";
        os << std::left << std::setw(40) << (t->name() + "::total") << " "
           << total << "\n";
        os << std::left << std::setw(40) << (t->name() + "::peak") << " "
           << peak << "\n";
    }
}

} // namespace hwgc::stats
