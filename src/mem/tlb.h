/**
 * @file
 * A fully-associative, LRU TLB array (lookup structure only).
 *
 * The traversal unit's marker and tracer each own a 32-entry TLB and
 * share a 128-entry L2 TLB and a blocking page-table walker (paper
 * §VI-A: "the TLB and page table walker are blocking, TLB misses can
 * serialize execution"). Timing — stalling on walks — is applied by
 * the owning component; this class only resolves hits/misses.
 */

#ifndef HWGC_MEM_TLB_H
#define HWGC_MEM_TLB_H

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/logging.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace hwgc::mem
{

/** Fully-associative translation lookaside buffer. */
class TlbArray
{
  public:
    /**
     * @param name Statistics name.
     * @param entries Capacity (32 for unit TLBs, 128 for shared L2).
     */
    TlbArray(std::string name, unsigned entries)
        : name_(std::move(name)), entries_(entries)
    {
        panic_if(entries_ == 0, "TLB needs at least one entry");
    }

    /** Looks up @p va; returns the translated PA on a hit. Entries
     *  may cover 4 KiB pages or 2 MiB superpages (paper §VII). */
    std::optional<Addr>
    lookup(Addr va)
    {
        if (Entry *e = find(va)) {
            e->lastUse = ++useCounter_;
            ++hits_;
            return e->translate(va);
        }
        ++misses_;
        return std::nullopt;
    }

    /** lookup() without its effects: no statistics, no recency. */
    std::optional<Addr>
    probe(Addr va) const
    {
        if (const Entry *e = find(va)) {
            return e->translate(va);
        }
        return std::nullopt;
    }

    /**
     * Does in one step what @p rounds rounds of lookup() over @p vas,
     * in order, do when every lookup hits: the hit count, the use
     * counter and each matched entry's recency. Every VA must hit.
     */
    void
    replayHits(std::span<const Addr> vas, std::uint64_t rounds)
    {
        if (rounds == 0) {
            return;
        }
        // Only the last round decides each entry's recency.
        std::uint64_t use = useCounter_ + (rounds - 1) * vas.size();
        for (const Addr va : vas) {
            Entry *e = find(va);
            panic_if(e == nullptr, "TLB '%s' replays a miss at %#llx",
                     name_.c_str(), (unsigned long long)va);
            e->lastUse = ++use;
        }
        useCounter_ = use;
        hits_ += rounds * vas.size();
    }

    /** Installs a translation, evicting LRU if full. */
    void
    insert(Addr va, Addr pa, unsigned page_bits = 12)
    {
        const Addr mask = (Addr(1) << page_bits) - 1;
        const Addr vpage = va & ~mask;
        const Addr ppage = pa & ~mask;
        for (auto &e : slots_) {
            if (e.vpage == vpage && e.pageBits == page_bits) {
                e.ppage = ppage;
                e.lastUse = ++useCounter_;
                return;
            }
        }
        if (slots_.size() < entries_) {
            slots_.push_back({vpage, ppage, page_bits, ++useCounter_});
            return;
        }
        Entry *lru = &slots_.front();
        for (auto &e : slots_) {
            if (e.lastUse < lru->lastUse) {
                lru = &e;
            }
        }
        *lru = {vpage, ppage, page_bits, ++useCounter_};
    }

    /** Like lookup(), but also reports the matching entry's page
     *  size (needed to propagate superpage reach between TLB levels). */
    std::optional<std::pair<Addr, unsigned>>
    lookupEntry(Addr va)
    {
        if (Entry *e = find(va)) {
            e->lastUse = ++useCounter_;
            ++hits_;
            return std::make_pair(e->translate(va), e->pageBits);
        }
        ++misses_;
        return std::nullopt;
    }

    /** Drops all translations. */
    void flush() { slots_.clear(); }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    /** Registers this TLB's statistics into @p g (telemetry). */
    void
    addStats(stats::Group &g) const
    {
        g.add(&hits_);
        g.add(&misses_);
    }

    void
    resetStats()
    {
        hits_.reset();
        misses_.reset();
    }

    const std::string &name() const { return name_; }

    /** Checkpoint field list: translations and hit/miss statistics. */
    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar(useCounter_);
        ar.list(slots_);
        if constexpr (Ar::loading) {
            fatal_if(slots_.size() > entries_,
                     "checkpoint '%s': TLB '%s' holds %zu entries but has "
                     "capacity %u — configurations differ",
                     ar.origin().c_str(), name_.c_str(), slots_.size(),
                     entries_);
        }
        ar(hits_, misses_);
    }

  private:
    struct Entry
    {
        Addr vpage = 0;
        Addr ppage = 0;
        unsigned pageBits = 12;
        std::uint64_t lastUse = 0;

        bool
        covers(Addr va) const
        {
            return (va & ~((Addr(1) << pageBits) - 1)) == vpage;
        }

        Addr
        translate(Addr va) const
        {
            return ppage + (va & ((Addr(1) << pageBits) - 1));
        }

        template <class Ar>
        void
        fields(Ar &ar)
        {
            ar(vpage, ppage, pageBits, lastUse);
        }
    };

    /** The first entry covering @p va (lookup order), or nullptr. */
    const Entry *
    find(Addr va) const
    {
        for (const auto &e : slots_) {
            if (e.covers(va)) {
                return &e;
            }
        }
        return nullptr;
    }

    Entry *
    find(Addr va)
    {
        return const_cast<Entry *>(std::as_const(*this).find(va));
    }

    std::string name_;
    unsigned entries_;
    std::vector<Entry> slots_;
    std::uint64_t useCounter_ = 0;

    stats::Scalar hits_{"hits"};
    stats::Scalar misses_{"misses"};
};

} // namespace hwgc::mem

#endif // HWGC_MEM_TLB_H
