/**
 * @file
 * A set-associative tag array with true-LRU replacement.
 *
 * Data never lives in the timing models (simulated PhysMem is the
 * single functional source of truth), so every cache in the system —
 * CPU L1/L2, the PTW cache, the traversal unit's shared cache — is a
 * tag array plus timing rules layered on top of this class.
 */

#ifndef HWGC_MEM_CACHE_TAGS_H
#define HWGC_MEM_CACHE_TAGS_H

#include <cstdint>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace hwgc::mem
{

/** Set-associative, true-LRU tag array over 64-byte lines. */
class CacheTags
{
  public:
    /**
     * @param size_bytes Total capacity; must be a multiple of
     *        assoc * line size.
     * @param assoc Associativity (ways per set).
     */
    CacheTags(std::uint64_t size_bytes, unsigned assoc)
        : assoc_(assoc),
          numSets_(unsigned(size_bytes / (std::uint64_t(assoc)
                                          * lineBytes))),
          ways_(std::size_t(numSets_) * assoc)
    {
        panic_if(assoc_ == 0, "associativity must be > 0");
        panic_if(numSets_ == 0 || !isPowerOf2(numSets_),
                 "cache sets must be a non-zero power of two "
                 "(size=%llu assoc=%u)",
                 (unsigned long long)size_bytes, assoc);
    }

    /** Result of evicting a way on insert. */
    struct Victim
    {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = 0;
    };

    /** Probes for the line containing @p addr, updating LRU on hit. */
    bool
    access(Addr addr)
    {
        Way *w = find(addr);
        if (w == nullptr) {
            return false;
        }
        w->lastUse = ++useCounter_;
        return true;
    }

    /** Probes without touching replacement state. */
    bool
    probe(Addr addr) const
    {
        return const_cast<CacheTags *>(this)->find(addr) != nullptr;
    }

    /** Marks the line containing @p addr dirty; false if absent. */
    bool
    markDirty(Addr addr)
    {
        Way *w = find(addr);
        if (w == nullptr) {
            return false;
        }
        w->dirty = true;
        w->lastUse = ++useCounter_;
        return true;
    }

    /**
     * Installs the line containing @p addr, evicting the LRU way of
     * its set if necessary.
     */
    Victim
    insert(Addr addr, bool dirty = false)
    {
        const Addr line = alignDown(addr, lineBytes);
        const unsigned set = setIndex(addr);
        Way *slot = nullptr;
        for (unsigned i = 0; i < assoc_; ++i) {
            Way &w = ways_[std::size_t(set) * assoc_ + i];
            if (!w.valid) {
                slot = &w;
                break;
            }
            if (slot == nullptr || w.lastUse < slot->lastUse) {
                slot = &w;
            }
        }
        Victim victim;
        if (slot->valid) {
            victim.valid = true;
            victim.dirty = slot->dirty;
            victim.lineAddr = slot->lineAddr;
        }
        slot->valid = true;
        slot->dirty = dirty;
        slot->lineAddr = line;
        slot->lastUse = ++useCounter_;
        return victim;
    }

    /** Invalidates everything. */
    void
    flush()
    {
        for (auto &w : ways_) {
            w = Way{};
        }
    }

    unsigned numSets() const { return numSets_; }
    unsigned assoc() const { return assoc_; }

    /** Checkpoint field list: the full tag array. */
    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar(useCounter_);
        ar.fixed(ways_);
    }

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        Addr lineAddr = 0;
        std::uint64_t lastUse = 0;

        template <class Ar>
        void
        fields(Ar &ar)
        {
            ar(valid, dirty, lineAddr, lastUse);
        }
    };

    unsigned
    setIndex(Addr addr) const
    {
        return unsigned((addr / lineBytes) & (numSets_ - 1));
    }

    Way *
    find(Addr addr)
    {
        const Addr line = alignDown(addr, lineBytes);
        const unsigned set = setIndex(addr);
        for (unsigned i = 0; i < assoc_; ++i) {
            Way &w = ways_[std::size_t(set) * assoc_ + i];
            if (w.valid && w.lineAddr == line) {
                return &w;
            }
        }
        return nullptr;
    }

    unsigned assoc_;
    unsigned numSets_;
    std::vector<Way> ways_;
    std::uint64_t useCounter_ = 0;
};

} // namespace hwgc::mem

#endif // HWGC_MEM_CACHE_TAGS_H
