/**
 * @file
 * The functional backing store for simulated physical memory.
 *
 * Storage is sparse at page granularity so a 2 GiB physical address
 * space (Table I) costs only what is actually touched. All functional
 * state in the simulation — heap objects, page tables, free lists, the
 * spill region — lives in here, which is what lets us prove that the
 * hardware and software collectors compute identical results.
 */

#ifndef HWGC_MEM_PHYS_MEM_H
#define HWGC_MEM_PHYS_MEM_H

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/request.h"
#include "sim/types.h"

namespace hwgc::mem
{

/** Sparse functional physical memory; zero-filled on first touch. */
class PhysMem
{
  public:
    /** @param size Size of the physical address space in bytes. */
    explicit PhysMem(std::uint64_t size = 2ULL << 30) : size_(size) {}

    std::uint64_t size() const { return size_; }

    /** Reads one naturally aligned 64-bit word. */
    Word readWord(Addr addr) const;

    /** Writes one naturally aligned 64-bit word. */
    void writeWord(Addr addr, Word value);

    /**
     * Atomically ORs @p operand into the word at @p addr.
     * @return The previous value (the fetch-or the marker relies on).
     */
    Word fetchOrWord(Addr addr, Word operand);

    /** Reads @p len bytes into @p dst. */
    void readBytes(Addr addr, void *dst, std::uint64_t len) const;

    /** Writes @p len bytes from @p src. */
    void writeBytes(Addr addr, const void *src, std::uint64_t len);

    /** Zero-fills a byte range. */
    void zero(Addr addr, std::uint64_t len);

    /**
     * Functionally executes a request message, filling @p rdata for
     * reads/fetch-ors. Used by the memory devices at completion time.
     */
    void execute(const MemRequest &req,
                 std::array<Word, maxReqWords> &rdata);

    /** Number of distinct pages touched so far (for tests/telemetry). */
    std::size_t pagesTouched() const { return pages_.size(); }

    /** An opaque copy of all touched pages. */
    struct Snapshot
    {
        std::unordered_map<std::uint64_t, std::vector<std::uint8_t>>
            pages;
    };

    /**
     * Captures the full functional state. Used to replay the exact
     * same GC pause on both the software and hardware collectors.
     */
    Snapshot snapshot() const;

    /** Restores a previously captured snapshot. */
    void restore(const Snapshot &snap);

    /**
     * Checkpoint field list (sim/checkpoint.h), shared by the device
     * checkpoint and the farm snapshot: the memory size, then every
     * touched page sorted by page number.
     */
    template <class Ar>
    void
    fields(Ar &ar)
    {
        std::uint64_t bytes = size_;
        ar(bytes);
        if constexpr (Ar::loading) {
            fatal_if(bytes != size_,
                     "checkpoint '%s': physical memory is %llu bytes but "
                     "this configuration has %llu — configurations "
                     "differ", ar.origin().c_str(),
                     (unsigned long long)bytes,
                     (unsigned long long)size_);
        }
        ar.list(pages_, [&](auto &entry) {
            auto &[num, page] = entry;
            std::uint64_t len = page ? page->size() : 0;
            ar(num, len);
            if constexpr (Ar::loading) {
                fatal_if(len != pageBytes || num >= size_ / pageBytes,
                         "checkpoint '%s': page %llu (%llu bytes) does "
                         "not fit this physical memory",
                         ar.origin().c_str(), (unsigned long long)num,
                         (unsigned long long)len);
                page = std::make_unique<Page>(len);
            }
            ar.bytes(page->data(), len);
        });
    }

  private:
    using Page = std::vector<std::uint8_t>;

    Page &page(Addr addr);
    const Page *pageIfPresent(Addr addr) const;
    void checkRange(Addr addr, std::uint64_t len) const;

    std::uint64_t size_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
};

} // namespace hwgc::mem

#endif // HWGC_MEM_PHYS_MEM_H
