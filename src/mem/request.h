/**
 * @file
 * Memory request/response messages exchanged over the TileLink-like
 * interconnect.
 *
 * Transfers are 8..64 bytes, naturally aligned, matching the paper's
 * description of the RocketChip system bus ("Our interconnect supports
 * transfer sizes from 8 to 64B, but they have to be aligned").
 * FetchOr models the atomic fetch-or the marker uses to set the mark
 * bit and read back the status word in a single memory operation.
 */

#ifndef HWGC_MEM_REQUEST_H
#define HWGC_MEM_REQUEST_H

#include <array>
#include <cstdint>

#include "sim/logging.h"
#include "sim/types.h"

namespace hwgc::mem
{

/** Operation carried by a memory request. */
enum class Op : std::uint8_t
{
    Read,     //!< Get: returns size bytes.
    Write,    //!< Put: writes size bytes.
    FetchOr,  //!< 8-byte atomic fetch-or; returns the old word.
};

/** Maximum words per transfer (64 B line / 8 B words). */
constexpr unsigned maxReqWords = lineBytes / wordBytes;

/** Validates a TileLink-like size/alignment combination. */
inline bool
validTransfer(Addr addr, unsigned size)
{
    return (size == 8 || size == 16 || size == 32 || size == 64) &&
        (addr % size) == 0;
}

/**
 * A request message. Write data (and fetch-or operand) travels with
 * the request; responses carry read data. `client` identifies the
 * issuing port on the interconnect, `tag` is opaque to everything but
 * the issuer.
 */
struct MemRequest
{
    Addr paddr = 0;
    unsigned size = 8;
    Op op = Op::Read;
    unsigned client = 0;
    std::uint64_t tag = 0;

    /**
     * Timing-only requests (cache line fills and write-backs issued by
     * tags-only cache models) move bytes for timing purposes but are
     * not executed functionally — the issuing cache performs the
     * functional access against PhysMem itself, exactly once.
     */
    bool timingOnly = false;

    std::array<Word, maxReqWords> wdata{};

    unsigned words() const { return size / wordBytes; }
    bool isWrite() const { return op == Op::Write; }

    /** Checkpoint field list (sim/checkpoint.h). */
    template <class Ar>
    void
    fields(Ar &ar)
    {
        ar(paddr, size, op, client, tag, timingOnly, wdata);
    }
};

/** A response message; `rdata` is valid for Read and FetchOr. */
struct MemResponse
{
    MemRequest req;
    std::array<Word, maxReqWords> rdata{};
    Tick completed = 0;

    template <class Ar> void fields(Ar &ar) { ar(req, rdata, completed); }
};

/** Receiver interface for responses coming back from the memory side. */
class MemResponder
{
  public:
    virtual ~MemResponder() = default;

    /** Delivers one completed response at time @p now. */
    virtual void onResponse(const MemResponse &resp, Tick now) = 0;
};

} // namespace hwgc::mem

#endif // HWGC_MEM_REQUEST_H
