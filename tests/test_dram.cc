/**
 * @file
 * Unit tests for the DRAM controller timing model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <ostream>
#include <queue>
#include <random>
#include <string>
#include <vector>

#include "mem/dram.h"
#include "sim/checkpoint.h"

namespace hwgc::mem
{
namespace
{

MemRequest
read(Addr addr, unsigned size = 8)
{
    MemRequest req;
    req.paddr = addr;
    req.size = size;
    req.op = Op::Read;
    return req;
}

MemRequest
write(Addr addr, unsigned size = 8)
{
    MemRequest req;
    req.paddr = addr;
    req.size = size;
    req.op = Op::Write;
    return req;
}

/** Atomic-mode latency of one request against a fresh device. */
Tick
atomicLatency(Dram &dram, const MemRequest &req, Tick now)
{
    std::array<Word, maxReqWords> scratch{};
    return dram.accessAtomic(req, now, scratch);
}

class DramTest : public testing::Test
{
  protected:
    DramParams params_;
    PhysMem mem_;
};

TEST_F(DramTest, RowHitFasterThanRowMiss)
{
    Dram dram("d", params_, mem_);
    const Tick first = atomicLatency(dram, read(0x0), 0);
    // Same row: only CAS + burst.
    const Tick hit = atomicLatency(dram, read(0x40), 1000);
    // Same bank, different row: precharge + activate + CAS.
    const Tick miss = atomicLatency(
        dram, read(params_.rowBytes * params_.banks), 2000);
    EXPECT_LT(hit, first);
    EXPECT_LT(hit, miss);
    EXPECT_GE(miss, params_.tRP + params_.tRCD + params_.tCAS);
}

TEST_F(DramTest, ClosedPagePolicyHasNoRowHits)
{
    params_.pagePolicy = DramParams::PagePolicy::Closed;
    Dram dram("d", params_, mem_);
    atomicLatency(dram, read(0x0), 0);
    atomicLatency(dram, read(0x40), 1000);
    EXPECT_EQ(dram.rowHits().value(), 0u);
    EXPECT_EQ(dram.rowMisses().value(), 2u);
}

TEST_F(DramTest, BanksOverlap)
{
    Dram dram("d", params_, mem_);
    // Two requests to different banks at the same time should not
    // serialize their bank timing (only share the data bus).
    atomicLatency(dram, read(0), 0);
    const Tick other_bank = atomicLatency(
        dram, read(params_.rowBytes), 0);
    const Tick same_bank = atomicLatency(dram, read(0x80), 0);
    EXPECT_LE(other_bank, same_bank + params_.tCAS);
}

TEST_F(DramTest, InFlightCaps)
{
    Dram dram("d", params_, mem_);
    unsigned reads = 0;
    while (dram.canAccept(read(Addr(reads) * 64))) {
        dram.sendRequest(read(Addr(reads) * 64), 0);
        ++reads;
    }
    EXPECT_EQ(reads, params_.maxReads);
    unsigned writes = 0;
    while (dram.canAccept(write(0x100000 + Addr(writes) * 64))) {
        dram.sendRequest(write(0x100000 + Addr(writes) * 64), 0);
        ++writes;
    }
    EXPECT_EQ(writes, params_.maxWrites);
}

/** Collects responses for the timed tests. */
class Collector : public MemResponder
{
  public:
    void
    onResponse(const MemResponse &resp, Tick now) override
    {
        responses.push_back(resp);
        lastTick = now;
    }

    std::vector<MemResponse> responses;
    Tick lastTick = 0;
};

TEST_F(DramTest, TimedRequestsComplete)
{
    Dram dram("d", params_, mem_);
    Collector collector;
    dram.setResponder(&collector);
    mem_.writeWord(0x1000, 77);

    dram.sendRequest(read(0x1000), 0);
    for (Tick t = 0; t < 1000 && collector.responses.empty(); ++t) {
        dram.tick(t);
    }
    ASSERT_EQ(collector.responses.size(), 1u);
    EXPECT_EQ(collector.responses[0].rdata[0], 77u);
    EXPECT_FALSE(dram.busy());
}

TEST_F(DramTest, TimedWriteExecutesFunctionally)
{
    Dram dram("d", params_, mem_);
    Collector collector;
    dram.setResponder(&collector);

    MemRequest req = write(0x2000);
    req.wdata[0] = 1234;
    dram.sendRequest(req, 0);
    for (Tick t = 0; t < 1000 && collector.responses.empty(); ++t) {
        dram.tick(t);
    }
    EXPECT_EQ(mem_.readWord(0x2000), 1234u);
}

TEST_F(DramTest, TimingOnlyRequestSkipsFunctionalWrite)
{
    Dram dram("d", params_, mem_);
    Collector collector;
    dram.setResponder(&collector);
    mem_.writeWord(0x3000, 55);

    MemRequest req = write(0x3000);
    req.wdata[0] = 99;
    req.timingOnly = true;
    dram.sendRequest(req, 0);
    for (Tick t = 0; t < 1000 && collector.responses.empty(); ++t) {
        dram.tick(t);
    }
    EXPECT_EQ(mem_.readWord(0x3000), 55u); // Untouched.
}

TEST_F(DramTest, FrFcfsPrefersRowHits)
{
    // Queue a row miss (different row, same bank) then a row hit;
    // FR-FCFS should complete the hit first.
    Dram dram("d", params_, mem_);
    Collector collector;
    dram.setResponder(&collector);

    atomicLatency(dram, read(0x0), 0); // Open row 0 of bank 0.
    const Addr miss_addr = params_.rowBytes * params_.banks; // Bank 0.
    MemRequest miss = read(miss_addr);
    miss.tag = 1;
    MemRequest hit = read(0x40);
    hit.tag = 2;
    dram.sendRequest(miss, 100);
    dram.sendRequest(hit, 100);
    for (Tick t = 100; t < 2000 && collector.responses.size() < 2; ++t) {
        dram.tick(t);
    }
    ASSERT_EQ(collector.responses.size(), 2u);
    EXPECT_EQ(collector.responses[0].req.tag, 2u);
    EXPECT_EQ(collector.responses[1].req.tag, 1u);
}

TEST_F(DramTest, FifoPreservesOrder)
{
    params_.scheduler = DramParams::Scheduler::Fifo;
    Dram dram("d", params_, mem_);
    Collector collector;
    dram.setResponder(&collector);

    atomicLatency(dram, read(0x0), 0);
    MemRequest miss = read(params_.rowBytes * params_.banks);
    miss.tag = 1;
    MemRequest hit = read(0x40);
    hit.tag = 2;
    dram.sendRequest(miss, 100);
    dram.sendRequest(hit, 100);
    for (Tick t = 100; t < 2000 && collector.responses.size() < 2; ++t) {
        dram.tick(t);
    }
    ASSERT_EQ(collector.responses.size(), 2u);
    EXPECT_EQ(collector.responses[0].req.tag, 1u);
}

TEST_F(DramTest, BandwidthTimeSeriesRecordsBytes)
{
    Dram dram("d", params_, mem_);
    atomicLatency(dram, read(0x0, 64), 0);
    atomicLatency(dram, read(0x1000, 64), 100);
    std::uint64_t total = 0;
    for (auto b : dram.bandwidth().buckets()) {
        total += b;
    }
    EXPECT_EQ(total, 128u);
    EXPECT_EQ(dram.bytesRead().value(), 128u);
}

TEST_F(DramTest, StatsReset)
{
    Dram dram("d", params_, mem_);
    atomicLatency(dram, read(0x0), 0);
    EXPECT_GT(dram.numReads().value(), 0u);
    dram.resetStats();
    EXPECT_EQ(dram.numReads().value(), 0u);
    EXPECT_EQ(dram.rowMisses().value(), 0u);
    EXPECT_EQ(dram.latency().count(), 0u);
}

TEST_F(DramTest, LargerBurstsOccupyBusLonger)
{
    Dram dram("d", params_, mem_);
    const Tick small = atomicLatency(dram, read(0x0, 8), 0);
    dram.resetBankState();
    const Tick big = atomicLatency(dram, read(0x0, 64), 100000);
    EXPECT_GT(big, small);
}

// ---------------------------------------------------------------------
// Lockstep against a reference controller.
// ---------------------------------------------------------------------

/**
 * The controller written the direct way: issued entries stay queued
 * until every older entry has issued, every scan decodes bank and row
 * again, and completions retire through a min-heap. Dram must match
 * it cycle for cycle.
 */
class RefDram
{
  public:
    explicit RefDram(const DramParams &p) : p_(p), banks_(p.banks) {}

    bool
    canAccept(const MemRequest &req) const
    {
        return req.isWrite() ? writes_ < p_.maxWrites
                             : reads_ < p_.maxReads;
    }

    void
    send(const MemRequest &req, Tick now)
    {
        ++(req.isWrite() ? writes_ : reads_);
        queue_.push_back({req, now + p_.frontendLatency, false});
        maxQueued = std::max(maxQueued, queue_.size());
    }

    /** Ticks once; returns the tags delivered at @p now, in order. */
    std::vector<std::uint64_t>
    tick(Tick now)
    {
        const int idx = pickNext(now);
        if (idx >= 0) {
            Entry &e = queue_[idx];
            const Tick done = service(e.req, now);
            latency.sample(done - e.arrived + p_.frontendLatency);
            completions_.push({done, e.req});
            e.issued = true;
            while (!queue_.empty() && queue_.front().issued) {
                queue_.pop_front();
            }
        }
        std::vector<std::uint64_t> delivered;
        while (!completions_.empty() && completions_.top().at <= now) {
            const MemRequest req = completions_.top().req;
            completions_.pop();
            --(req.isWrite() ? writes_ : reads_);
            delivered.push_back(req.tag);
        }
        return delivered;
    }

    Tick
    nextWakeup() const
    {
        Tick next = completions_.empty() ? maxTick
                                         : completions_.top().at;
        for (const Entry &e : queue_) {
            if (e.issued) {
                continue;
            }
            if (p_.scheduler == DramParams::Scheduler::Fifo) {
                return std::min(next, e.arrived);
            }
            next = std::min(next, std::max(e.arrived,
                                           banks_[bank(e.req)].readyAt));
        }
        return next;
    }

    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t activates = 0;
    stats::Histogram latency{"accessLatency"};
    std::size_t maxQueued = 0; //!< Peak deque length, issued included.

  private:
    struct Entry
    {
        MemRequest req;
        Tick arrived;
        bool issued;
    };
    struct Done
    {
        Tick at;
        MemRequest req;
        bool operator>(const Done &o) const { return at > o.at; }
    };
    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Tick readyAt = 0;
        Tick activatedAt = 0;
    };

    unsigned
    bank(const MemRequest &r) const
    {
        return unsigned((r.paddr / p_.rowBytes) % p_.banks);
    }

    std::uint64_t
    row(const MemRequest &r) const
    {
        return r.paddr / (p_.rowBytes * p_.banks);
    }

    int
    pickNext(Tick now) const
    {
        int oldest = -1;
        for (std::size_t i = 0; i < queue_.size(); ++i) {
            const Entry &e = queue_[i];
            if (e.issued) {
                continue;
            }
            if (p_.scheduler == DramParams::Scheduler::Fifo) {
                return e.arrived <= now ? int(i) : -1;
            }
            const Bank &b = banks_[bank(e.req)];
            if (e.arrived > now || b.readyAt > now) {
                continue;
            }
            if (b.open && b.row == row(e.req)) {
                return int(i);
            }
            if (oldest < 0) {
                oldest = int(i);
            }
        }
        return oldest;
    }

    Tick
    service(const MemRequest &req, Tick start)
    {
        Bank &b = banks_[bank(req)];
        Tick t = std::max(start, b.readyAt);
        if (b.open && b.row == row(req)) {
            ++rowHits;
        } else {
            ++rowMisses;
            if (b.open) {
                t = std::max(t, b.activatedAt + p_.tRAS) + p_.tRP;
            }
            t += p_.tRCD;
            b.activatedAt = t;
            ++activates;
            b.open = true;
            b.row = row(req);
        }
        t += p_.tCAS;
        const Tick burst = std::max<Tick>(
            1, Tick(double(req.size) / p_.busBytesPerCycle + 0.999));
        const Tick done = std::max(t, busFreeAt_) + burst;
        busFreeAt_ = b.readyAt = done;
        if (p_.pagePolicy == DramParams::PagePolicy::Closed) {
            b.readyAt = std::max(done, b.activatedAt + p_.tRAS) + p_.tRP;
            b.open = false;
        }
        return done;
    }

    DramParams p_;
    std::vector<Bank> banks_;
    Tick busFreeAt_ = 0;
    std::deque<Entry> queue_;
    std::priority_queue<Done, std::vector<Done>, std::greater<Done>>
        completions_;
    unsigned reads_ = 0;
    unsigned writes_ = 0;
};

/** Yields the requests offered to both controllers at one cycle. */
using Traffic = std::function<std::vector<MemRequest>(Tick)>;

/**
 * A seeded random stream over @p banks banks and a few rows each,
 * reads and writes mixed, offering up to two requests per cycle.
 */
Traffic
randomTraffic(const DramParams &p, std::uint64_t seed)
{
    return [p, rng = std::mt19937_64(seed), tag = std::uint64_t(0)](
               Tick) mutable {
        std::vector<MemRequest> out;
        const unsigned offers = unsigned(rng() % 3);
        for (unsigned i = 0; i < offers; ++i) {
            const std::uint64_t bank = rng() % p.banks;
            const std::uint64_t row = rng() % 4;
            const std::uint64_t col = rng() % (p.rowBytes / 64);
            const Addr addr = (row * p.banks + bank) * p.rowBytes + col * 64;
            MemRequest req = rng() % 3 == 0 ? write(addr) : read(addr);
            req.size = rng() % 2 ? 64 : 8;
            req.timingOnly = true;
            req.tag = ++tag;
            out.push_back(req);
        }
        return out;
    };
}

/** Drives both controllers over [from, to) and checks each cycle. */
void
lockstep(Dram &dram, RefDram &ref, const Collector &collector,
         std::size_t &seen, const Traffic &traffic, Tick from, Tick to)
{
    const DramParams &p = dram.params();
    for (Tick now = from; now < to; ++now) {
        for (const MemRequest &req : traffic(now)) {
            ASSERT_EQ(dram.canAccept(req), ref.canAccept(req)) << now;
            if (ref.canAccept(req)) {
                dram.sendRequest(req, now);
                ref.send(req, now);
            }
        }
        dram.tick(now);
        for (const std::uint64_t tag : ref.tick(now)) {
            ASSERT_LT(seen, collector.responses.size())
                << "tag " << tag << " not delivered at " << now;
            EXPECT_EQ(collector.responses[seen].req.tag, tag) << now;
            EXPECT_EQ(collector.responses[seen].completed, now);
            ++seen;
        }
        ASSERT_EQ(seen, collector.responses.size()) << now;
        ASSERT_EQ(dram.nextWakeup(now), ref.nextWakeup()) << now;
        ASSERT_LE(dram.debugState().queued, p.maxReads + p.maxWrites);
    }
}

void
expectSameStats(const Dram &dram, const RefDram &ref)
{
    EXPECT_EQ(dram.rowHits().value(), ref.rowHits);
    EXPECT_EQ(dram.rowMisses().value(), ref.rowMisses);
    EXPECT_EQ(dram.numActivates().value(), ref.activates);
    EXPECT_EQ(dram.latency().count(), ref.latency.count());
    EXPECT_EQ(dram.latency().sum(), ref.latency.sum());
    EXPECT_EQ(dram.latency().buckets(), ref.latency.buckets());
}

struct SchedulerCase
{
    DramParams::Scheduler scheduler;
    DramParams::PagePolicy page;
};

std::string
caseName(const SchedulerCase &c)
{
    return std::string(c.scheduler == DramParams::Scheduler::FrFcfs
                           ? "FrFcfs"
                           : "Fifo") +
        (c.page == DramParams::PagePolicy::Open ? "Open" : "Closed");
}

void
PrintTo(const SchedulerCase &c, std::ostream *os)
{
    *os << caseName(c);
}

class DramLockstep : public testing::TestWithParam<SchedulerCase>
{
  protected:
    DramParams
    params() const
    {
        DramParams p;
        p.scheduler = GetParam().scheduler;
        p.pagePolicy = GetParam().page;
        return p;
    }

    PhysMem mem_;
};

TEST_P(DramLockstep, RandomStreamMatchesReference)
{
    const DramParams p = params();
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Dram dram("d", p, mem_);
        Collector collector;
        dram.setResponder(&collector);
        RefDram ref(p);
        std::size_t seen = 0;
        lockstep(dram, ref, collector, seen, randomTraffic(p, seed), 0,
                 20'000);
        expectSameStats(dram, ref);
        EXPECT_GT(collector.responses.size(), 500u);
    }
}

TEST_P(DramLockstep, HeadStarvesBehindRowHits)
{
    // Row hits to bank 0's open row arrive every cycle; a row miss to
    // the same bank arrives among the first of them. FR-FCFS keeps
    // serving hits, so the reference's deque fills with issued entries
    // queued behind the starving miss, while Dram's queue stays within
    // the in-flight caps.
    const DramParams p = params();
    Dram dram("d", p, mem_);
    Collector collector;
    dram.setResponder(&collector);
    RefDram ref(p);
    const Addr conflict = p.rowBytes * p.banks; // Bank 0, row 1.
    std::uint64_t tag = 0;
    const Traffic traffic = [&](Tick now) {
        std::vector<MemRequest> out;
        if (now < 3000) {
            out.push_back(read((now % 32) * 64)); // Bank 0, row 0.
        }
        if (now == 5) {
            out.push_back(read(conflict));
        }
        for (MemRequest &req : out) {
            req.timingOnly = true;
            req.tag = ++tag;
        }
        return out;
    };
    std::size_t seen = 0;
    lockstep(dram, ref, collector, seen, traffic, 0, 6000);
    expectSameStats(dram, ref);
    EXPECT_FALSE(dram.busy());

    const auto head = std::find_if(
        collector.responses.begin(), collector.responses.end(),
        [&](const MemResponse &r) { return r.req.paddr == conflict; });
    ASSERT_NE(head, collector.responses.end());
    if (p.scheduler == DramParams::Scheduler::FrFcfs &&
        p.pagePolicy == DramParams::PagePolicy::Open) {
        EXPECT_GT(head - collector.responses.begin(), 100);
        EXPECT_GT(ref.maxQueued, p.maxReads + p.maxWrites);
    }
}

TEST_P(DramLockstep, MidQueueSaveRestoreRoundTrip)
{
    const DramParams p = params();
    Dram before("d", p, mem_);
    Collector first;
    before.setResponder(&first);
    RefDram ref(p);
    const Traffic traffic = randomTraffic(p, 7);
    std::size_t seen = 0;
    Tick now = 0;
    // Stop where requests are both queued and in service.
    while (now < 1000 || before.debugState().queued < 4 ||
           before.debugState().completionsPending == 0) {
        lockstep(before, ref, first, seen, traffic, now, now + 1);
        ++now;
        ASSERT_LT(now, 100'000u) << "the queue never filled";
    }

    checkpoint::Serializer ser;
    ser.beginChunk("dram");
    before.save(ser);
    ser.endChunk();
    Dram after("d", p, mem_);
    Collector second;
    after.setResponder(&second);
    checkpoint::Deserializer des(ser.image());
    des.beginChunk("dram");
    after.restore(des);
    des.endChunk();

    seen = 0;
    lockstep(after, ref, second, seen, traffic, now, now + 10'000);
    expectSameStats(after, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Schedulers, DramLockstep,
    testing::Values(
        SchedulerCase{DramParams::Scheduler::FrFcfs,
                      DramParams::PagePolicy::Open},
        SchedulerCase{DramParams::Scheduler::FrFcfs,
                      DramParams::PagePolicy::Closed},
        SchedulerCase{DramParams::Scheduler::Fifo,
                      DramParams::PagePolicy::Open},
        SchedulerCase{DramParams::Scheduler::Fifo,
                      DramParams::PagePolicy::Closed}),
    [](const testing::TestParamInfo<SchedulerCase> &info) {
        return caseName(info.param);
    });

} // namespace
} // namespace hwgc::mem
