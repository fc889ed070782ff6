/**
 * @file
 * Unit tests for virtual memory: page tables, TLBs and the blocking
 * page-table walker.
 */

#include <gtest/gtest.h>

#include "mem/ideal_mem.h"
#include "mem/page_table.h"
#include "mem/ptw.h"
#include "mem/tlb.h"
#include "sim/checkpoint.h"

namespace hwgc::mem
{
namespace
{

class PageTableTest : public testing::Test
{
  protected:
    PageTableTest() : table_(mem_, 0x10000, 4 << 20) {}

    PhysMem mem_;
    PageTable table_;
};

TEST_F(PageTableTest, IdentityMapTranslates)
{
    table_.map(0x4000'0000, 0x4000'0000, 4 * pageBytes);
    const auto pa = table_.translate(0x4000'1234);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x4000'1234u);
}

TEST_F(PageTableTest, OffsetMapTranslates)
{
    table_.map(0x1000'0000, 0x2000'0000, pageBytes);
    EXPECT_EQ(table_.translate(0x1000'0abc).value(), 0x2000'0abcu);
}

TEST_F(PageTableTest, UnmappedReturnsNothing)
{
    table_.map(0x4000'0000, 0x4000'0000, pageBytes);
    EXPECT_FALSE(table_.translate(0x5000'0000).has_value());
    EXPECT_FALSE(table_.translate(0x4000'1000).has_value());
}

TEST_F(PageTableTest, WalkExposesThreeLevels)
{
    table_.map(0x4000'0000, 0x4000'0000, pageBytes);
    const auto walk = table_.walk(0x4000'0080);
    EXPECT_TRUE(walk.valid);
    EXPECT_EQ(walk.levels, ptLevels);
    EXPECT_EQ(walk.pa, 0x4000'0080u);
    // The outermost PTE lives in the root page.
    EXPECT_EQ(alignDown(walk.pteAddr[0], pageBytes), table_.root());
    // Distinct table pages per level.
    EXPECT_NE(alignDown(walk.pteAddr[1], pageBytes),
              alignDown(walk.pteAddr[0], pageBytes));
}

TEST_F(PageTableTest, WalkOnUnmappedStopsEarly)
{
    const auto walk = table_.walk(0x7000'0000);
    EXPECT_FALSE(walk.valid);
    EXPECT_EQ(walk.levels, 1u); // Root PTE invalid.
}

TEST_F(PageTableTest, AdjacentPagesShareLeafTable)
{
    table_.map(0x4000'0000, 0x4000'0000, 2 * pageBytes);
    const auto w1 = table_.walk(0x4000'0000);
    const auto w2 = table_.walk(0x4000'1000);
    EXPECT_EQ(alignDown(w1.pteAddr[2], pageBytes),
              alignDown(w2.pteAddr[2], pageBytes));
    EXPECT_EQ(w2.pteAddr[2] - w1.pteAddr[2], wordBytes);
}

TEST_F(PageTableTest, PageAllocationGrows)
{
    const unsigned before = table_.pagesAllocated();
    table_.map(0x4000'0000, 0x4000'0000, pageBytes);
    EXPECT_GT(table_.pagesAllocated(), before);
}

TEST(Tlb, HitAfterInsert)
{
    TlbArray tlb("t", 4);
    EXPECT_FALSE(tlb.lookup(0x1000).has_value());
    tlb.insert(0x1000, 0x20000);
    const auto pa = tlb.lookup(0x1234);
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(*pa, 0x20234u);
    EXPECT_EQ(tlb.hits(), 1u);
    EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEviction)
{
    TlbArray tlb("t", 2);
    tlb.insert(0x1000, 0x1000);
    tlb.insert(0x2000, 0x2000);
    tlb.lookup(0x1000); // Touch: 0x2000 becomes LRU.
    tlb.insert(0x3000, 0x3000);
    EXPECT_TRUE(tlb.lookup(0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(0x2000).has_value());
    EXPECT_TRUE(tlb.lookup(0x3000).has_value());
}

TEST(Tlb, Flush)
{
    TlbArray tlb("t", 4);
    tlb.insert(0x1000, 0x1000);
    tlb.flush();
    EXPECT_FALSE(tlb.lookup(0x1000).has_value());
}

TEST(Tlb, ReinsertUpdatesMapping)
{
    TlbArray tlb("t", 4);
    tlb.insert(0x1000, 0x1000);
    tlb.insert(0x1000, 0x9000);
    EXPECT_EQ(tlb.lookup(0x1000).value(), 0x9000u);
}

TEST(Tlb, ProbeHasNoEffect)
{
    TlbArray tlb("t", 2);
    tlb.insert(0x1000, 0x8000);
    tlb.insert(0x2000, 0x9000);
    EXPECT_EQ(tlb.probe(0x1010).value(), 0x8010u);
    EXPECT_FALSE(tlb.probe(0x3000).has_value());
    EXPECT_EQ(tlb.hits(), 0u);
    EXPECT_EQ(tlb.misses(), 0u);
    tlb.insert(0x3000, 0xa000); // 0x1000 is still the LRU entry.
    EXPECT_FALSE(tlb.probe(0x1000).has_value());
}

/** The TLB's checkpoint image: entries, recency and statistics. */
std::string
tlbImage(const TlbArray &tlb)
{
    checkpoint::Serializer ser;
    ser.chunk("tlb", tlb);
    return ser.image();
}

TEST(Tlb, ReplayHitsEqualsRepeatedLookups)
{
    // Four full entries, one a superpage, touched out of insertion
    // order so that recency and insertion order disagree.
    const auto filled = [] {
        TlbArray tlb("t", 4);
        tlb.insert(0x1000, 0x11000);
        tlb.insert(0x2000, 0x12000);
        tlb.insert(0x40'0000, 0x80'0000, 21);
        tlb.insert(0x3000, 0x13000);
        tlb.lookup(0x1000);
        tlb.lookup(0x3000);
        return tlb;
    };
    const std::vector<std::vector<Addr>> cases = {
        {0x2008},           // One VA, as a port-blocked read retries.
        {0x2008, 0x40'1230}, // A TIB offset word: two entries.
        {0x40'1230, 0x2008},
        {0x3010, 0x3018},   // Both VAs in one entry.
    };
    const std::vector<Addr> pages = {0x1000, 0x2000, 0x40'0000, 0x3000};
    for (const auto &vas : cases) {
        for (const std::uint64_t rounds : {0u, 1u, 2u, 7u}) {
            SCOPED_TRACE(testing::Message() << vas.size() << " VAs from "
                                            << std::hex << vas[0]
                                            << std::dec << ", " << rounds
                                            << " rounds");
            TlbArray replayed = filled();
            TlbArray looked_up = filled();
            replayed.replayHits(vas, rounds);
            for (std::uint64_t r = 0; r < rounds; ++r) {
                for (const Addr va : vas) {
                    ASSERT_TRUE(looked_up.lookup(va).has_value());
                }
            }
            EXPECT_EQ(replayed.hits(), looked_up.hits());
            EXPECT_EQ(replayed.hits(), 2 + rounds * vas.size());
            EXPECT_EQ(tlbImage(replayed), tlbImage(looked_up));
            // The next insert evicts the same least recently used page.
            replayed.insert(0x9000, 0x19000);
            looked_up.insert(0x9000, 0x19000);
            for (const Addr page : pages) {
                EXPECT_EQ(replayed.probe(page).has_value(),
                          looked_up.probe(page).has_value())
                    << std::hex << page;
            }
            EXPECT_EQ(tlbImage(replayed), tlbImage(looked_up));
        }
    }
}

/** Fixture with a PTW wired through a bus to ideal memory. */
class PtwTest : public testing::Test
{
  protected:
    PtwTest()
        : table_(mem_, 0x10000, 4 << 20),
          ideal_("mem", IdealMemParams{}, mem_),
          bus_("bus", InterconnectParams{}, ideal_)
    {
        table_.map(0x4000'0000, 0x4000'0000, 16 * pageBytes);
        ptw_ = std::make_unique<Ptw>("ptw", PtwParams{}, table_,
                                     makePort());
        bus_.setClientResponder(portId_, ptw_.get());
        ptwPort_ = ptw_->registerRequester("test");
    }

    MemPort *
    makePort()
    {
        port_ = std::make_unique<BusPort>(bus_, nullptr, "ptw");
        portId_ = port_->clientId();
        return port_.get();
    }

    void
    run(Tick cycles)
    {
        for (Tick t = 0; t < cycles; ++t) {
            ptw_->tick(now_);
            bus_.tick(now_);
            ideal_.tick(now_);
            ++now_;
        }
    }

    PhysMem mem_;
    PageTable table_;
    IdealMem ideal_;
    Interconnect bus_;
    std::unique_ptr<BusPort> port_;
    unsigned portId_ = 0;
    std::unique_ptr<Ptw> ptw_;
    unsigned ptwPort_ = 0;
    Tick now_ = 0;
};

TEST_F(PtwTest, WalkResolves)
{
    bool done = false;
    Addr result = 0;
    ptw_->requestWalk(ptwPort_, 0x4000'2abc, now_,
                      [&](bool valid, Addr, Addr pa, unsigned) {
        EXPECT_TRUE(valid);
        result = pa;
        done = true;
    });
    run(200);
    EXPECT_TRUE(done);
    EXPECT_EQ(result, 0x4000'2abcu);
    EXPECT_EQ(ptw_->walksStarted(), 1u);
    EXPECT_EQ(ptw_->pteFetches(), ptLevels);
}

TEST_F(PtwTest, UnmappedWalkReportsInvalid)
{
    bool done = false;
    ptw_->requestWalk(ptwPort_, 0x7000'0000, now_,
                      [&](bool valid, Addr, Addr, unsigned) {
        EXPECT_FALSE(valid);
        done = true;
    });
    run(200);
    EXPECT_TRUE(done);
}

TEST_F(PtwTest, L2TlbShortcutsRepeatWalks)
{
    int walks_done = 0;
    ptw_->requestWalk(ptwPort_, 0x4000'3000, now_,
                      [&](bool, Addr, Addr, unsigned) {
        ++walks_done;
    });
    run(200);
    const auto pte_fetches = ptw_->pteFetches();
    ptw_->requestWalk(ptwPort_, 0x4000'3008, now_,
                      [&](bool, Addr, Addr, unsigned) {
        ++walks_done;
    });
    run(200);
    EXPECT_EQ(walks_done, 2);
    EXPECT_EQ(ptw_->pteFetches(), pte_fetches); // No new PTE reads.
    EXPECT_EQ(ptw_->l2TlbHits(), 1u);
}

TEST_F(PtwTest, WalksSerialize)
{
    // Two walks to distinct pages: the second completes after the
    // first (blocking walker).
    Tick first_done = 0, second_done = 0;
    ptw_->requestWalk(ptwPort_, 0x4000'4000, now_,
                      [&](bool, Addr, Addr, unsigned) {
        first_done = now_;
    });
    ptw_->requestWalk(ptwPort_, 0x4000'5000, now_,
                      [&](bool, Addr, Addr, unsigned) {
        second_done = now_;
    });
    run(500);
    EXPECT_GT(first_done, 0u);
    EXPECT_GT(second_done, first_done);
}

TEST_F(PtwTest, QueueCapacityIsEnforced)
{
    unsigned accepted = 0;
    while (ptw_->canRequest(ptwPort_)) {
        ptw_->requestWalk(ptwPort_,
                          0x4000'0000 + Addr(accepted) * pageBytes, now_,
                          [](bool, Addr, Addr, unsigned) {});
        ++accepted;
    }
    EXPECT_EQ(accepted, PtwParams{}.queueDepth);
    run(5000);
    EXPECT_TRUE(ptw_->canRequest(ptwPort_));
    EXPECT_FALSE(ptw_->busy());
}

} // namespace
} // namespace hwgc::mem
