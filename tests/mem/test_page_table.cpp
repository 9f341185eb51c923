/**
 * @file
 * Unit tests for page attributes and the TLB (ASIDs, LRU, refills),
 * plus a differential test of the range page table against the
 * per-page map it replaced.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "mem/page_table.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace {

using namespace csb;
using mem::PageAttr;
using mem::PageTable;
using mem::Tlb;

constexpr Addr kPage = PageTable::pageSize;
constexpr Addr kTopPage = 0xFFFF'FFFF'FFFF'F000;

TEST(PageTable, DefaultsToCached)
{
    PageTable pt;
    EXPECT_EQ(pt.attrOf(0x1234), PageAttr::Cached);
}

TEST(PageTable, AttrCoversWholePages)
{
    PageTable pt;
    pt.setAttr(0x2000, 1, PageAttr::Uncached);
    EXPECT_EQ(pt.attrOf(0x2000), PageAttr::Uncached);
    EXPECT_EQ(pt.attrOf(0x2fff), PageAttr::Uncached);
    EXPECT_EQ(pt.attrOf(0x3000), PageAttr::Cached);
}

TEST(PageTable, MultiPageRange)
{
    PageTable pt;
    pt.setAttr(0x10000, 3 * PageTable::pageSize,
               PageAttr::UncachedCombining);
    EXPECT_EQ(pt.attrOf(0x10000), PageAttr::UncachedCombining);
    EXPECT_EQ(pt.attrOf(0x12fff), PageAttr::UncachedCombining);
    EXPECT_EQ(pt.attrOf(0x13000), PageAttr::Cached);
}

TEST(PageTable, TopPageOfAddressSpaceMaps)
{
    PageTable pt;
    pt.setAttr(kTopPage - kPage, 2 * kPage, PageAttr::Uncached);
    EXPECT_EQ(pt.attrOf(kTopPage - kPage - 1), PageAttr::Cached);
    EXPECT_EQ(pt.attrOf(kTopPage - kPage), PageAttr::Uncached);
    EXPECT_EQ(pt.attrOf(~Addr{0}), PageAttr::Uncached);

    // A sub-page range ending on the very last byte, over the top.
    pt.setAttr(kTopPage + 0x10, kPage - 0x10, PageAttr::UncachedCombining);
    EXPECT_EQ(pt.attrOf(kTopPage - 1), PageAttr::Uncached);
    EXPECT_EQ(pt.attrOf(kTopPage), PageAttr::UncachedCombining);
    EXPECT_EQ(pt.attrOf(~Addr{0}), PageAttr::UncachedCombining);
}

TEST(PageTable, RangeWrappingPastAddressSpaceIsFatal)
{
    PageTable pt;
    EXPECT_THROW(pt.setAttr(kTopPage, 2 * kPage, PageAttr::Uncached),
                 FatalError);
    EXPECT_THROW(pt.setAttr(2, ~Addr{0}, PageAttr::Uncached), FatalError);
    EXPECT_EQ(pt.attrOf(kTopPage), PageAttr::Cached)
        << "a rejected range must not change the table";
    EXPECT_EQ(pt.attrOf(2), PageAttr::Cached);

    try {
        pt.setAttr(kTopPage + 0x800, kPage, PageAttr::Uncached);
        FAIL() << "wrapping range accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("base=0xfffffffffffff800"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("size=0x1000"), std::string::npos) << msg;
    }
}

/**
 * The per-page map PageTable used to be, kept as the oracle for the
 * range table.  Loops forever on the top page, so callers stay below.
 */
class PerPageTable
{
  public:
    void
    setAttr(Addr base, Addr size, PageAttr attr)
    {
        Addr first = roundDown(base, kPage);
        Addr last = roundDown(base + size - 1, kPage);
        for (Addr page = first; page <= last; page += kPage)
            pages_[page] = attr;
    }

    PageAttr
    attrOf(Addr addr) const
    {
        auto it = pages_.find(roundDown(addr, kPage));
        return it == pages_.end() ? PageAttr::Cached : it->second;
    }

  private:
    std::map<Addr, PageAttr> pages_;
};

TEST(PageTable, MatchesPerPageMapOnRandomSequences)
{
    constexpr Addr kWindowPages = 64;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        sim::Random rng(seed);
        PageTable table;
        PerPageTable oracle;
        // Base 0 exercises the base-1 probe wrapping to the top.
        const Addr origin = rng.chance(0.2) ? 0 : rng.uniform(1, 8) << 28;
        struct Call { Addr base, size; };
        std::vector<Call> calls;

        const unsigned count = unsigned(rng.uniform(1, 24));
        for (unsigned i = 0; i < count; ++i) {
            Call call{};
            const unsigned shape =
                calls.empty() ? 0 : unsigned(rng.uniform(0, 4));
            const Call prev = calls.empty()
                                  ? Call{}
                                  : calls[rng.uniform(0, calls.size() - 1)];
            switch (shape) {
              case 0: // anywhere, sub-page base and size
                call.base = origin + rng.uniform(0, kWindowPages * kPage - 1);
                call.size = rng.uniform(1, 16 * kPage);
                break;
              case 1: // anywhere, whole pages
                call.base = origin + rng.uniform(0, kWindowPages - 1) * kPage;
                call.size = rng.uniform(1, 16) * kPage;
                break;
              case 2: // nested inside an earlier call
                call.base = prev.base + rng.uniform(0, prev.size - 1);
                call.size =
                    rng.uniform(1, prev.base + prev.size - call.base);
                break;
              case 3: // adjacent to an earlier call, either side
                call.size = rng.uniform(1, 8 * kPage);
                call.base = rng.chance(0.5) || prev.base < call.size
                                ? prev.base + prev.size
                                : prev.base - call.size;
                break;
              default: // the same range again
                call = prev;
                break;
            }
            const auto attr = static_cast<PageAttr>(rng.uniform(0, 3));
            table.setAttr(call.base, call.size, attr);
            oracle.setAttr(call.base, call.size, attr);
            calls.push_back(call);

            std::vector<Addr> probes;
            for (const Call &c : calls) {
                const Addr end = c.base + c.size;
                probes.insert(probes.end(),
                              {c.base - 1, c.base, end - 1, end});
            }
            for (int r = 0; r < 16; ++r)
                probes.push_back(
                    origin + rng.uniform(0, (kWindowPages + 24) * kPage));
            for (Addr addr : probes)
                ASSERT_EQ(table.attrOf(addr), oracle.attrOf(addr))
                    << "seed " << seed << " call " << i << " addr 0x"
                    << std::hex << addr;
        }
    }
}

TEST(PageTable, UncachedAttrs)
{
    EXPECT_TRUE(isUncachedAttr(PageAttr::Uncached));
    EXPECT_TRUE(isUncachedAttr(PageAttr::UncachedCombining));
    EXPECT_FALSE(isUncachedAttr(PageAttr::Cached));
}

TEST(Tlb, HitAfterRefill)
{
    PageTable pt;
    pt.setAttr(0x5000, 1, PageAttr::Uncached);
    Tlb tlb(pt, 4, 20);
    Tick penalty = 0;
    EXPECT_EQ(tlb.translate(0x5010, 1, penalty), PageAttr::Uncached);
    EXPECT_EQ(penalty, 20u) << "first access misses";
    EXPECT_EQ(tlb.translate(0x5020, 1, penalty), PageAttr::Uncached);
    EXPECT_EQ(penalty, 0u) << "second access hits";
    EXPECT_EQ(tlb.hits.value(), 1.0);
    EXPECT_EQ(tlb.misses.value(), 1.0);
}

TEST(Tlb, AsidsDoNotAlias)
{
    PageTable pt;
    Tlb tlb(pt, 4, 20);
    Tick penalty = 0;
    tlb.translate(0x5000, 1, penalty);
    EXPECT_EQ(penalty, 20u);
    // Same page, different ASID: must miss (no flush needed -- the
    // space identifier disambiguates, as in MIPS/Alpha).
    tlb.translate(0x5000, 2, penalty);
    EXPECT_EQ(penalty, 20u);
    // Original ASID still hits.
    tlb.translate(0x5000, 1, penalty);
    EXPECT_EQ(penalty, 0u);
}

TEST(Tlb, LruEviction)
{
    PageTable pt;
    Tlb tlb(pt, 2, 20);
    Tick penalty = 0;
    tlb.translate(0x1000, 1, penalty); // A
    tlb.translate(0x2000, 1, penalty); // B
    tlb.translate(0x1000, 1, penalty); // touch A
    tlb.translate(0x3000, 1, penalty); // C evicts B (LRU)
    tlb.translate(0x1000, 1, penalty);
    EXPECT_EQ(penalty, 0u) << "A must have survived";
    tlb.translate(0x2000, 1, penalty);
    EXPECT_EQ(penalty, 20u) << "B must have been evicted";
}

TEST(Tlb, PicksUpPageTableChangesAfterEviction)
{
    PageTable pt;
    Tlb tlb(pt, 1, 20);
    Tick penalty = 0;
    EXPECT_EQ(tlb.translate(0x7000, 1, penalty), PageAttr::Cached);
    pt.setAttr(0x7000, 1, PageAttr::UncachedCombining);
    // Stale while cached -- exactly how real TLBs behave.
    EXPECT_EQ(tlb.translate(0x7000, 1, penalty), PageAttr::Cached);
    tlb.translate(0x8000, 1, penalty); // evicts the stale entry
    EXPECT_EQ(tlb.translate(0x7000, 1, penalty),
              PageAttr::UncachedCombining);
}

} // namespace
