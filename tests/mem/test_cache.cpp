/**
 * @file
 * Unit tests for the cache model and the two-level hierarchy.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "sim/checkpoint.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace {

using namespace csb;
using mem::Cache;
using mem::CacheHierarchy;
using mem::CacheParams;
using mem::LineState;

CacheParams
tiny(unsigned size, unsigned assoc, unsigned line, Tick lat)
{
    CacheParams params;
    params.sizeBytes = size;
    params.assoc = assoc;
    params.lineBytes = line;
    params.hitLatency = lat;
    return params;
}

TEST(Cache, MissThenHit)
{
    Cache cache(tiny(1024, 2, 64, 1), "c");
    EXPECT_FALSE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x100, false).hit);
    EXPECT_TRUE(cache.access(0x13f, false).hit) << "same line";
    EXPECT_FALSE(cache.access(0x140, false).hit) << "next line";
    EXPECT_EQ(cache.hits.value(), 2.0);
    EXPECT_EQ(cache.misses.value(), 2.0);
}

TEST(Cache, LruReplacementWithinSet)
{
    // 2-way, 64B lines, 256B total: 2 sets.  Addresses 0x000, 0x080,
    // 0x100 map to set 0.
    Cache cache(tiny(256, 2, 64, 1), "c");
    cache.access(0x000, false);
    cache.access(0x080, false);
    cache.access(0x000, false);           // touch; 0x080 becomes LRU
    cache.access(0x100, false);           // evicts 0x080
    EXPECT_NE(cache.lineState(0x000), LineState::Invalid);
    EXPECT_EQ(cache.lineState(0x080), LineState::Invalid);
    EXPECT_NE(cache.lineState(0x100), LineState::Invalid);
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache cache(tiny(128, 1, 64, 1), "c"); // direct-mapped, 2 sets
    cache.access(0x000, true);             // dirty
    auto result = cache.access(0x080, false); // same set, evicts
    EXPECT_TRUE(result.writeback);
    EXPECT_EQ(result.writebackAddr, 0x000u);
    EXPECT_EQ(cache.writebacks.value(), 1.0);
}

TEST(Cache, CleanEvictionSilent)
{
    Cache cache(tiny(128, 1, 64, 1), "c");
    cache.access(0x000, false);
    auto result = cache.access(0x080, false);
    EXPECT_FALSE(result.writeback);
}

TEST(Cache, InvalidatedLineMisses)
{
    Cache cache(tiny(1024, 2, 64, 1), "c");
    cache.access(0x100, false);
    cache.setLineState(0x100, LineState::Invalid);
    EXPECT_EQ(cache.lineState(0x100), LineState::Invalid);
    EXPECT_FALSE(cache.access(0x100, false).hit);
}

/** Building a cache with @p params must be fatal, naming @p field. */
void
expectFatalNaming(const CacheParams &params, const std::string &field)
{
    try {
        Cache cache(params, "c");
        ADD_FAILURE() << "geometry accepted; expected a fatal on "
                      << field;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
    }
}

TEST(Cache, BadGeometryIsFatal)
{
    EXPECT_THROW(Cache(tiny(100, 3, 64, 1), "c"), FatalError);
    EXPECT_THROW(Cache(tiny(1024, 2, 48, 1), "c"), FatalError);
    // 0 % (assoc * lineBytes) == 0, so a zero size once passed and
    // left zero sets: the first access divided by zero.
    expectFatalNaming(tiny(0, 2, 64, 1), "sizeBytes");
    // 2^26 * 64 wraps a 32-bit product to 0, and validation itself
    // divided by zero.
    expectFatalNaming(tiny(1024, 1u << 26, 64, 1), "assoc");
    expectFatalNaming(tiny(0, 0, 64, 1), "assoc");
}

/** The checkpoint bytes of @p cache, alone in section "c". */
std::string
savedBytes(const Cache &cache)
{
    sim::CheckpointWriter cw;
    cw.beginSection("c");
    cache.checkpointSave(cw);
    std::ostringstream os;
    cw.writeTo(os);
    return os.str();
}

/** One line record as docs/CHECKPOINT.md lays it out. */
struct LineRecord
{
    std::uint64_t tag = 0;
    std::uint8_t flags = 0;
    std::uint64_t lastUse = 0;
};

/** One listed set: its index and its assoc line records. */
struct SetRecord
{
    std::uint32_t set = 0;
    std::vector<LineRecord> lines;
};

/** Hand-built checkpoint of a cache of @p num_lines with @p sets. */
std::string
expectedBytes(std::uint64_t use_clock, std::uint64_t num_lines,
              const std::vector<SetRecord> &sets)
{
    sim::CheckpointWriter cw;
    cw.beginSection("c");
    cw.putU64(use_clock);
    cw.putU64(num_lines);
    cw.putU32(static_cast<std::uint32_t>(sets.size()));
    for (const SetRecord &set : sets) {
        cw.putU32(set.set);
        for (const LineRecord &line : set.lines) {
            cw.putU64(line.tag);
            cw.putU8(line.flags);
            cw.putU64(line.lastUse);
        }
    }
    std::ostringstream os;
    cw.writeTo(os);
    return os.str();
}

/** Restore @p saved (a savedBytes image) into @p cache. */
void
restoreFrom(Cache &cache, const std::string &saved)
{
    std::istringstream is(saved);
    sim::CheckpointReader cr = sim::CheckpointReader::readFrom(is);
    cr.openSection("c");
    cache.checkpointRestore(cr);
    cr.closeSection();
}

/** Restoring @p image must be fatal, naming the cache and @p what. */
void
expectRestoreFatal(const std::string &image, const std::string &what)
{
    Cache cache(tiny(512, 1, 64, 1), "c"); // direct-mapped, 8 sets
    try {
        restoreFrom(cache, image);
        ADD_FAILURE() << "image accepted; expected a fatal on " << what;
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("cache 'c'"), std::string::npos) << msg;
        EXPECT_NE(msg.find(what), std::string::npos) << msg;
    }
}

TEST(CacheCheckpoint, UntouchedCacheSavesNoSets)
{
    // Sets come to life on their first fill; one that never did holds
    // only invalid lines and is not listed.
    Cache cache(tiny(1024, 2, 64, 1), "c");
    EXPECT_EQ(savedBytes(cache), expectedBytes(0, 16, {}));
}

TEST(CacheCheckpoint, InvalidatedLineKeepsTagAndLastUse)
{
    // 2-way, 2 sets: 0x080 is tag 2 in set 0 and fills way 0.
    Cache cache(tiny(256, 2, 64, 1), "c");
    cache.access(0x080, true);
    cache.setLineState(0x080, LineState::Invalid);
    EXPECT_EQ(savedBytes(cache),
              expectedBytes(1, 4, {{0, {{2, 0, 1}, {}}}}));
}

TEST(CacheCheckpoint, RoundTripOfPartlyTouchedCacheIsExact)
{
    // 2-way, 8 sets, 64 B lines: 0x000/0x200/0x400 share set 0.
    const CacheParams params = tiny(1024, 2, 64, 1);
    Cache original(params, "c");
    original.access(0x000, true);
    original.access(0x200, false);
    original.access(0x0c0, true);
    original.access(0x140, false);
    original.setLineState(0x140, LineState::Invalid);
    const std::string saved = savedBytes(original);

    Cache restored(params, "c");
    restoreFrom(restored, saved);
    EXPECT_EQ(savedBytes(restored), saved);
    EXPECT_EQ(restored.allocatedLines(), original.allocatedLines());

    // Hits, misses, LRU victims and writebacks go on exactly as on the
    // cache that was never saved: touched sets, the invalidated line
    // and sets that were never live before the restore.
    const Addr addrs[] = {0x000, 0x400, 0x200, 0x000, 0x140, 0x0c0,
                          0x2c0, 0x4c0, 0x380, 0x180, 0x380, 0x600};
    for (Addr addr : addrs) {
        bool is_write = (addr & 0x100) != 0;
        Cache::AccessResult want = original.access(addr, is_write);
        Cache::AccessResult got = restored.access(addr, is_write);
        EXPECT_EQ(got.hit, want.hit) << std::hex << addr;
        EXPECT_EQ(got.writeback, want.writeback) << std::hex << addr;
        EXPECT_EQ(got.writebackAddr, want.writebackAddr) << std::hex << addr;
    }
    EXPECT_EQ(savedBytes(restored), savedBytes(original));
}

TEST(CacheCheckpoint, SetsLiveOutOfIndexOrderSaveInIndexOrder)
{
    // Direct-mapped, 8 sets, 64 B lines: set = (addr / 64) % 8.  Sets
    // 6, 1 and 4 come alive in that order, so their lines sit in that
    // order in storage; the image still lists the sets by index.
    const CacheParams params = tiny(512, 1, 64, 1);
    Cache original(params, "c");
    original.access(0x180, true);  // set 6, tag 6
    original.access(0x040, false); // set 1, tag 1
    original.access(0x300, true);  // set 4, tag 12
    const std::string saved = savedBytes(original);
    EXPECT_EQ(saved, expectedBytes(3, 8,
                                   {{1, {{1, 1, 2}}},
                                    {4, {{12, 3, 3}}},
                                    {6, {{6, 3, 1}}}}));

    // One cache restores into fresh storage (sets live in index
    // order), another had brought sets 4 and 0 to life first.  Set 0
    // keeps its storage as an invalid line, so that cache lists it.
    Cache fresh(params, "c");
    restoreFrom(fresh, saved);
    Cache used(params, "c");
    used.access(0x100, false); // set 4
    used.access(0x000, true);  // set 0
    restoreFrom(used, saved);
    EXPECT_EQ(savedBytes(fresh), saved);
    EXPECT_EQ(savedBytes(used), expectedBytes(3, 8,
                                              {{0, {{}}},
                                               {1, {{1, 1, 2}}},
                                               {4, {{12, 3, 3}}},
                                               {6, {{6, 3, 1}}}}));

    const Addr addrs[] = {0x040, 0x180, 0x380, 0x100, 0x300, 0x000,
                          0x240, 0x140, 0x040, 0x1c0, 0x300};
    for (Addr addr : addrs) {
        bool is_write = (addr & 0x100) != 0;
        Cache::AccessResult want = original.access(addr, is_write);
        for (Cache *restored : {&fresh, &used}) {
            Cache::AccessResult got = restored->access(addr, is_write);
            EXPECT_EQ(got.hit, want.hit) << std::hex << addr;
            EXPECT_EQ(got.writeback, want.writeback) << std::hex << addr;
            EXPECT_EQ(got.writebackAddr, want.writebackAddr)
                << std::hex << addr;
        }
    }
    // Every set the image left out has been filled since.
    EXPECT_EQ(savedBytes(fresh), savedBytes(original));
    EXPECT_EQ(savedBytes(used), savedBytes(original));
}

TEST(Cache, LinesAllocatedOnlyForSetsThatCameAlive)
{
    Cache cache(tiny(1024, 2, 64, 1), "c"); // 2-way, 8 sets
    EXPECT_EQ(cache.allocatedLines(), 0u);
    cache.access(0x000, false);
    cache.access(0x200, true); // same set
    EXPECT_EQ(cache.allocatedLines(), 2u);
    cache.access(0x0c0, false);
    EXPECT_EQ(cache.allocatedLines(), 4u);
}

TEST(CacheCheckpoint, RepeatedRestoresDoNotGrowStorage)
{
    // The image lists sets 0 and 3; the cache restored into has lines
    // in sets 0, 1, 2 and 5.  Sets 1, 2 and 5 become invalid lines
    // that keep their storage; only set 3 is new.
    const CacheParams params = tiny(1024, 2, 64, 1);
    Cache original(params, "c");
    original.access(0x000, true);
    original.access(0x0c0, false);
    const std::string saved = savedBytes(original);
    const std::string empty = savedBytes(Cache(params, "c"));

    Cache cache(params, "c");
    const Addr filled[] = {0x400, 0x040, 0x240, 0x080, 0x140, 0x540};
    for (Addr addr : filled)
        cache.access(addr, true);
    ASSERT_EQ(cache.allocatedLines(), 8u);
    for (int round = 0; round < 5; ++round) {
        restoreFrom(cache, saved);
        EXPECT_EQ(cache.allocatedLines(), 10u) << "round " << round;
        for (Addr addr : filled) {
            EXPECT_EQ(cache.lineState(addr), LineState::Invalid)
                << "round " << round << std::hex << " addr " << addr;
        }
        EXPECT_EQ(cache.lineState(0x000), LineState::Modified);
        EXPECT_EQ(cache.lineState(0x0c0), LineState::Exclusive);
        // Refilling the sets the image left out reuses their storage.
        for (Addr addr : filled)
            cache.access(addr, true);
        restoreFrom(cache, empty);
        EXPECT_EQ(cache.allocatedLines(), 10u) << "round " << round;
        for (Addr addr : {0x000, 0x0c0, 0x400, 0x040, 0x540}) {
            EXPECT_EQ(cache.lineState(addr), LineState::Invalid)
                << "round " << round << std::hex << " addr " << addr;
        }
    }
}

TEST(CacheCheckpoint, RestoreIntoUsedCacheIsExact)
{
    // 2-way, 8 sets, 64 B lines.  The saved cache touches sets 0 and
    // 3 only; the cache restored into has live lines in sets 0, 1, 2
    // and 5, which the image does not list.
    const CacheParams params = tiny(1024, 2, 64, 1);
    Cache original(params, "c");
    original.access(0x000, true);
    original.access(0x200, false);
    original.access(0x0c0, true);
    const std::string saved = savedBytes(original);

    Cache restored(params, "c");
    for (Addr addr : {0x400, 0x040, 0x240, 0x080, 0x140, 0x540})
        restored.access(addr, true);
    restoreFrom(restored, saved);
    // Sets 1, 2 and 5 stay allocated as invalid lines; set 3 is new.
    EXPECT_EQ(restored.allocatedLines(), 10u);
    EXPECT_EQ(savedBytes(restored),
              expectedBytes(3, 16,
                            {{0, {{0, 3, 1}, {8, 1, 2}}},
                             {1, {{}, {}}},
                             {2, {{}, {}}},
                             {3, {{3, 3, 3}, {}}},
                             {5, {{}, {}}}}));

    // The lines filled before the restore are gone: every set behaves
    // as in the saved cache, whether it was live there or not.
    const Addr addrs[] = {0x400, 0x040, 0x240, 0x080, 0x140, 0x540,
                          0x000, 0x440, 0x600, 0x200, 0x0c0, 0x2c0,
                          0x640, 0x040, 0x140, 0x4c0, 0x280};
    for (Addr addr : addrs) {
        bool is_write = (addr & 0x200) != 0;
        Cache::AccessResult want = original.access(addr, is_write);
        Cache::AccessResult got = restored.access(addr, is_write);
        EXPECT_EQ(got.hit, want.hit) << std::hex << addr;
        EXPECT_EQ(got.writeback, want.writeback) << std::hex << addr;
        EXPECT_EQ(got.writebackAddr, want.writebackAddr) << std::hex << addr;
    }
    EXPECT_EQ(restored.allocatedLines(), 10u);
    EXPECT_EQ(savedBytes(restored), savedBytes(original));
}

TEST(CacheCheckpoint, RejectsMalformedSetLists)
{
    // The restoring cache is direct-mapped with 8 sets.
    {
        sim::CheckpointWriter cw;
        cw.beginSection("c");
        cw.putU64(0);
        cw.putU64(8);
        cw.putU32(9); // live sets, more than the cache has
        std::ostringstream os;
        cw.writeTo(os);
        expectRestoreFatal(os.str(), "9 live sets");
    }
    expectRestoreFatal(expectedBytes(1, 8, {{8, {{1, 1, 1}}}}), "set 8");
    expectRestoreFatal(
        expectedBytes(2, 8, {{3, {{3, 1, 1}}}, {3, {{11, 1, 2}}}}),
        "set 3 after set 3");
    expectRestoreFatal(
        expectedBytes(2, 8, {{5, {{5, 1, 1}}}, {2, {{2, 1, 2}}}}),
        "set 2 after set 5");
}

TEST(Hierarchy, LatenciesStack)
{
    CacheHierarchy hierarchy(tiny(1024, 2, 64, 2), tiny(8192, 4, 64, 8),
                             90, "h");
    // Cold: L1(2) + L2(8) + memory(90) = 100.
    EXPECT_EQ(hierarchy.accessLatency(0x1000, false), 100u);
    // Warm: L1 hit.
    EXPECT_EQ(hierarchy.accessLatency(0x1000, false), 2u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    // L1: direct-mapped 128B (2 lines); L2 big enough to keep both.
    CacheHierarchy hierarchy(tiny(128, 1, 64, 2), tiny(8192, 4, 64, 8),
                             90, "h");
    hierarchy.accessLatency(0x000, false);
    hierarchy.accessLatency(0x080, false); // evicts 0x000 from L1
    // 0x000: L1 miss, L2 hit = 2 + 8.
    EXPECT_EQ(hierarchy.accessLatency(0x000, false), 10u);
}

TEST(Hierarchy, TouchWarmsBothLevels)
{
    CacheHierarchy hierarchy(tiny(1024, 2, 64, 2), tiny(8192, 4, 64, 8),
                             90, "h");
    hierarchy.touch(0x2000);
    EXPECT_EQ(hierarchy.accessLatency(0x2000, false), 2u);
}

TEST(Hierarchy, InvalidInBothLevelsForcesFullMiss)
{
    CacheHierarchy hierarchy(tiny(1024, 2, 64, 2), tiny(8192, 4, 64, 8),
                             90, "h");
    hierarchy.touch(0x2000);
    hierarchy.l1().setLineState(0x2000, LineState::Invalid);
    hierarchy.l2().setLineState(0x2000, LineState::Invalid);
    EXPECT_EQ(hierarchy.accessLatency(0x2000, false), 100u);
}

TEST(Hierarchy, AsyncAccessCompletesAtLatency)
{
    CacheHierarchy hierarchy(tiny(1024, 2, 64, 2), tiny(8192, 4, 64, 8),
                             90, "h");
    sim::EventQueue events;
    hierarchy.deferredCall = [&](Tick when, std::function<void()> fn) {
        events.scheduleFunc(when, std::move(fn));
    };
    Tick completed = 0;
    hierarchy.access(0x3000, false, 10,
                     [&](Tick when) { completed = when; });
    events.serviceUntil(1000);
    EXPECT_EQ(completed, 110u); // 10 + 100 cold
    hierarchy.access(0x3000, false, 2000,
                     [&](Tick when) { completed = when; });
    events.serviceUntil(3000);
    EXPECT_EQ(completed, 2002u); // 2000 + 2 warm
}

TEST(Hierarchy, LineFetchRoutesMisses)
{
    CacheHierarchy hierarchy(tiny(1024, 2, 64, 2), tiny(8192, 4, 64, 8),
                             90, "h");
    sim::EventQueue events;
    hierarchy.deferredCall = [&](Tick when, std::function<void()> fn) {
        events.scheduleFunc(when, std::move(fn));
    };
    Addr fetched = 0;
    hierarchy.setLineFetch([&](Addr line, std::function<void(Tick)> done) {
        fetched = line;
        events.scheduleFunc(500, [done] { done(500); });
    });
    Tick completed = 0;
    hierarchy.access(0x3010, false, 0,
                     [&](Tick when) { completed = when; });
    events.serviceUntil(1000);
    EXPECT_EQ(fetched, 0x3000u) << "fetch is line-aligned";
    EXPECT_EQ(completed, 500u);
}

} // namespace
