/**
 * @file
 * Unit tests for the MESI coherence policy and the snooping cache
 * hierarchy: a table-driven walk of every (state x local-op) and
 * (state x snoop-op) cell of the protocol, plus two-hierarchy
 * integration through a lambda snoop fabric (no bus needed) and a
 * random-walk invariant check.
 */

#include <gtest/gtest.h>

#include <random>

#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "sim/logging.hh"

namespace {

using namespace csb;
using mem::CacheHierarchy;
using mem::CacheParams;
using mem::CoherenceParams;
using mem::LineState;
using mem::MesiPolicy;
using bus::SnoopKind;

/** I, S, E or M, for failure messages. */
char
letter(LineState state)
{
    return "ISEM"[static_cast<unsigned>(state)];
}

CacheParams
geom(unsigned size, unsigned assoc, unsigned line, Tick lat)
{
    CacheParams params;
    params.sizeBytes = size;
    params.assoc = assoc;
    params.lineBytes = line;
    params.hitLatency = lat;
    return params;
}

CoherenceParams
mesiParams()
{
    CoherenceParams params;
    params.kind = mem::CoherenceKind::Mesi;
    params.upgradeLatency = 12;
    params.cacheToCacheLatency = 30;
    return params;
}

// ---------------------------------------------------------------------
// Policy table walk: every cell of the MESI transition tables.
// ---------------------------------------------------------------------

TEST(MesiPolicy, FillStateTable)
{
    MesiPolicy mesi;
    // (is_write, others_had_copy) -> fill state
    EXPECT_EQ(mesi.fillState(false, false), LineState::Exclusive);
    EXPECT_EQ(mesi.fillState(false, true), LineState::Shared);
    EXPECT_EQ(mesi.fillState(true, false), LineState::Modified);
    EXPECT_EQ(mesi.fillState(true, true), LineState::Modified);
}

TEST(MesiPolicy, WriteUpgradeTable)
{
    MesiPolicy mesi;
    EXPECT_FALSE(mesi.writeNeedsUpgrade(LineState::Invalid));
    EXPECT_TRUE(mesi.writeNeedsUpgrade(LineState::Shared));
    EXPECT_FALSE(mesi.writeNeedsUpgrade(LineState::Exclusive));
    EXPECT_FALSE(mesi.writeNeedsUpgrade(LineState::Modified));
}

TEST(MesiPolicy, SnoopTable)
{
    struct Cell
    {
        LineState cur;
        SnoopKind kind;
        LineState next;
        bool supply;
        bool writeback;
    };
    // Every (state x probe) cell, including the ones a well-formed run
    // never reaches (the policy must stay total).
    const Cell cells[] = {
        {LineState::Invalid, SnoopKind::Read,
         LineState::Invalid, false, false},
        {LineState::Invalid, SnoopKind::ReadExclusive,
         LineState::Invalid, false, false},
        {LineState::Invalid, SnoopKind::Upgrade,
         LineState::Invalid, false, false},

        {LineState::Shared, SnoopKind::Read,
         LineState::Shared, false, false},
        {LineState::Shared, SnoopKind::ReadExclusive,
         LineState::Invalid, false, false},
        {LineState::Shared, SnoopKind::Upgrade,
         LineState::Invalid, false, false},

        {LineState::Exclusive, SnoopKind::Read,
         LineState::Shared, true, false},
        {LineState::Exclusive, SnoopKind::ReadExclusive,
         LineState::Invalid, true, false},
        {LineState::Exclusive, SnoopKind::Upgrade,
         LineState::Invalid, false, false},

        {LineState::Modified, SnoopKind::Read,
         LineState::Shared, true, true},
        {LineState::Modified, SnoopKind::ReadExclusive,
         LineState::Invalid, true, true},
        {LineState::Modified, SnoopKind::Upgrade,
         LineState::Invalid, false, true},
    };
    MesiPolicy mesi;
    for (const Cell &cell : cells) {
        mem::SnoopAction act = mesi.snoop(cell.cur, cell.kind);
        SCOPED_TRACE(std::string(1, letter(cell.cur)) + " x " +
                     bus::snoopKindName(cell.kind));
        EXPECT_EQ(act.next, cell.next);
        EXPECT_EQ(act.supply, cell.supply);
        EXPECT_EQ(act.writeback, cell.writeback);
    }
}

// ---------------------------------------------------------------------
// Two hierarchies wired back-to-back through a lambda snoop fabric.
// ---------------------------------------------------------------------

struct TwoCaches
{
    MesiPolicy mesi;
    CacheHierarchy a;
    CacheHierarchy b;

    TwoCaches()
        : a(geom(1024, 2, 64, 2), geom(8192, 4, 64, 8), 90, "a"),
          b(geom(1024, 2, 64, 2), geom(8192, 4, 64, 8), 90, "b")
    {
        a.setCoherence(&mesi, mesiParams(),
                       [this](Addr line, SnoopKind kind) {
                           return probe(b, line, kind);
                       });
        b.setCoherence(&mesi, mesiParams(),
                       [this](Addr line, SnoopKind kind) {
                           return probe(a, line, kind);
                       });
    }

    static bus::SnoopSummary
    probe(CacheHierarchy &other, Addr line, SnoopKind kind)
    {
        bus::SnoopReply reply = other.snoopProbe(line, kind);
        bus::SnoopSummary summary;
        summary.hits = reply.hadCopy ? 1 : 0;
        summary.hadCopy = reply.hadCopy;
        summary.supplied = reply.supplied;
        summary.wroteBack = reply.wroteBack;
        return summary;
    }
};

TEST(CoherentHierarchy, LocalOpStateWalk)
{
    // Local-op dimension of the matrix: drive one hierarchy through
    // every state and check each local read/write lands where the
    // protocol says.
    TwoCaches sys;
    const Addr line = 0x4000;

    // I --read--> E (no other copies).
    EXPECT_EQ(sys.a.lineState(line), LineState::Invalid);
    sys.a.accessLatency(line, false);
    EXPECT_EQ(sys.a.lineState(line), LineState::Exclusive);

    // E --read--> E (silent), E --write--> M (silent).
    sys.a.accessLatency(line, false);
    EXPECT_EQ(sys.a.lineState(line), LineState::Exclusive);
    EXPECT_EQ(sys.a.upgrades.value(), 0.0);
    sys.a.accessLatency(line, true);
    EXPECT_EQ(sys.a.lineState(line), LineState::Modified);
    EXPECT_EQ(sys.a.upgrades.value(), 0.0) << "E->M is silent";

    // M --read/write--> M (silent).
    sys.a.accessLatency(line, false);
    sys.a.accessLatency(line, true);
    EXPECT_EQ(sys.a.lineState(line), LineState::Modified);

    // Remote read: M --snoop-read--> S on both sides.
    sys.b.accessLatency(line, false);
    EXPECT_EQ(sys.a.lineState(line), LineState::Shared);
    EXPECT_EQ(sys.b.lineState(line), LineState::Shared);

    // S --read--> S (silent); S --write--> M via upgrade broadcast,
    // the other copy dies.
    sys.a.accessLatency(line, false);
    EXPECT_EQ(sys.a.lineState(line), LineState::Shared);
    sys.a.accessLatency(line, true);
    EXPECT_EQ(sys.a.lineState(line), LineState::Modified);
    EXPECT_EQ(sys.a.upgrades.value(), 1.0);
    EXPECT_EQ(sys.b.lineState(line), LineState::Invalid);

    // I --write--> M (read-exclusive kills the remote copy).
    sys.b.accessLatency(line, true);
    EXPECT_EQ(sys.b.lineState(line), LineState::Modified);
    EXPECT_EQ(sys.a.lineState(line), LineState::Invalid);
}

TEST(CoherentHierarchy, ReadSharingAndIntervention)
{
    TwoCaches sys;
    const Addr line = 0x8000;

    sys.a.accessLatency(line, true); // A owns the line Modified
    Tick warm = sys.b.accessLatency(0x100, false); // unrelated cold miss
    EXPECT_EQ(warm, 2u + 8u + 90u);

    // B's read is supplied cache-to-cache (30) instead of memory (90),
    // and A demand-writes-back its dirty copy.
    Tick miss = sys.b.accessLatency(line, false);
    EXPECT_EQ(miss, 2u + 8u + 30u);
    EXPECT_EQ(sys.b.cacheToCacheFills.value(), 1.0);
    EXPECT_EQ(sys.a.snoopHits.value(), 1.0);
    EXPECT_EQ(sys.a.snoopWritebacks.value(), 1.0);
    EXPECT_EQ(sys.a.lineState(line), LineState::Shared);
    EXPECT_EQ(sys.b.lineState(line), LineState::Shared);
}

TEST(CoherentHierarchy, UpgradeChargesLatencyAndInvalidates)
{
    TwoCaches sys;
    const Addr line = 0xc000;

    sys.a.accessLatency(line, false);
    sys.b.accessLatency(line, false); // both Shared now
    EXPECT_EQ(sys.a.lineState(line), LineState::Shared);
    EXPECT_EQ(sys.b.lineState(line), LineState::Shared);

    // Upgrade: write hit costs the L1 hit plus the broadcast.
    Tick write = sys.a.accessLatency(line, true);
    EXPECT_EQ(write, 2u + 12u);
    EXPECT_EQ(sys.a.upgrades.value(), 1.0);
    EXPECT_EQ(sys.b.snoopInvalidations.value(), 1.0);
    EXPECT_EQ(sys.b.lineState(line), LineState::Invalid);
    EXPECT_EQ(sys.a.lineState(line), LineState::Modified);
}

TEST(CoherentHierarchy, L1RefillFromSharedL2StaysShared)
{
    // Evict a Shared line from the L1 only, refill it by a read, then
    // write: the write must still broadcast an upgrade (the refill
    // must not launder S into E).
    TwoCaches sys;
    const Addr line = 0x0;     // L1 set 0
    const Addr alias1 = 0x400; // same L1 set (1KiB L1, 2-way)
    const Addr alias2 = 0x800;

    sys.a.accessLatency(line, false);
    sys.b.accessLatency(line, false); // both Shared
    sys.a.accessLatency(alias1, false);
    sys.a.accessLatency(alias2, false); // line evicted from A's L1
    EXPECT_EQ(sys.a.lineState(line), LineState::Shared) << "L2 keeps S";

    sys.a.accessLatency(line, false); // L1 refill from Shared L2
    sys.a.accessLatency(line, true);  // must upgrade, not go silent
    EXPECT_EQ(sys.a.upgrades.value(), 1.0);
    EXPECT_EQ(sys.b.lineState(line), LineState::Invalid);
}

TEST(CoherentHierarchy, SnoopWritebackUsesWritebackHook)
{
    TwoCaches sys;
    std::vector<Addr> spills;
    sys.a.setLineWriteback([&](Addr line) { spills.push_back(line); });

    sys.a.accessLatency(0x4000, true);
    sys.b.accessLatency(0x4000, true); // read-exclusive probes A
    ASSERT_EQ(spills.size(), 1u);
    EXPECT_EQ(spills[0], 0x4000u);
    EXPECT_EQ(sys.a.lineState(0x4000), LineState::Invalid);
    EXPECT_EQ(sys.b.lineState(0x4000), LineState::Modified);
}

TEST(CoherentHierarchy, RandomWalkKeepsMesiInvariant)
{
    // Random reads/writes from both sides over a handful of lines; the
    // single-writer/multi-reader invariant must hold after every op:
    // if one side holds M or E, the other side holds nothing.
    TwoCaches sys;
    std::mt19937_64 rng(0x6d657369);
    const Addr lines[] = {0x0, 0x40, 0x1000, 0x2040, 0x4080};

    for (int op = 0; op < 2000; ++op) {
        CacheHierarchy &actor = (rng() & 1) ? sys.a : sys.b;
        Addr line = lines[rng() % std::size(lines)];
        actor.accessLatency(line, (rng() & 3) == 0);

        for (Addr l : lines) {
            LineState sa = sys.a.lineState(l);
            LineState sb = sys.b.lineState(l);
            bool a_owns = sa == LineState::Modified ||
                          sa == LineState::Exclusive;
            bool b_owns = sb == LineState::Modified ||
                          sb == LineState::Exclusive;
            ASSERT_FALSE(a_owns && sb != LineState::Invalid)
                << "A owns 0x" << std::hex << l << " as "
                << letter(sa) << " but B holds " << letter(sb);
            ASSERT_FALSE(b_owns && sa != LineState::Invalid)
                << "B owns 0x" << std::hex << l << " as "
                << letter(sb) << " but A holds " << letter(sa);
        }
    }
}

TEST(CoherentHierarchy, NonCoherentBehaviorUnchanged)
{
    // Without a policy the hierarchy must behave exactly as before:
    // no probes, no upgrade cost, legacy miss latency.
    CacheHierarchy solo(geom(1024, 2, 64, 2), geom(8192, 4, 64, 8), 90,
                        "solo");
    EXPECT_FALSE(solo.coherent());
    EXPECT_EQ(solo.accessLatency(0x1000, false), 100u);
    EXPECT_EQ(solo.accessLatency(0x1000, true), 2u);
    EXPECT_EQ(solo.lineState(0x1000), LineState::Modified);
    EXPECT_EQ(solo.upgrades.value(), 0.0);
    EXPECT_EQ(solo.cacheToCacheFills.value(), 0.0);
}

} // namespace
