/**
 * @file
 * Unit tests of the uncached buffer: FIFO order, combining rules,
 * lock-on-issue, decomposition, and load/store interleaving.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "bus/system_bus.hh"
#include "io/burst_device.hh"
#include "mem/uncached_buffer.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"

namespace {

using namespace csb;
using mem::UncachedBuffer;
using mem::UncachedBufferParams;

class UbufFixture : public ::testing::Test
{
  protected:
    void
    make(unsigned combine_bytes, unsigned entries = 8,
         unsigned ratio = 6)
    {
        bus::BusParams bus_params;
        bus_params.kind = bus::BusKind::Multiplexed;
        bus_params.widthBytes = 8;
        bus_params.ratio = ratio;
        bus_params.maxBurstBytes = 128;
        bus = std::make_unique<bus::SystemBus>(sim, bus_params);
        device = std::make_unique<io::BurstDevice>(12, 128);
        bus->addTarget(0, 0x100000, device.get());
        UncachedBufferParams params;
        params.entries = entries;
        params.combineBytes = combine_bytes;
        unit = std::make_unique<UncachedBuffer>(sim, *bus, params);
    }

    void
    pushDword(Addr addr, std::uint64_t value)
    {
        ASSERT_TRUE(unit->canAcceptStore(addr, 8));
        unit->pushStore(addr, 8, &value);
    }

    void
    drain()
    {
        sim.run([&] { return unit->empty() && bus->quiescent(); }, 100000);
        ASSERT_TRUE(unit->empty());
    }

    sim::Simulator sim;
    std::unique_ptr<bus::SystemBus> bus;
    std::unique_ptr<io::BurstDevice> device;
    std::unique_ptr<UncachedBuffer> unit;
};

TEST_F(UbufFixture, NonCombiningIssuesOneTxnPerStore)
{
    make(0);
    for (unsigned i = 0; i < 4; ++i)
        pushDword(0x1000 + i * 8, i);
    drain();
    EXPECT_EQ(device->writeLog().size(), 4u);
    EXPECT_EQ(unit->txnsIssued.value(), 4.0);
    EXPECT_EQ(unit->storesCoalesced.value(), 0.0);
}

TEST_F(UbufFixture, StoresArriveInFifoOrder)
{
    make(0);
    pushDword(0x1010, 1);
    pushDword(0x1000, 2);
    pushDword(0x1020, 3);
    drain();
    ASSERT_EQ(device->writeLog().size(), 3u);
    EXPECT_EQ(device->writeLog()[0].addr, 0x1010u);
    EXPECT_EQ(device->writeLog()[1].addr, 0x1000u);
    EXPECT_EQ(device->writeLog()[2].addr, 0x1020u);
}

TEST_F(UbufFixture, CombiningMergesSameBlockStores)
{
    // All eight stores land before the bus can issue (ratio 6: first
    // edge at tick 0 already passed when stores arrive at tick 0 --
    // the head entry locks at the first present, later stores merge
    // into it until then).
    make(64);
    for (unsigned i = 0; i < 8; ++i)
        pushDword(0x1000 + i * 8, i);
    drain();
    // First store may go alone (it was presented immediately); the
    // rest coalesce.  Fewer transactions than stores is the point.
    EXPECT_LT(device->writeLog().size(), 8u);
    EXPECT_GT(unit->storesCoalesced.value(), 0.0);
}

TEST_F(UbufFixture, CombiningRespectsBlockBoundaries)
{
    make(32);
    pushDword(0x1000, 1);
    pushDword(0x1018, 2); // same 32B block
    pushDword(0x1020, 3); // next block: new entry
    EXPECT_EQ(unit->depth(), 2u);
}

TEST_F(UbufFixture, StoreAfterLoadDoesNotBypassIt)
{
    make(64);
    pushDword(0x1000, 1);
    bool load_done = false;
    ASSERT_TRUE(unit->canAcceptLoad());
    unit->pushLoad(0x2000, 8,
                   [&](Tick, const std::vector<std::uint8_t> &) {
                       load_done = true;
                   });
    // A store to the same block as the first one must NOT merge into
    // it across the load: it becomes a new (third) entry.
    pushDword(0x1008, 2);
    EXPECT_EQ(unit->depth(), 3u);
    drain();
    EXPECT_TRUE(load_done);
}

TEST_F(UbufFixture, CapacityLimitsAccepts)
{
    make(0, /*entries=*/2, /*ratio=*/64); // very slow bus
    pushDword(0x1000, 1);
    pushDword(0x2000, 2);
    EXPECT_FALSE(unit->canAcceptStore(0x3000, 8));
    EXPECT_FALSE(unit->canAcceptLoad());
    drain();
    EXPECT_TRUE(unit->canAcceptStore(0x3000, 8));
}

TEST_F(UbufFixture, CombiningTailAcceptsEvenWhenFull)
{
    make(64, /*entries=*/2, /*ratio=*/64);
    pushDword(0x1000, 1);
    pushDword(0x2000, 2); // second entry; buffer "full"
    // ...but a store into the open tail block still coalesces.
    EXPECT_TRUE(unit->canAcceptStore(0x2008, 8));
    pushDword(0x2008, 3);
    EXPECT_EQ(unit->depth(), 2u);
}

TEST_F(UbufFixture, PartialBlockDecomposesAligned)
{
    make(64, 8, /*ratio=*/64); // slow bus: everything coalesces first
    // Dwords at offsets 8..48: 8@8 + 16@16 + 16@32 once locked.
    pushDword(0x1008, 1);
    pushDword(0x1010, 2);
    pushDword(0x1018, 3);
    pushDword(0x1020, 4);
    pushDword(0x1028, 5);
    drain();
    ASSERT_EQ(device->writeLog().size(), 3u);
    EXPECT_EQ(device->writeLog()[0].addr, 0x1008u);
    EXPECT_EQ(device->writeLog()[0].data.size(), 8u);
    EXPECT_EQ(device->writeLog()[1].addr, 0x1010u);
    EXPECT_EQ(device->writeLog()[1].data.size(), 16u);
    EXPECT_EQ(device->writeLog()[2].addr, 0x1020u);
    EXPECT_EQ(device->writeLog()[2].data.size(), 16u);
}

TEST_F(UbufFixture, DataIntegrityThroughCombining)
{
    make(64, 8, 64);
    std::uint64_t values[8];
    for (unsigned i = 0; i < 8; ++i) {
        values[i] = 0x0123456789abcdefULL ^ (i * 0x1111);
        pushDword(0x1000 + i * 8, values[i]);
    }
    drain();
    ASSERT_EQ(device->writeLog().size(), 1u);
    const auto &data = device->writeLog()[0].data;
    ASSERT_EQ(data.size(), 64u);
    for (unsigned i = 0; i < 8; ++i) {
        std::uint64_t got = 0;
        std::memcpy(&got, data.data() + i * 8, 8);
        EXPECT_EQ(got, values[i]) << "dword " << i;
    }
}

TEST_F(UbufFixture, EmptyTracksInflightCompletions)
{
    make(0);
    pushDword(0x1000, 1);
    EXPECT_FALSE(unit->empty());
    // Run just until the entry leaves the queue: still not "empty"
    // while the bus transaction is in flight.
    sim.run([&] { return unit->depth() == 0; }, 10000);
    EXPECT_FALSE(unit->empty());
    drain();
    EXPECT_TRUE(unit->empty());
}

TEST_F(UbufFixture, LoadReturnsDeviceData)
{
    make(0);
    device->setRegister(0x3000, 0xfeedface);
    std::uint64_t got = 0;
    unit->pushLoad(0x3000, 8,
                   [&](Tick, const std::vector<std::uint8_t> &data) {
                       std::memcpy(&got, data.data(), 8);
                   });
    drain();
    EXPECT_EQ(got, 0xfeedfaceu);
}

class SeqUbufFixture : public UbufFixture
{
  protected:
    void
    makeSequential(unsigned combine_bytes, unsigned ratio = 64)
    {
        bus::BusParams bus_params;
        bus_params.kind = bus::BusKind::Multiplexed;
        bus_params.widthBytes = 8;
        bus_params.ratio = ratio;
        bus_params.maxBurstBytes = 128;
        bus = std::make_unique<bus::SystemBus>(sim, bus_params);
        device = std::make_unique<io::BurstDevice>(12, 128);
        bus->addTarget(0, 0x100000, device.get());
        UncachedBufferParams params;
        params.entries = 8;
        params.combineBytes = combine_bytes;
        params.policy = csb::mem::CombinePolicy::SequentialOnly;
        unit = std::make_unique<UncachedBuffer>(sim, *bus, params);
    }
};

TEST_F(SeqUbufFixture, SequentialPatternCombinesToOneBurst)
{
    makeSequential(64);
    for (unsigned i = 0; i < 8; ++i)
        pushDword(0x1000 + i * 8, i);
    drain();
    // Fully combined line: exactly one 64-byte burst (R10000 rule).
    ASSERT_EQ(device->writeLog().size(), 1u);
    EXPECT_EQ(device->writeLog()[0].data.size(), 64u);
}

TEST_F(SeqUbufFixture, NonSequentialStoreBreaksThePattern)
{
    makeSequential(64);
    pushDword(0x1000, 1);
    pushDword(0x1008, 2);
    pushDword(0x1018, 4); // skips 0x1010: pattern broken
    EXPECT_EQ(unit->depth(), 2u)
        << "the out-of-pattern store opens a new entry";
}

TEST_F(SeqUbufFixture, PartialBlockIssuesSingleBeats)
{
    makeSequential(64);
    // Sequential but incomplete (6 of 8 dwords): the R10000 issues a
    // series of single-beat transfers, not an aligned-chunk burst.
    for (unsigned i = 0; i < 6; ++i)
        pushDword(0x1000 + i * 8, i);
    drain();
    ASSERT_EQ(device->writeLog().size(), 6u);
    for (const auto &write : device->writeLog())
        EXPECT_EQ(write.data.size(), 8u);
}

TEST_F(SeqUbufFixture, PartialBlockBeatsFollowTheStores)
{
    // A partial sequential block that starts mid-block, with mixed
    // store sizes: one transaction per store, at the store's own
    // address and size, carrying its bytes.
    makeSequential(64);
    const std::pair<Addr, unsigned> stores[] = {
        {0x1008, 8}, {0x1010, 4}, {0x1014, 2}, {0x1016, 2}, {0x1018, 8}};
    std::uint8_t tag = 1;
    for (auto [addr, size] : stores) {
        std::uint64_t value = 0x0101010101010101ull * tag++;
        ASSERT_TRUE(unit->canAcceptStore(addr, size));
        unit->pushStore(addr, size, &value);
    }
    EXPECT_EQ(unit->depth(), 1u);
    drain();
    ASSERT_EQ(device->writeLog().size(), 5u);
    tag = 1;
    for (std::size_t i = 0; i < 5; ++i) {
        const io::DeviceWrite &write = device->writeLog()[i];
        EXPECT_EQ(write.addr, stores[i].first);
        EXPECT_EQ(write.data,
                  std::vector<std::uint8_t>(stores[i].second, tag++));
    }
}

TEST_F(SeqUbufFixture, DescendingOrderNeverCombines)
{
    makeSequential(64);
    for (int i = 7; i >= 0; --i) {
        ASSERT_TRUE(unit->canAcceptStore(0x1000 + i * 8, 8));
        std::uint64_t value = static_cast<std::uint64_t>(i);
        unit->pushStore(0x1000 + static_cast<unsigned>(i) * 8, 8,
                        &value);
    }
    EXPECT_EQ(unit->storesCoalesced.value(), 0.0);
    EXPECT_EQ(unit->depth(), 8u);
}

TEST_F(UbufFixture, NackedStoresReplayTheirOwnBytes)
{
    // The bus hands a NACKed write's payload back to the buffer; each
    // retry must carry exactly the bytes of its original store.
    make(0);
    sim::FaultPlan plan;
    plan.schedule = sim::parseFaultSchedule("hang:0..300");
    sim::FaultInjector injector(plan);
    bus->setFaultInjector(&injector);
    device->setFaultInjector(&injector);
    for (unsigned i = 0; i < 3; ++i)
        pushDword(0x1000 + i * 8, 0x1111111111111111ull * (i + 1));
    drain();
    EXPECT_GT(unit->busNacks.value(), 0.0);
    ASSERT_EQ(device->writeLog().size(), 3u);
    for (unsigned i = 0; i < 3; ++i) {
        const io::DeviceWrite &write = device->writeLog()[i];
        EXPECT_EQ(write.addr, 0x1000u + i * 8);
        ASSERT_EQ(write.data.size(), 8u);
        std::uint64_t value = 0;
        std::memcpy(&value, write.data.data(), 8);
        EXPECT_EQ(value, 0x1111111111111111ull * (i + 1));
    }
}

TEST_F(UbufFixture, SubDwordStores)
{
    make(0);
    std::uint8_t byte = 0x5a;
    ASSERT_TRUE(unit->canAcceptStore(0x1003, 1));
    unit->pushStore(0x1003, 1, &byte);
    drain();
    ASSERT_EQ(device->writeLog().size(), 1u);
    EXPECT_EQ(device->writeLog()[0].addr, 0x1003u);
    EXPECT_EQ(device->writeLog()[0].data.size(), 1u);
    EXPECT_EQ(device->writeLog()[0].data[0], 0x5a);
}

} // namespace
