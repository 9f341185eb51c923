/**
 * @file
 * Tests for SystemBus::wouldAcceptAtNextEdge and response/request
 * interactions -- the combining-window contract the uncached buffer
 * and CSB rely on.
 */

#include <gtest/gtest.h>

#include <memory>

#include "bus/system_bus.hh"
#include "io/burst_device.hh"
#include "sim/simulator.hh"

#include "../sim/trace_fixture.hh"

namespace {

using namespace csb;
using bus::BusKind;
using bus::BusStatus;
using bus::BusParams;
using bus::SystemBus;

class AcceptFixture : public ::testing::Test
{
  protected:
    void
    makeBus(BusKind kind, unsigned width, unsigned turnaround = 0,
            unsigned ack_delay = 0)
    {
        BusParams params;
        params.kind = kind;
        params.widthBytes = width;
        params.ratio = 6;
        params.turnaround = turnaround;
        params.ackDelay = ack_delay;
        params.maxBurstBytes = 64;
        bus = std::make_unique<SystemBus>(sim, params);
        device = std::make_unique<io::BurstDevice>(12, 64);
        bus->addTarget(0, 0x100000, device.get());
        master = bus->registerMaster("m");
    }

    void
    issueWrite(unsigned size, bool ordered = true)
    {
        std::vector<std::uint8_t> data(size, 0xee);
        ASSERT_TRUE(bus->requestWrite(master, nextAddr_, std::move(data),
                                      ordered, {}));
        nextAddr_ += 64;
    }

    sim::Simulator sim;
    std::unique_ptr<SystemBus> bus;
    std::unique_ptr<io::BurstDevice> device;
    MasterId master = 0;
    Addr nextAddr_ = 0;
};

TEST_F(AcceptFixture, IdleBusAccepts)
{
    makeBus(BusKind::Multiplexed, 8);
    EXPECT_TRUE(bus->wouldAcceptAtNextEdge(master, true, true));
    EXPECT_TRUE(bus->wouldAcceptAtNextEdge(master, false, false));
}

TEST_F(AcceptFixture, BusyBusRefusesUntilFree)
{
    makeBus(BusKind::Multiplexed, 8);
    issueWrite(64); // 9-cycle burst once started
    sim.runFor(6);  // burst starts at cycle 1
    EXPECT_FALSE(bus->wouldAcceptAtNextEdge(master, true, true))
        << "cycle 2: the burst occupies the bus";
    sim.runFor(6 * 9);
    EXPECT_TRUE(bus->wouldAcceptAtNextEdge(master, true, true))
        << "after the burst the next edge is free";
}

TEST_F(AcceptFixture, AckDelayGatesOrderedOnly)
{
    makeBus(BusKind::Multiplexed, 8, 0, /*ack_delay=*/8);
    issueWrite(8, /*ordered=*/true); // 2-cycle write
    sim.runFor(6 * 3);
    // The bus itself is free, but the ordered ack window is not.
    EXPECT_FALSE(bus->wouldAcceptAtNextEdge(master, true, true));
    EXPECT_TRUE(bus->wouldAcceptAtNextEdge(master, false, true));
    sim.runFor(6 * 8);
    EXPECT_TRUE(bus->wouldAcceptAtNextEdge(master, true, true));
}

TEST_F(AcceptFixture, SplitBusDataPathGatesWritesNotReads)
{
    makeBus(BusKind::Split, 16);
    issueWrite(64); // 4 data cycles
    sim.runFor(6);  // started at cycle 1
    EXPECT_FALSE(bus->wouldAcceptAtNextEdge(master, true, true))
        << "data path busy for a write";
    EXPECT_TRUE(bus->wouldAcceptAtNextEdge(master, true, false))
        << "the address path is free for a read request";
}

TEST_F(AcceptFixture, PendingResponseBlocksMultiplexedBus)
{
    makeBus(BusKind::Multiplexed, 8);
    trace_test::BusTxnCapture capture;
    bool done = false;
    ASSERT_TRUE(bus->requestRead(master, 0x40, 8, false,
                                 [&](Tick, BusStatus,
                                     const std::vector<std::uint8_t> &) {
                                     done = true;
                                 }));
    // Run until the device data is ready but the response has not yet
    // been driven: the response has priority over new requests.
    sim.run([&] { return done; }, 10000);
    EXPECT_TRUE(done);
    // The response's span accounts its tenure.
    const auto &records = capture.txns();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_GT(records[1].firstDataCycle, records[0].addrCycle);
}

TEST_F(AcceptFixture, TurnaroundDelaysNextEdgeAcceptance)
{
    makeBus(BusKind::Multiplexed, 8, /*turnaround=*/1);
    issueWrite(8);
    // The write starts at cycle 0 and occupies cycles 0-1; cycle 2 is
    // the turnaround, so the bus frees at cycle 3.
    sim.runFor(6); // tick 6 = cycle 1; next edge is cycle 2: refuse
    EXPECT_FALSE(bus->wouldAcceptAtNextEdge(master, true, true));
    sim.runFor(6); // next edge is cycle 3: accept
    EXPECT_TRUE(bus->wouldAcceptAtNextEdge(master, true, true));
}

} // namespace
