/**
 * @file
 * Analytic timing tests for the system bus models.  Expected values
 * follow the paper's section 4: a multiplexed-bus write of S bytes
 * occupies 1 + ceil(S/W) cycles; a split-bus write occupies
 * ceil(S/W) data cycles; ackDelay spaces strongly ordered address
 * cycles; the trailing turnaround is never charged to bandwidth.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "bus/system_bus.hh"
#include "sim/simulator.hh"
#include "sim/trace.hh"

#include "../sim/trace_fixture.hh"

namespace {

using namespace csb;
using bus::BusKind;
using bus::BusParams;
using bus::BusStatus;
using bus::SystemBus;
using bus::TxnKind;
using trace_test::BusTxn;

/** Minimal recording target. */
class TestTarget : public bus::BusTarget
{
  public:
    const std::string &targetName() const override { return name_; }

    void
    write(bus::BusTransaction &txn, Tick now) override
    {
        writes.emplace_back(txn.addr, now);
        lastData = txn.data;
    }

    Tick
    read(const bus::BusTransaction &txn, Tick,
         std::vector<std::uint8_t> &data) override
    {
        data.assign(txn.size, 0x5a);
        return readLatency;
    }

    Tick readLatency = 60;
    std::vector<std::pair<Addr, Tick>> writes;
    std::vector<std::uint8_t> lastData;

  private:
    std::string name_ = "test-target";
};

class BusFixture : public ::testing::Test
{
  protected:
    void
    makeBus(BusKind kind, unsigned width, unsigned ratio,
            unsigned turnaround = 0, unsigned ack_delay = 0)
    {
        BusParams params;
        params.kind = kind;
        params.widthBytes = width;
        params.ratio = ratio;
        params.turnaround = turnaround;
        params.ackDelay = ack_delay;
        params.maxBurstBytes = 64;
        bus = std::make_unique<SystemBus>(sim, params);
        bus->addTarget(0, 0x100000, &target);
        master = bus->registerMaster("test");
    }

    /**
     * Stream @p writes sequential transactions of @p size bytes,
     * presenting the next as soon as the bus accepts the previous.
     * Runs until all have completed.
     */
    void
    streamWrites(unsigned count, unsigned size, bool ordered = true)
    {
        unsigned issued = 0;
        unsigned completed = 0;
        sim.run(
            [&] {
                if (issued < count && bus->masterIdle(master)) {
                    std::vector<std::uint8_t> data(size, 0xcd);
                    bool ok = bus->requestWrite(
                        master, static_cast<Addr>(issued) * size,
                        std::move(data), ordered,
                        [&](Tick, BusStatus, std::vector<std::uint8_t> &) {
                            ++completed;
                        });
                    EXPECT_TRUE(ok);
                    ++issued;
                }
                return completed == count;
            },
            100000);
        ASSERT_EQ(completed, count);
    }

    /** Every tenure the bus started, from its trace spans. */
    const std::vector<BusTxn> &records() { return capture.txns(); }

    trace_test::BusTxnCapture capture;
    sim::Simulator sim;
    std::unique_ptr<SystemBus> bus;
    TestTarget target;
    MasterId master = 0;
};

TEST_F(BusFixture, MultiplexedDwordWriteTakesTwoCycles)
{
    makeBus(BusKind::Multiplexed, 8, 6);
    streamWrites(1, 8);
    ASSERT_EQ(records().size(), 1u);
    const BusTxn &rec = records()[0];
    EXPECT_EQ(rec.lastDataCycle - rec.addrCycle + 1, 2u);
    // Completion at the end of the last data cycle, in CPU ticks.
    EXPECT_EQ(rec.completionTick, (rec.lastDataCycle + 1) * 6);
}

TEST_F(BusFixture, MultiplexedBackToBackDwords)
{
    makeBus(BusKind::Multiplexed, 8, 6);
    streamWrites(4, 8);
    ASSERT_EQ(records().size(), 4u);
    for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_EQ(records()[i].addrCycle - records()[i - 1].addrCycle, 2u)
            << "txn " << i;
    }
    // Effective bandwidth: 32 bytes over 8 cycles, 4 bytes per bus
    // cycle (the paper's half-of-peak reference point).
    EXPECT_EQ(bus->monitor().all().cycles(), 8u);
}

TEST_F(BusFixture, MultiplexedLineBurst)
{
    makeBus(BusKind::Multiplexed, 8, 6);
    streamWrites(1, 64);
    const BusTxn &rec = records()[0];
    // 1 address + 8 data cycles.
    EXPECT_EQ(rec.lastDataCycle - rec.addrCycle + 1, 9u);
    EXPECT_EQ(bus->monitor().all().cycles(), 9u);
}

TEST_F(BusFixture, TurnaroundSpacesTransactions)
{
    makeBus(BusKind::Multiplexed, 8, 6, /*turnaround=*/1);
    streamWrites(3, 8);
    for (std::size_t i = 1; i < 3; ++i)
        EXPECT_EQ(records()[i].addrCycle - records()[i - 1].addrCycle, 3u);
    // Trailing turnaround not charged: 24 bytes over cycles 0..7,
    // 3 bytes per bus cycle.
    EXPECT_EQ(bus->monitor().all().cycles(), 8u);
}

TEST_F(BusFixture, AckDelaySpacesOrderedWrites)
{
    makeBus(BusKind::Multiplexed, 8, 6, 0, /*ack_delay=*/4);
    streamWrites(3, 8, /*ordered=*/true);
    for (std::size_t i = 1; i < 3; ++i)
        EXPECT_EQ(records()[i].addrCycle - records()[i - 1].addrCycle, 4u);
}

TEST_F(BusFixture, AckDelayIgnoredForUnorderedWrites)
{
    makeBus(BusKind::Multiplexed, 8, 6, 0, /*ack_delay=*/4);
    streamWrites(3, 8, /*ordered=*/false);
    for (std::size_t i = 1; i < 3; ++i)
        EXPECT_EQ(records()[i].addrCycle - records()[i - 1].addrCycle, 2u);
}

TEST_F(BusFixture, AckDelayOverlappedByLongBurst)
{
    // An 8-cycle burst completely hides an 8-cycle acknowledgment
    // (paper, figure 3(i) discussion).
    makeBus(BusKind::Multiplexed, 8, 6, 0, /*ack_delay=*/8);
    streamWrites(3, 64);
    for (std::size_t i = 1; i < 3; ++i)
        EXPECT_EQ(records()[i].addrCycle - records()[i - 1].addrCycle, 9u);
}

TEST_F(BusFixture, SplitDwordWriteSingleDataCycle)
{
    makeBus(BusKind::Split, 16, 6);
    streamWrites(4, 8);
    for (const BusTxn &rec : records())
        EXPECT_EQ(rec.lastDataCycle, rec.firstDataCycle);
    for (std::size_t i = 1; i < 4; ++i)
        EXPECT_EQ(records()[i].addrCycle - records()[i - 1].addrCycle, 1u);
    // A dword uses half of a 128-bit bus: 32 bytes over 4 cycles, 8
    // bytes per cycle.
    EXPECT_EQ(bus->monitor().all().cycles(), 4u);
}

TEST_F(BusFixture, SplitWideBurstTwoCycles)
{
    // 64-byte burst on a 256-bit bus takes two data cycles, the same
    // as two individual dword stores (paper, figure 4 discussion).
    makeBus(BusKind::Split, 32, 6);
    streamWrites(1, 64);
    const BusTxn &rec = records()[0];
    EXPECT_EQ(rec.lastDataCycle - rec.firstDataCycle + 1, 2u);
}

TEST_F(BusFixture, SplitTurnaroundSeparatesTenures)
{
    makeBus(BusKind::Split, 16, 6, /*turnaround=*/1);
    streamWrites(3, 8);
    for (std::size_t i = 1; i < 3; ++i)
        EXPECT_EQ(records()[i].firstDataCycle -
                      records()[i - 1].lastDataCycle,
                  2u);
}

TEST_F(BusFixture, WriteDataReachesTarget)
{
    makeBus(BusKind::Multiplexed, 8, 6);
    streamWrites(1, 8);
    ASSERT_EQ(target.writes.size(), 1u);
    EXPECT_EQ(target.lastData, std::vector<std::uint8_t>(8, 0xcd));
}

TEST_F(BusFixture, ReadRoundTrip)
{
    makeBus(BusKind::Multiplexed, 8, 6);
    bool done = false;
    std::vector<std::uint8_t> got;
    Tick completion = 0;
    ASSERT_TRUE(bus->requestRead(master, 0x40, 8, true,
                                 [&](Tick when, BusStatus,
                                     const std::vector<std::uint8_t> &d) {
                                     done = true;
                                     got = d;
                                     completion = when;
                                 }));
    sim.run([&] { return done; }, 100000);
    ASSERT_TRUE(done);
    EXPECT_EQ(got, std::vector<std::uint8_t>(8, 0x5a));
    // At least: one address cycle + 60 ticks latency + response.
    EXPECT_GE(completion, 60u);
    // Both the request and the response were recorded.
    ASSERT_EQ(records().size(), 2u);
    EXPECT_EQ(records()[0].kind, TxnKind::ReadReq);
    EXPECT_EQ(records()[1].kind, TxnKind::ReadResp);
}

TEST_F(BusFixture, MisalignedTransactionPanics)
{
    makeBus(BusKind::Multiplexed, 8, 6);
    std::vector<std::uint8_t> data(8, 0);
    EXPECT_DEATH(bus->requestWrite(master, 0x4, std::move(data), true, {}),
                 "naturally aligned");
}

TEST_F(BusFixture, NonPowerOfTwoSizePanics)
{
    makeBus(BusKind::Multiplexed, 8, 6);
    std::vector<std::uint8_t> data(24, 0);
    EXPECT_DEATH(bus->requestWrite(master, 0x0, std::move(data), true, {}),
                 "power of two");
}

TEST_F(BusFixture, BusyMasterRefusesSecondRequest)
{
    makeBus(BusKind::Multiplexed, 8, 6);
    std::vector<std::uint8_t> data(8, 0);
    ASSERT_TRUE(bus->requestWrite(master, 0, data, true, {}));
    EXPECT_FALSE(bus->masterIdle(master));
    EXPECT_FALSE(bus->requestWrite(master, 8, data, true, {}));
}

TEST_F(BusFixture, RoundRobinBetweenMasters)
{
    makeBus(BusKind::Multiplexed, 8, 6);
    MasterId second = bus->registerMaster("second");
    unsigned done = 0;
    std::vector<std::uint8_t> data(8, 0);
    auto cb = [&](Tick, BusStatus, std::vector<std::uint8_t> &) {
        ++done;
    };
    ASSERT_TRUE(bus->requestWrite(master, 0, data, false, cb));
    ASSERT_TRUE(bus->requestWrite(second, 64, data, false, cb));
    sim.run([&] { return done == 2; }, 10000);
    ASSERT_EQ(records().size(), 2u);
    EXPECT_NE(records()[0].master, records()[1].master);
}

TEST_F(BusFixture, TraceLinesRenderTheBusEvents)
{
    // Each transaction's tenure is one span on the "bus" track, stamped
    // with its own start tick and rendered as one text line.
    makeBus(BusKind::Multiplexed, 8, 6);
    MasterId second = bus->registerMaster("second");
    std::ostringstream out;
    sim::trace::configure("bus", &out, nullptr);
    bool read_done = false;
    ASSERT_TRUE(bus->requestWrite(master, 0x1f8,
                                  std::vector<std::uint8_t>(8, 1), true, {}));
    ASSERT_TRUE(bus->requestRead(second, 0xabc0, 64, false,
                                 [&](Tick, BusStatus,
                                     const std::vector<std::uint8_t> &) {
                                     read_done = true;
                                 }));
    sim.run([&] { return read_done && bus->quiescent(); }, 100000);
    sim::trace::configure("", nullptr, nullptr);
    // Ratio 6: the read's address cycle is cycle 0 (ticks 0-5), the
    // write's address and data cycles are 1-2 (ticks 6-17), and the
    // 64 B response's eight data cycles (11-18) start once the
    // target's 60-tick latency has run out at tick 66.  A response
    // reports its request's address cycle.
    EXPECT_EQ(out.str(),
              "[        0] bus: read-req dur=6 addr=0xabc0 size=64 "
              "master=second ordered=false status=ok addr_cycle=0 "
              "first_data=0 last_data=0\n"
              "[        6] bus: write 8B dur=12 addr=0x1f8 size=8 master=test "
              "ordered=true status=ok addr_cycle=1 first_data=2 "
              "last_data=2\n"
              "[       66] bus: read-resp 64B dur=48 addr=0xabc0 size=64 "
              "master=second ordered=false status=ok addr_cycle=0 "
              "first_data=11 last_data=18\n");
}

} // namespace
