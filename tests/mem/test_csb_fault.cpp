/**
 * @file
 * CSB flush-port behaviour under injected bus faults: a NACKed flush
 * chunk is replayed byte-identically with backoff, every line is
 * delivered to the target exactly once and in order, and conflicting
 * writers still serialize correctly while retries are pending.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "bus/system_bus.hh"
#include "mem/csb.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"

namespace {

using namespace csb;
using bus::BusStatus;
using bus::BusTransaction;
using mem::ConditionalStoreBuffer;
using mem::CsbParams;

/** Records every delivered write; NACKs per a fixed schedule. */
class RecordingTarget : public bus::BusTarget
{
  public:
    const std::string &targetName() const override { return name_; }

    BusStatus
    accept(const BusTransaction &, Tick) override
    {
        if (nacksLeft > 0) {
            --nacksLeft;
            return BusStatus::Nack;
        }
        return BusStatus::Ok;
    }

    void
    write(BusTransaction &txn, Tick now) override
    {
        writes.push_back({txn.addr, txn.data, now});
    }

    Tick
    read(const BusTransaction &txn, Tick now,
         std::vector<std::uint8_t> &data) override
    {
        data.assign(txn.size, 0);
        return now + 1;
    }

    struct Write
    {
        Addr addr;
        std::vector<std::uint8_t> data;
        Tick when;
    };
    std::vector<Write> writes;
    unsigned nacksLeft = 0;

  private:
    std::string name_ = "rec";
};

class CsbFaultFixture : public ::testing::Test
{
  protected:
    void
    make(CsbParams params = {})
    {
        bus::BusParams bus_params;
        bus_params.kind = bus::BusKind::Multiplexed;
        bus_params.widthBytes = 8;
        bus_params.ratio = 6;
        bus_params.maxBurstBytes = 128;
        bus_params.errorResponses = true; // NACKing targets in play
        bus = std::make_unique<bus::SystemBus>(sim, bus_params);
        target = std::make_unique<RecordingTarget>();
        bus->addTarget(0, 0x100000, target.get());
        unit = std::make_unique<ConditionalStoreBuffer>(sim, *bus, params);
    }

    void
    storeDword(ProcId pid, Addr addr, std::uint64_t value)
    {
        unit->store(pid, addr, 8, &value);
    }

    /** Accumulate and flush one full line of ascending dwords. */
    void
    sendLine(Addr line, std::uint64_t tag)
    {
        for (unsigned i = 0; i < 8; ++i)
            storeDword(1, line + i * 8, tag * 100 + i);
        ASSERT_TRUE(unit->conditionalFlush(1, line, 8));
    }

    void
    drain()
    {
        sim.run([&] { return unit->drained() && bus->quiescent(); },
                100000);
        ASSERT_TRUE(unit->drained());
    }

    sim::Simulator sim;
    std::unique_ptr<bus::SystemBus> bus;
    std::unique_ptr<RecordingTarget> target;
    std::unique_ptr<ConditionalStoreBuffer> unit;
};

TEST_F(CsbFaultFixture, NackedFlushReplaysByteIdentically)
{
    make();
    target->nacksLeft = 2;
    sendLine(0x1000, 1);
    drain();

    ASSERT_EQ(target->writes.size(), 1u)
        << "the line lands exactly once despite two NACKs";
    EXPECT_EQ(target->writes[0].addr, 0x1000u);
    ASSERT_EQ(target->writes[0].data.size(), 64u);
    std::uint64_t first = 0;
    std::memcpy(&first, target->writes[0].data.data(), 8);
    EXPECT_EQ(first, 100u);
    EXPECT_EQ(unit->busNacks.value(), 2.0);
    EXPECT_EQ(unit->busRetries.value(), 2.0);
    EXPECT_EQ(unit->linesIssued.value(), 1.0);
}

TEST_F(CsbFaultFixture, RetryWaitsOutConfiguredBackoff)
{
    CsbParams params;
    params.retry.initialBackoffTicks = 600;
    params.retry.multiplier = 2;
    make(params);
    target->nacksLeft = 1;
    sendLine(0x1000, 1);
    drain();

    ASSERT_EQ(target->writes.size(), 1u);
    // The first (NACKed) tenure completed well before the replayed
    // delivery: the retry waited at least the configured backoff.
    EXPECT_GE(target->writes[0].when, 600u);
    EXPECT_EQ(unit->busRetries.value(), 1.0);
}

TEST_F(CsbFaultFixture, LinesStayOrderedAcrossRetries)
{
    CsbParams params;
    params.numLineBuffers = 2;
    make(params);
    target->nacksLeft = 1; // first line's burst NACKs once
    sendLine(0x1000, 1);
    sendLine(0x1040, 2);
    drain();

    ASSERT_EQ(target->writes.size(), 2u);
    EXPECT_EQ(target->writes[0].addr, 0x1000u)
        << "the retried line must not be overtaken by the younger one";
    EXPECT_EQ(target->writes[1].addr, 0x1040u);
}

TEST_F(CsbFaultFixture, InjectedNacksStillDeliverEveryLineOnce)
{
    make();
    sim::FaultPlan plan;
    plan.seed = 11;
    plan.busWriteNackRate = 0.4;
    sim::FaultInjector injector(plan);
    bus->setFaultInjector(&injector);

    for (unsigned i = 0; i < 16; ++i) {
        sendLine(0x1000 + i * 0x40, i + 1);
        drain();
    }
    ASSERT_EQ(target->writes.size(), 16u)
        << "exactly one delivery per flushed line";
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(target->writes[i].addr, 0x1000u + i * 0x40);
        std::uint64_t first = 0;
        std::memcpy(&first, target->writes[i].data.data(), 8);
        EXPECT_EQ(first, (i + 1) * 100u);
    }
    EXPECT_GT(unit->busNacks.value(), 0.0) << "the plan did fire";
    EXPECT_EQ(unit->busNacks.value(), unit->busRetries.value());
}

TEST_F(CsbFaultFixture, ConflictingWriterClearsWhileRetryPending)
{
    make();
    target->nacksLeft = 1;
    sendLine(0x1000, 1);
    // While the flushed line sits in retry, a second process starts a
    // competing sequence: the accumulator semantics are unaffected by
    // the flush port's recovery.
    sim.runFor(30);
    EXPECT_TRUE(unit->retryPending() || !unit->drained());
    storeDword(2, 0x2000, 7);
    storeDword(1, 0x2000, 8); // conflict: clears, restarts as pid 1
    EXPECT_EQ(unit->hitCounter(), 1u);
    EXPECT_EQ(unit->pid(), 1);
    EXPECT_FALSE(unit->conditionalFlush(1, 0x2000, 99))
        << "wrong expected counter still fails under faults";
    drain();
    ASSERT_EQ(target->writes.size(), 1u)
        << "only the first line ever reached the bus";
}

} // namespace
