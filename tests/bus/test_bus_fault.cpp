/**
 * @file
 * Bus error/retry protocol tests: injected NACKs and errors, the
 * completion-status plumbing, target-driven NACKs, unmapped-address
 * diagnostics, and the retry backoff schedule.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bus/retry.hh"
#include "bus/system_bus.hh"
#include "io/burst_device.hh"
#include "sim/fault.hh"
#include "sim/simulator.hh"

#include "../sim/trace_fixture.hh"

namespace {

using namespace csb;
using bus::BusParams;
using bus::BusStatus;
using bus::BusTransaction;
using bus::SystemBus;

/** Records every delivered write; NACKs the first @p nacks accepts. */
class CountingTarget : public bus::BusTarget
{
  public:
    explicit CountingTarget(unsigned nacks = 0) : nacksLeft_(nacks) {}

    const std::string &targetName() const override { return name_; }

    BusStatus
    accept(const BusTransaction &, Tick) override
    {
        if (nacksLeft_ > 0) {
            --nacksLeft_;
            return BusStatus::Nack;
        }
        return BusStatus::Ok;
    }

    void
    write(BusTransaction &txn, Tick) override
    {
        writes.push_back(txn.data);
    }

    Tick
    read(const BusTransaction &txn, Tick now,
         std::vector<std::uint8_t> &data) override
    {
        data.assign(txn.size, 0x5a);
        return now + 10;
    }

    std::vector<std::vector<std::uint8_t>> writes;

  private:
    std::string name_ = "counting";
    unsigned nacksLeft_;
};

class BusFaultFixture : public ::testing::Test
{
  protected:
    void
    make(unsigned target_nacks = 0, bool error_responses = false)
    {
        BusParams params;
        params.kind = bus::BusKind::Multiplexed;
        params.widthBytes = 8;
        params.ratio = 6;
        params.maxBurstBytes = 64;
        params.errorResponses = error_responses;
        bus = std::make_unique<SystemBus>(sim, params);
        target = std::make_unique<CountingTarget>(target_nacks);
        bus->addTarget(0, 0x100000, target.get());
        master = bus->registerMaster("m");
    }

    sim::Simulator sim;
    std::unique_ptr<SystemBus> bus;
    std::unique_ptr<CountingTarget> target;
    MasterId master = 0;
};

TEST_F(BusFaultFixture, InjectedWriteNackReachesCallbackNotTarget)
{
    make();
    sim::FaultPlan plan;
    plan.busWriteNackRate = 1.0;
    sim::FaultInjector injector(plan);
    bus->setFaultInjector(&injector);
    trace_test::BusTxnCapture capture;

    BusStatus got = BusStatus::Ok;
    bool done = false;
    std::vector<std::uint8_t> data(8, 0xaa);
    std::vector<std::uint8_t> returned;
    ASSERT_TRUE(bus->requestWrite(master, 0x100, data, true,
                                  [&](Tick, BusStatus status,
                                      std::vector<std::uint8_t> &payload) {
                                      got = status;
                                      returned = std::move(payload);
                                      done = true;
                                  }));
    sim.run([&] { return done; }, 10000);
    EXPECT_EQ(got, BusStatus::Nack);
    EXPECT_EQ(returned, data)
        << "a NACKed write hands its payload back for the retry";
    EXPECT_TRUE(target->writes.empty())
        << "a NACKed write must not be delivered";
    EXPECT_EQ(bus->numNacks.value(), 1.0);
    EXPECT_EQ(injector.busWriteNacks.value(), 1.0);
    const auto &txns = capture.txns();
    ASSERT_FALSE(txns.empty());
    EXPECT_EQ(txns.back().status, BusStatus::Nack);
}

TEST_F(BusFaultFixture, InjectedReadNackCompletesEmptyAtAddrPhase)
{
    make();
    sim::FaultPlan plan;
    plan.busReadNackRate = 1.0;
    sim::FaultInjector injector(plan);
    bus->setFaultInjector(&injector);

    BusStatus got = BusStatus::Ok;
    std::vector<std::uint8_t> payload{1};
    bool done = false;
    ASSERT_TRUE(bus->requestRead(
        master, 0x40, 8, false,
        [&](Tick, BusStatus status, const std::vector<std::uint8_t> &d) {
            got = status;
            payload = d;
            done = true;
        }));
    sim.run([&] { return done; }, 10000);
    EXPECT_EQ(got, BusStatus::Nack);
    EXPECT_TRUE(payload.empty()) << "a NACKed read returns no data";
    EXPECT_EQ(bus->numNacks.value(), 1.0);
}

TEST_F(BusFaultFixture, TargetAcceptNackHonoredAtCompletion)
{
    make(/*target_nacks=*/2);
    unsigned nacks = 0;
    unsigned oks = 0;
    std::vector<std::uint8_t> data(8, 0xbb);
    for (int i = 0; i < 3; ++i) {
        bool done = false;
        ASSERT_TRUE(bus->requestWrite(master, 0x100, data, true,
                                      [&](Tick, BusStatus status,
                                          std::vector<std::uint8_t> &) {
                                          (status == BusStatus::Ok
                                               ? oks
                                               : nacks) += 1;
                                          done = true;
                                      }));
        sim.run([&] { return done; }, 10000);
    }
    EXPECT_EQ(nacks, 2u);
    EXPECT_EQ(oks, 1u);
    ASSERT_EQ(target->writes.size(), 1u)
        << "delivery happens exactly once, on the accepted attempt";
    EXPECT_EQ(bus->numNacks.value(), 2.0);
}

TEST_F(BusFaultFixture, InjectedBusErrorIsNotRetryable)
{
    make();
    sim::FaultPlan plan;
    plan.busErrorRate = 1.0;
    sim::FaultInjector injector(plan);
    bus->setFaultInjector(&injector);

    BusStatus got = BusStatus::Ok;
    bool done = false;
    std::vector<std::uint8_t> data(8, 0xcc);
    ASSERT_TRUE(bus->requestWrite(master, 0x100, data, true,
                                  [&](Tick, BusStatus status,
                                      std::vector<std::uint8_t> &) {
                                      got = status;
                                      done = true;
                                  }));
    sim.run([&] { return done; }, 10000);
    EXPECT_EQ(got, BusStatus::Error);
    EXPECT_TRUE(target->writes.empty());
    EXPECT_EQ(bus->numErrors.value(), 1.0);
}

TEST_F(BusFaultFixture, UnmappedAddressPanicNamesMasterAndKind)
{
    make();
    std::vector<std::uint8_t> data(8, 0);
    EXPECT_DEATH(bus->requestWrite(master, 0x900000, data, true, {}),
                 "issued by master 'm'");
}

TEST_F(BusFaultFixture, UnmappedAddressDeliversErrorWhenEnabled)
{
    make(/*target_nacks=*/0, /*error_responses=*/true);
    BusStatus got = BusStatus::Ok;
    bool done = false;
    std::vector<std::uint8_t> data(8, 0);
    ASSERT_TRUE(bus->requestWrite(master, 0x900000, data, true,
                                  [&](Tick, BusStatus status,
                                      std::vector<std::uint8_t> &) {
                                      got = status;
                                      done = true;
                                  }));
    sim.run([&] { return done; }, 10000);
    EXPECT_EQ(got, BusStatus::Error);
    EXPECT_EQ(bus->numErrors.value(), 1.0);
}

TEST(RetryPolicy, BackoffIsGeometricAndCapped)
{
    bus::RetryPolicy policy;
    policy.initialBackoffTicks = 16;
    policy.multiplier = 2;
    policy.maxBackoffTicks = 100;
    EXPECT_EQ(policy.backoffFor(1), 16u);
    EXPECT_EQ(policy.backoffFor(2), 32u);
    EXPECT_EQ(policy.backoffFor(3), 64u);
    EXPECT_EQ(policy.backoffFor(4), 100u) << "capped";
    EXPECT_EQ(policy.backoffFor(20), 100u) << "no overflow at high attempts";
}

TEST(FaultPlanValidate, RejectsRatesOutsideUnitInterval)
{
    sim::FaultPlan plan;
    plan.busWriteNackRate = 1.5;
    EXPECT_THROW(plan.validate(), FatalError);
    plan.busWriteNackRate = -0.1;
    EXPECT_THROW(plan.validate(), FatalError);
    plan.busWriteNackRate = 0.5;
    EXPECT_NO_THROW(plan.validate());
}

TEST(FaultInjectorDeterminism, SameSeedSameDecisions)
{
    sim::FaultPlan plan;
    plan.seed = 99;
    plan.wireDropRate = 0.3;
    sim::FaultInjector a(plan);
    sim::FaultInjector b(plan);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.shouldFault(sim::FaultSite::WireDrop, 0),
                  b.shouldFault(sim::FaultSite::WireDrop, 0));
    }
    EXPECT_GT(a.wireDrops.value(), 0.0);
    EXPECT_LT(a.wireDrops.value(), 1000.0);
}

TEST(FaultInjectorDeterminism, ZeroRateSiteNeverDraws)
{
    sim::FaultPlan plan;
    plan.seed = 5;
    plan.wireDropRate = 0.5;
    // Interleaving zero-rate queries must not perturb the nonzero
    // site's stream: they never touch the generator.
    sim::FaultInjector a(plan);
    sim::FaultInjector b(plan);
    std::vector<bool> with_noise;
    std::vector<bool> without;
    for (int i = 0; i < 200; ++i) {
        EXPECT_FALSE(a.shouldFault(sim::FaultSite::BusError, 0));
        with_noise.push_back(a.shouldFault(sim::FaultSite::WireDrop, 0));
        without.push_back(b.shouldFault(sim::FaultSite::WireDrop, 0));
    }
    EXPECT_EQ(with_noise, without);
    EXPECT_EQ(a.busErrors.value(), 0.0);
}

} // namespace
