/**
 * @file
 * Tests for the background-traffic bus master: load generation,
 * arbitration fairness, and determinism.
 */

#include <gtest/gtest.h>

#include <memory>

#include "bus/system_bus.hh"
#include "bus/traffic_generator.hh"
#include "io/burst_device.hh"
#include "mem/main_memory.hh"
#include "mem/physical_memory.hh"
#include "sim/simulator.hh"

#include "../sim/trace_fixture.hh"

namespace {

using namespace csb;
using bus::BusStatus;
using bus::TrafficGenerator;
using bus::TrafficGeneratorParams;

class TgenFixture : public ::testing::Test
{
  protected:
    void
    make(const TrafficGeneratorParams &params)
    {
        bus::BusParams bus_params;
        bus_params.widthBytes = 8;
        bus_params.ratio = 6;
        bus_params.maxBurstBytes = 64;
        bus = std::make_unique<bus::SystemBus>(sim, bus_params);
        memory = std::make_unique<mem::MainMemory>(storage, 60);
        bus->addTarget(0, 1 << 20, memory.get());
        tgen = std::make_unique<TrafficGenerator>(sim, *bus, params);
    }

    sim::Simulator sim;
    mem::PhysicalMemory storage;
    std::unique_ptr<bus::SystemBus> bus;
    std::unique_ptr<mem::MainMemory> memory;
    std::unique_ptr<TrafficGenerator> tgen;
};

TEST_F(TgenFixture, GeneratesTrafficWhenRunning)
{
    TrafficGeneratorParams params;
    params.interval = 2.0;
    make(params);
    tgen->start();
    sim.runFor(6000); // 1000 bus cycles
    double txns = tgen->reads.value() + tgen->writes.value();
    EXPECT_GT(txns, 100.0);
    EXPECT_GT(tgen->reads.value(), 0.0);
    EXPECT_GT(tgen->writes.value(), 0.0);
}

TEST_F(TgenFixture, SilentUntilStarted)
{
    make(TrafficGeneratorParams{});
    sim.runFor(600);
    EXPECT_EQ(tgen->reads.value() + tgen->writes.value(), 0.0);
}

TEST_F(TgenFixture, StopQuiesces)
{
    TrafficGeneratorParams params;
    params.interval = 2.0;
    make(params);
    tgen->start();
    sim.runFor(600);
    tgen->stop();
    double txns = tgen->reads.value() + tgen->writes.value();
    sim.runFor(600);
    EXPECT_EQ(tgen->reads.value() + tgen->writes.value(), txns);
}

TEST_F(TgenFixture, RespectsWriteFraction)
{
    TrafficGeneratorParams params;
    params.interval = 1.0;
    params.writeFraction = 1.0;
    make(params);
    tgen->start();
    sim.runFor(3000);
    EXPECT_EQ(tgen->reads.value(), 0.0);
    EXPECT_GT(tgen->writes.value(), 0.0);
}

TEST(TrafficGeneratorDeterminism, SameSeedSameTraffic)
{
    auto run_once = [](std::uint64_t seed) {
        sim::Simulator simulator;
        bus::BusParams bus_params;
        bus_params.widthBytes = 8;
        bus_params.ratio = 6;
        bus_params.maxBurstBytes = 64;
        bus::SystemBus the_bus(simulator, bus_params);
        mem::PhysicalMemory storage;
        mem::MainMemory memory(storage, 60);
        the_bus.addTarget(0, 1 << 20, &memory);
        TrafficGeneratorParams params;
        params.seed = seed;
        TrafficGenerator generator(simulator, the_bus, params);
        generator.start();
        simulator.runFor(3000);
        return std::make_pair(generator.bytesMoved.value(),
                              the_bus.monitor().all().txns);
    };
    auto a = run_once(777);
    auto b = run_once(777);
    auto c = run_once(778);
    EXPECT_EQ(a, b);
    EXPECT_NE(a.second, 0u);
    // A different seed should produce a different access pattern
    // (byte totals may coincide; record streams rarely do).
    (void)c;
}

TEST_F(TgenFixture, StaysInsideItsRegion)
{
    TrafficGeneratorParams params;
    params.base = 0x40000;
    params.regionSize = 0x1000;
    params.interval = 1.0;
    make(params);
    trace_test::BusTxnCapture capture;
    tgen->start();
    sim.runFor(3000);
    for (const auto &rec : capture.txns()) {
        if (rec.kind == bus::TxnKind::ReadResp)
            continue;
        EXPECT_GE(rec.addr, 0x40000u);
        EXPECT_LT(rec.addr + rec.size, 0x41000u + 64);
    }
}

TEST_F(TgenFixture, SharesBusFairlyWithSecondMaster)
{
    TrafficGeneratorParams params;
    params.interval = 1.0; // saturating load
    make(params);
    MasterId victim = bus->registerMaster("victim");
    tgen->start();

    // The victim streams writes; round-robin must keep it moving.
    unsigned completed = 0;
    unsigned issued = 0;
    sim.run(
        [&] {
            if (issued < 50 && bus->masterIdle(victim)) {
                std::vector<std::uint8_t> data(8, 1);
                if (bus->requestWrite(victim, 0x80000 + issued * 8,
                                      std::move(data), true,
                                      [&](Tick, BusStatus,
                                          std::vector<std::uint8_t> &) {
                                          ++completed;
                                      })) {
                    ++issued;
                }
            }
            return completed == 50;
        },
        200000);
    EXPECT_EQ(completed, 50u)
        << "a saturating background load must not starve the victim";
}

} // namespace
