/**
 * @file
 * Symmetric-multiprocessor tests: the paper's motivating setting is
 * cluster nodes that are themselves SMPs, where I/O bus occupancy and
 * synchronization overhead compound.  Two cores with private CSBs
 * share the bus and the device.
 */

#include <gtest/gtest.h>

#include "core/kernels.hh"
#include "core/system.hh"

#include "../sim/trace_fixture.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;

SystemConfig
dualConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.normalize();
    return cfg;
}

/** Run both cores to completion. */
void
runBoth(System &system, const isa::Program &a, const isa::Program &b)
{
    system.core(0).loadProgram(&a, 1);
    system.core(1).loadProgram(&b, 2);
    system.simulator().run(
        [&] {
            return system.core(0).halted() && system.core(1).halted() &&
                   system.quiescent();
        },
        5'000'000);
    ASSERT_TRUE(system.core(0).halted());
    ASSERT_TRUE(system.core(1).halted());
}

TEST(Smp, TwoCoresRunIndependently)
{
    System system(dualConfig());
    isa::Program a;
    a.li(isa::ir(1), 11);
    a.li(isa::ir(2), 0x8000);
    a.std_(isa::ir(1), isa::ir(2), 0);
    a.halt();
    a.finalize();
    isa::Program b;
    b.li(isa::ir(1), 22);
    b.li(isa::ir(2), 0x8100);
    b.std_(isa::ir(1), isa::ir(2), 0);
    b.halt();
    b.finalize();
    runBoth(system, a, b);
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x8000), 11u);
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x8100), 22u);
}

TEST(Smp, PrivateCsbsNeverConflict)
{
    // Unlike two processes timesharing one CPU, two processors have
    // their own CSBs: concurrent sequences to the device cannot clear
    // each other.
    System system(dualConfig());
    isa::Program a = core::makeCsbStoreKernel(System::ioCsbBase, 4 * 64,
                                              64);
    isa::Program b = core::makeCsbStoreKernel(
        System::ioCsbBase + 0x1000, 4 * 64, 64);
    runBoth(system, a, b);

    EXPECT_EQ(system.csb(0)->flushesFailed.value(), 0.0);
    EXPECT_EQ(system.csb(1)->flushesFailed.value(), 0.0);
    EXPECT_EQ(system.csb(0)->flushesSucceeded.value(), 4.0);
    EXPECT_EQ(system.csb(1)->flushesSucceeded.value(), 4.0);
    EXPECT_EQ(system.device().writeLog().size(), 8u);
    for (const auto &write : system.device().writeLog())
        EXPECT_EQ(write.data.size(), 64u) << "every commit is one burst";
}

TEST(Smp, BusArbitrationInterleavesBursts)
{
    System system(dualConfig());
    isa::Program a = core::makeCsbStoreKernel(System::ioCsbBase, 8 * 64,
                                              64);
    isa::Program b = core::makeCsbStoreKernel(
        System::ioCsbBase + 0x1000, 8 * 64, 64);
    trace_test::BusTxnCapture capture;
    runBoth(system, a, b);

    // Both masters' line bursts appear, and the combined stream is
    // still one-address-cycle-per-transaction legal.
    const auto &records = capture.txns();
    bool saw[2] = {false, false};
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (records[i].addr >= System::ioCsbBase + 0x1000)
            saw[1] = true;
        else if (records[i].addr >= System::ioCsbBase)
            saw[0] = true;
        if (i > 0) {
            EXPECT_GT(records[i].addrCycle, records[i - 1].addrCycle);
        }
    }
    EXPECT_TRUE(saw[0]);
    EXPECT_TRUE(saw[1]);
}

TEST(Smp, SharedBusHalvesPerCoreBandwidth)
{
    // One core streaming alone vs two cores streaming together: each
    // gets roughly half of the (saturated) bus.
    auto window_cycles = [](unsigned cores) {
        SystemConfig cfg;
        cfg.numCores = cores;
        cfg.normalize();
        System system(cfg);
        isa::Program a =
            core::makeCsbStoreKernel(System::ioCsbBase, 16 * 64, 64);
        isa::Program b = core::makeCsbStoreKernel(
            System::ioCsbBase + 0x1000, 16 * 64, 64);
        system.core(0).loadProgram(&a, 1);
        if (cores > 1)
            system.core(1).loadProgram(&b, 2);
        system.simulator().run(
            [&] {
                for (unsigned c = 0; c < cores; ++c) {
                    if (!system.core(c).halted())
                        return false;
                }
                return system.quiescent();
            },
            5'000'000);
        return system.ioWriteBusCycles();
    };
    std::uint64_t solo = window_cycles(1);
    std::uint64_t duo = window_cycles(2);
    // Twice the data over a saturated bus: about twice the window.
    EXPECT_GT(duo, solo + solo / 2);
    EXPECT_LT(duo, 3 * solo);
}

TEST(Smp, UncachedBuffersArePrivate)
{
    System system(dualConfig());
    isa::Program a = core::makeStoreKernel(System::ioAccelBase, 128);
    isa::Program b =
        core::makeStoreKernel(System::ioAccelBase + 0x1000, 128);
    runBoth(system, a, b);
    EXPECT_EQ(system.uncachedBuffer(0).storesPushed.value(), 16.0);
    EXPECT_EQ(system.uncachedBuffer(1).storesPushed.value(), 16.0);
    EXPECT_EQ(system.device().bytesReceived.value(), 256.0);
}

} // namespace
