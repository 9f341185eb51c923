/**
 * @file
 * End-to-end integration tests reproducing the paper's analytic
 * reference points (section 4.3).
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/experiments.hh"
#include "core/kernels.hh"
#include "core/system.hh"

#include "../sim/trace_fixture.hh"

namespace {

using namespace csb;
using core::BandwidthSetup;
using core::Scheme;
using core::System;
using core::SystemConfig;

BandwidthSetup
muxSetup(unsigned ratio = 6, unsigned line = 64, unsigned turnaround = 0,
         unsigned ack = 0)
{
    BandwidthSetup setup;
    setup.bus.kind = bus::BusKind::Multiplexed;
    setup.bus.widthBytes = 8;
    setup.bus.ratio = ratio;
    setup.bus.turnaround = turnaround;
    setup.bus.ackDelay = ack;
    setup.lineBytes = line;
    return setup;
}

TEST(Integration, NonCombiningBandwidthIsHalfPeak)
{
    // Paper: "the effective bus bandwidth is 4 bytes per bus cycle,
    // which is half of the peak bandwidth", independent of size.
    for (unsigned size : {16u, 64u, 256u, 1024u}) {
        double bw = measureStoreBandwidth(muxSetup(), Scheme::NoCombine,
                                          size);
        EXPECT_DOUBLE_EQ(bw, 4.0) << "transfer " << size;
    }
}

TEST(Integration, CsbSingleLineBandwidth)
{
    // One full 64-byte line: 1 addr + 8 data cycles.
    double bw = measureStoreBandwidth(muxSetup(), Scheme::Csb, 64);
    EXPECT_NEAR(bw, 64.0 / 9.0, 1e-9);
}

TEST(Integration, CsbSmallTransferPenalty)
{
    // 16 useful bytes still cost a full 9-cycle line burst.
    double bw = measureStoreBandwidth(muxSetup(), Scheme::Csb, 16);
    EXPECT_NEAR(bw, 16.0 / 9.0, 1e-9);
}

TEST(Integration, CsbBeatsEverythingAtLineSize)
{
    for (Scheme scheme : {Scheme::NoCombine, Scheme::Combine16,
                          Scheme::Combine32, Scheme::Combine64}) {
        double other = measureStoreBandwidth(muxSetup(), scheme, 64);
        double csb = measureStoreBandwidth(muxSetup(), Scheme::Csb, 64);
        EXPECT_GT(csb, other) << core::schemeName(scheme);
    }
}

TEST(Integration, NoCombineBeatsCsbForTinyTransfers)
{
    double nc = measureStoreBandwidth(muxSetup(), Scheme::NoCombine, 16);
    double csb = measureStoreBandwidth(muxSetup(), Scheme::Csb, 16);
    EXPECT_GT(nc, csb)
        << "sub-line transfers are penalized by the full-line burst";
}

TEST(Integration, CombiningApproachesCsbForLargeTransfers)
{
    double comb = measureStoreBandwidth(muxSetup(), Scheme::Combine64, 1024);
    double csb = measureStoreBandwidth(muxSetup(), Scheme::Csb, 1024);
    EXPECT_GT(comb, 4.0) << "combining must beat the non-combined rate";
    EXPECT_LE(comb, csb + 1e-9);
    EXPECT_GT(comb / csb, 0.6)
        << "large transfers should approach the CSB burst rate";
}

TEST(Integration, SplitBusDwordUsesHalfWidth)
{
    BandwidthSetup setup = muxSetup();
    setup.bus.kind = bus::BusKind::Split;
    setup.bus.widthBytes = 16;
    double bw = measureStoreBandwidth(setup, Scheme::NoCombine, 256);
    EXPECT_DOUBLE_EQ(bw, 8.0)
        << "a dword uses half of a 128-bit data path";
}

TEST(Integration, SplitBusCsbFullWidth)
{
    BandwidthSetup setup = muxSetup();
    setup.bus.kind = bus::BusKind::Split;
    setup.bus.widthBytes = 16;
    double bw = measureStoreBandwidth(setup, Scheme::Csb, 1024);
    // 64-byte bursts in 4 back-to-back data cycles: 16 B/cycle.
    EXPECT_NEAR(bw, 16.0, 0.5);
}

TEST(Integration, AckDelayHurtsShortTransactionsOnly)
{
    BandwidthSetup plain = muxSetup();
    BandwidthSetup delayed = muxSetup(6, 64, 0, /*ack=*/8);
    double nc_plain = measureStoreBandwidth(plain, Scheme::NoCombine, 256);
    double nc_delay = measureStoreBandwidth(delayed, Scheme::NoCombine, 256);
    EXPECT_LT(nc_delay, nc_plain / 2)
        << "dword writes every 8 cycles instead of every 2";
    double csb_plain = measureStoreBandwidth(plain, Scheme::Csb, 1024);
    double csb_delay = measureStoreBandwidth(delayed, Scheme::Csb, 1024);
    EXPECT_NEAR(csb_delay, csb_plain, 0.2)
        << "a 9-cycle burst hides an 8-cycle acknowledgment";
}

TEST(Integration, EveryIoTransactionIsAlignedPowerOfTwo)
{
    // Run a mixed workload and verify the bus-protocol invariant on
    // everything the uncached buffer and CSB produced.
    BandwidthSetup setup = muxSetup();
    for (Scheme scheme :
         {Scheme::NoCombine, Scheme::Combine32, Scheme::Csb}) {
        SystemConfig cfg;
        cfg.lineBytes = setup.lineBytes;
        cfg.bus = setup.bus;
        cfg.enableCsb = scheme == Scheme::Csb;
        cfg.ubuf.combineBytes = core::schemeCombineBytes(scheme);
        cfg.normalize();
        System system(cfg);
        isa::Program p =
            scheme == Scheme::Csb
                ? core::makeCsbStoreKernel(System::ioCsbBase, 192, 64)
                : core::makeStoreKernel(System::ioAccelBase, 192);
        trace_test::BusTxnCapture capture;
        system.run(p);
        for (const auto &rec : capture.txns()) {
            EXPECT_TRUE(isPowerOf2(rec.size));
            EXPECT_EQ(rec.addr % rec.size, 0u);
        }
    }
}

TEST(Integration, ByteConservationThroughUncachedBuffer)
{
    // Every stored byte crosses the bus exactly once (no loss, no
    // duplication) for every combining scheme.
    for (Scheme scheme : {Scheme::NoCombine, Scheme::Combine16,
                          Scheme::Combine32, Scheme::Combine64}) {
        SystemConfig cfg;
        cfg.bus = muxSetup().bus;
        cfg.enableCsb = false;
        cfg.ubuf.combineBytes = core::schemeCombineBytes(scheme);
        cfg.normalize();
        System system(cfg);
        isa::Program p = core::makeStoreKernel(System::ioAccelBase, 264);
        system.run(p);
        EXPECT_EQ(system.bus().bytesWritten.value(), 264.0)
            << core::schemeName(scheme);
        EXPECT_EQ(system.device().bytesReceived.value(), 264.0);
    }
}

TEST(Integration, DeviceSeesExactStoredBytes)
{
    SystemConfig cfg;
    cfg.bus = muxSetup().bus;
    cfg.ubuf.combineBytes = 64;
    cfg.enableCsb = false;
    cfg.normalize();
    System system(cfg);
    isa::Program p = core::makeStoreKernel(System::ioAccelBase, 64);
    system.run(p);

    // Reassemble the device image and compare with the kernel's data
    // pattern (r2..r8 rotating).
    std::vector<std::uint8_t> image(64, 0);
    for (const auto &write : system.device().writeLog()) {
        std::copy(write.data.begin(), write.data.end(),
                  image.begin() + (write.addr - System::ioAccelBase));
    }
    for (unsigned i = 0; i < 8; ++i) {
        std::uint64_t got = 0;
        std::memcpy(&got, image.data() + i * 8, 8);
        std::uint64_t want = 0x1111111111111111ULL * (2 + i % 7);
        EXPECT_EQ(got, want) << "dword " << i;
    }
}

TEST(Integration, LockOverheadSlopeMatchesPaper)
{
    // Figure 5(a): without combining, latency grows ~12 CPU cycles
    // per doubleword at a CPU:bus ratio of 6 (one 2-cycle bus
    // transaction each).
    BandwidthSetup setup = muxSetup();
    double c2 = measureLockedSequence(setup, Scheme::NoCombine, 2, false);
    double c8 = measureLockedSequence(setup, Scheme::NoCombine, 8, false);
    double slope = (c8 - c2) / 6.0;
    EXPECT_NEAR(slope, 12.0, 2.0);
}

TEST(Integration, CsbSequenceSlopeMatchesPaper)
{
    // Figure 5: CSB latency increases ~1 cycle per doubleword (one
    // combining store retires per cycle).
    BandwidthSetup setup = muxSetup();
    double c2 = measureCsbSequence(setup, 2);
    double c8 = measureCsbSequence(setup, 8);
    double slope = (c8 - c2) / 6.0;
    EXPECT_NEAR(slope, 1.0, 0.5);
}

TEST(Integration, CsbFarCheaperThanLockedAccess)
{
    BandwidthSetup setup = muxSetup();
    for (unsigned n : {2u, 4u, 8u}) {
        double locked =
            measureLockedSequence(setup, Scheme::NoCombine, n, false);
        double via_csb = measureCsbSequence(setup, n);
        EXPECT_LT(via_csb, locked / 2) << n << " dwords";
    }
}

TEST(Integration, LockMissAddsRoughlyMissLatency)
{
    // Figure 5(b): a lock miss adds ~130 cycles (100-cycle memory
    // latency plus the longer acquire/release path).
    BandwidthSetup setup = muxSetup();
    double hit = measureLockedSequence(setup, Scheme::NoCombine, 4, false);
    double miss = measureLockedSequence(setup, Scheme::NoCombine, 4, true);
    EXPECT_GT(miss - hit, 60.0);
    EXPECT_LT(miss - hit, 250.0);
}

} // namespace
