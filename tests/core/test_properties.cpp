/**
 * @file
 * Parameterized property sweeps across the full configuration space:
 * invariants that must hold for EVERY bus organization, width, ratio,
 * overhead setting, combining scheme and transfer size.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

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

struct SweepCase
{
    bus::BusKind kind;
    unsigned width;
    unsigned ratio;
    unsigned turnaround;
    unsigned ackDelay;
    unsigned lineBytes;
    Scheme scheme;

    friend std::ostream &
    operator<<(std::ostream &os, const SweepCase &c)
    {
        os << (c.kind == bus::BusKind::Multiplexed ? "mux" : "split")
           << "_w" << c.width << "_r" << c.ratio << "_t" << c.turnaround
           << "_a" << c.ackDelay << "_l" << c.lineBytes << "_"
           << core::schemeName(c.scheme);
        return os;
    }
};

BandwidthSetup
setupOf(const SweepCase &c)
{
    BandwidthSetup setup;
    setup.bus.kind = c.kind;
    setup.bus.widthBytes = c.width;
    setup.bus.ratio = c.ratio;
    setup.bus.turnaround = c.turnaround;
    setup.bus.ackDelay = c.ackDelay;
    setup.lineBytes = c.lineBytes;
    return setup;
}

class BusProperty : public ::testing::TestWithParam<SweepCase>
{
};

TEST_P(BusProperty, ProtocolAndConservationInvariants)
{
    const SweepCase &c = GetParam();
    BandwidthSetup setup = setupOf(c);

    SystemConfig cfg;
    cfg.lineBytes = setup.lineBytes;
    cfg.bus = setup.bus;
    cfg.enableCsb = c.scheme == Scheme::Csb;
    cfg.ubuf.combineBytes = core::schemeCombineBytes(c.scheme);
    cfg.normalize();
    System system(cfg);

    constexpr unsigned transfer = 192; // 3 lines at 64B, deliberately
                                       // not a multiple of 128
    isa::Program p =
        c.scheme == Scheme::Csb
            ? core::makeCsbStoreKernel(System::ioCsbBase, transfer,
                                       c.lineBytes)
            : core::makeStoreKernel(System::ioAccelBase, transfer);
    trace_test::BusTxnCapture capture;
    system.run(p);
    const auto &records = capture.txns();

    // P1: every transaction is naturally aligned, power-of-two sized,
    // and no larger than the configured burst maximum.
    for (const auto &rec : records) {
        EXPECT_TRUE(isPowerOf2(rec.size)) << rec.size;
        EXPECT_EQ(rec.addr % rec.size, 0u);
        EXPECT_LE(rec.size, cfg.bus.maxBurstBytes);
    }

    // P2: byte conservation at the device.  Non-CSB schemes deliver
    // exactly the stored bytes; the CSB delivers whole (padded)
    // lines, i.e. transfer rounded up to the line size.
    double expected =
        c.scheme == Scheme::Csb
            ? static_cast<double>(
                  roundUp(transfer, c.lineBytes))
            : static_cast<double>(transfer);
    EXPECT_EQ(system.device().bytesReceived.value(), expected);

    // P3: transactions never overlap in time on the shared resource:
    // sorted by address cycle, each Write's tenure must not intersect
    // the next one's on the same path.
    for (std::size_t i = 1; i < records.size(); ++i) {
        EXPECT_GT(records[i].addrCycle, records[i - 1].addrCycle)
            << "one address cycle per bus cycle";
    }

    // P4: ackDelay honoured between strongly ordered transactions.
    if (c.ackDelay > 0) {
        for (std::size_t i = 1; i < records.size(); ++i) {
            if (records[i].ordered && records[i - 1].ordered &&
                records[i].master == records[i - 1].master) {
                EXPECT_GE(records[i].addrCycle - records[i - 1].addrCycle,
                          c.ackDelay);
            }
        }
    }

    // P5: the system went fully quiescent.
    EXPECT_TRUE(system.quiescent());
}

std::vector<SweepCase>
sweepCases()
{
    std::vector<SweepCase> cases;
    const Scheme schemes[] = {Scheme::NoCombine, Scheme::Combine32,
                              Scheme::Combine64, Scheme::Csb};
    for (Scheme scheme : schemes) {
        for (unsigned ratio : {2u, 6u}) {
            cases.push_back({bus::BusKind::Multiplexed, 8, ratio, 0, 0,
                             64, scheme});
        }
        cases.push_back(
            {bus::BusKind::Multiplexed, 8, 6, 1, 0, 64, scheme});
        cases.push_back(
            {bus::BusKind::Multiplexed, 8, 6, 0, 4, 64, scheme});
        cases.push_back(
            {bus::BusKind::Multiplexed, 8, 6, 0, 8, 64, scheme});
        cases.push_back({bus::BusKind::Split, 16, 6, 0, 0, 64, scheme});
        cases.push_back({bus::BusKind::Split, 32, 6, 0, 0, 64, scheme});
        cases.push_back({bus::BusKind::Split, 16, 6, 1, 4, 64, scheme});
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, BusProperty, ::testing::ValuesIn(sweepCases()),
    [](const ::testing::TestParamInfo<SweepCase> &info) {
        std::ostringstream os;
        os << info.param;
        std::string name = os.str();
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

// --- Monotonicity: bandwidth never decreases with transfer size for
// --- combining schemes on a clean bus (figure 3's qualitative law).

struct MonotonicCase
{
    Scheme scheme;
    unsigned ratio;
};

class BandwidthMonotonic
    : public ::testing::TestWithParam<MonotonicCase>
{
};

TEST_P(BandwidthMonotonic, NonDecreasingInTransferSize)
{
    BandwidthSetup setup;
    setup.bus.kind = bus::BusKind::Multiplexed;
    setup.bus.widthBytes = 8;
    setup.bus.ratio = GetParam().ratio;
    setup.lineBytes = 64;
    double previous = 0;
    for (unsigned size : core::defaultTransferSizes()) {
        double bw =
            core::measureStoreBandwidth(setup, GetParam().scheme, size);
        EXPECT_GE(bw, previous - 1e-9)
            << core::schemeName(GetParam().scheme) << " at " << size;
        previous = bw;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, BandwidthMonotonic,
    ::testing::Values(MonotonicCase{Scheme::NoCombine, 6},
                      MonotonicCase{Scheme::Combine16, 6},
                      MonotonicCase{Scheme::Combine32, 6},
                      MonotonicCase{Scheme::Combine64, 6},
                      MonotonicCase{Scheme::Csb, 6},
                      MonotonicCase{Scheme::Combine64, 2},
                      MonotonicCase{Scheme::Csb, 10}),
    [](const ::testing::TestParamInfo<MonotonicCase> &info) {
        std::string name = core::schemeName(info.param.scheme) + "_r" +
                           std::to_string(info.param.ratio);
        for (char &ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

// --- CSB end-to-end data integrity across line sizes. -----------------

class CsbLineSize : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CsbLineSize, FullLineDataIntegrity)
{
    unsigned line = GetParam();
    SystemConfig cfg;
    cfg.lineBytes = line;
    cfg.normalize();
    System system(cfg);
    isa::Program p =
        core::makeCsbStoreKernel(System::ioCsbBase, 2 * line, line);
    system.run(p);

    ASSERT_EQ(system.device().writeLog().size(), 2u);
    for (unsigned g = 0; g < 2; ++g) {
        const auto &write = system.device().writeLog()[g];
        EXPECT_EQ(write.addr, System::ioCsbBase + g * line);
        ASSERT_EQ(write.data.size(), line);
        for (unsigned i = 0; i < line / 8; ++i) {
            std::uint64_t got = 0;
            std::memcpy(&got, write.data.data() + i * 8, 8);
            unsigned dword_index = g * (line / 8) + i;
            std::uint64_t want =
                0x1111111111111111ULL * (2 + dword_index % 7);
            EXPECT_EQ(got, want) << "line " << g << " dword " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Lines, CsbLineSize,
                         ::testing::Values(16u, 32u, 64u, 128u));

} // namespace
