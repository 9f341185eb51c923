/**
 * @file
 * Property tests for the partial-flush relaxation and NI byte
 * conservation under random message mixes.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/kernels.hh"
#include "core/system.hh"
#include "core/workloads.hh"
#include "io/network_interface.hh"
#include "sim/random.hh"

#include "../sim/trace_fixture.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;

// --- Partial flush: every issued transaction is legal and exactly
// --- the valid bytes cross the bus, for every dword count.

class PartialFlush : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PartialFlush, IssuesExactlyTheValidBytes)
{
    unsigned dwords = GetParam();
    SystemConfig cfg;
    cfg.csb.partialFlush = true;
    cfg.normalize();
    System system(cfg);
    isa::Program p =
        core::makeCsbSequenceKernel(System::ioCsbBase, dwords);
    trace_test::BusTxnCapture capture;
    system.run(p);

    std::uint64_t bytes = 0;
    for (const auto &rec : capture.txns()) {
        if (rec.kind != bus::TxnKind::Write)
            continue;
        EXPECT_TRUE(isPowerOf2(rec.size));
        EXPECT_EQ(rec.addr % rec.size, 0u);
        bytes += rec.size;
    }
    EXPECT_EQ(bytes, dwords * 8ull)
        << "partial flush must move exactly the stored bytes";
    EXPECT_EQ(system.csb()->flushesSucceeded.value(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Dwords, PartialFlush,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u,
                                           8u));

// --- Partial flush data integrity: the device reassembles the same
// --- dwords a full-line flush would deliver.

TEST(PartialFlushData, MatchesFullLineContent)
{
    auto committed_dwords = [](bool partial) {
        SystemConfig cfg;
        cfg.csb.partialFlush = partial;
        cfg.normalize();
        System system(cfg);
        isa::Program p =
            core::makeCsbSequenceKernel(System::ioCsbBase, 5);
        system.run(p);
        std::vector<std::uint64_t> dwords(8, 0);
        for (const auto &write : system.device().writeLog()) {
            for (unsigned i = 0; i < write.data.size(); i += 8) {
                std::uint64_t value = 0;
                std::memcpy(&value, write.data.data() + i, 8);
                dwords[(write.addr + i - System::ioCsbBase) / 8] = value;
            }
        }
        return dwords;
    };
    EXPECT_EQ(committed_dwords(true), committed_dwords(false));
}

// --- NI byte conservation under random message mixes. --------------

TEST(NiConservation, RandomMessageMixDeliversExactPayloads)
{
    sim::Random rng(314159);
    for (int round = 0; round < 3; ++round) {
        std::vector<unsigned> sizes;
        unsigned count = 4 + static_cast<unsigned>(rng.uniform(0, 4));
        for (unsigned i = 0; i < count; ++i)
            sizes.push_back(
                static_cast<unsigned>(rng.uniform(9, 400)));

        for (bool use_csb : {false, true}) {
            core::BandwidthSetup setup;
            core::AppTrafficResult result =
                core::runMessageWorkload(setup, use_csb, sizes);
            EXPECT_EQ(result.delivered, sizes.size());
            std::uint64_t expected = 0;
            for (unsigned s : sizes)
                expected += s;
            EXPECT_EQ(result.payloadBytes, expected);
        }
    }
}

TEST(NiConservation, DeliveredPayloadSizesMatchInOrder)
{
    // Two CSB PIO messages of different, non-line-multiple sizes: the
    // delivered payloads must carry exactly those sizes, in order,
    // with the line padding stripped by the doorbell length.
    using isa::ir;
    SystemConfig cfg;
    cfg.enableNi = true;
    cfg.normalize();
    System system(cfg);

    Addr pio = System::niBase + io::NiMap::pioBase;
    Addr bell = System::niBase + io::NiMap::doorbell;
    const unsigned sizes[] = {24, 136};

    isa::Program p;
    for (int r = 2; r <= 8; ++r)
        p.li(ir(r), 0x6b6b6b6b6b6b6b6bULL);
    p.li(ir(1), static_cast<std::int64_t>(pio));
    p.li(ir(14), static_cast<std::int64_t>(bell));
    for (unsigned bytes : sizes) {
        unsigned dwords = divCeil(bytes, 8);
        for (unsigned group = 0; group * 8 < dwords; ++group) {
            unsigned first = group * 8;
            unsigned count = std::min(8u, dwords - first);
            isa::Label retry = p.newLabel();
            p.bind(retry);
            p.li(ir(9), static_cast<std::int64_t>(count));
            for (unsigned i = 0; i < count; ++i)
                p.std_(ir(2 + (first + i) % 7), ir(1), (first + i) * 8);
            p.swap(ir(9), ir(1), first * 8);
            p.li(ir(12), static_cast<std::int64_t>(count));
            p.bne(ir(9), ir(12), retry);
        }
        p.membar();
        p.li(ir(13), static_cast<std::int64_t>(bytes));
        p.std_(ir(13), ir(14), 0);
        p.membar();
    }
    p.halt();
    p.finalize();
    system.run(p);

    ASSERT_EQ(system.ni()->delivered().size(), 2u);
    EXPECT_EQ(system.ni()->delivered()[0].payload.size(), 24u);
    EXPECT_EQ(system.ni()->delivered()[1].payload.size(), 136u);
    for (std::uint8_t byte : system.ni()->delivered()[0].payload)
        EXPECT_EQ(byte, 0x6b);
}

} // namespace
