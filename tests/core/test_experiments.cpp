/**
 * @file
 * Tests of the experiment-runner layer itself: scheme helpers, sweep
 * structure, table formatting, config printing, and the message-
 * latency harness.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>

#include "core/experiments.hh"
#include "core/system_config.hh"
#include "sim/fault.hh"

namespace {

using namespace csb;
using core::BandwidthSetup;
using core::Scheme;

TEST(Experiments, SchemeHelpers)
{
    EXPECT_EQ(core::schemeName(Scheme::NoCombine), "no-comb");
    EXPECT_EQ(core::schemeName(Scheme::Csb), "CSB");
    EXPECT_EQ(core::schemeCombineBytes(Scheme::NoCombine), 0u);
    EXPECT_EQ(core::schemeCombineBytes(Scheme::Combine32), 32u);
    EXPECT_EQ(core::schemeCombineBytes(Scheme::Csb), 0u);
}

TEST(Experiments, SchemesForLineScaleWithLine)
{
    auto s32 = core::schemesForLine(32);
    ASSERT_EQ(s32.size(), 4u);
    EXPECT_EQ(s32.front(), Scheme::NoCombine);
    EXPECT_EQ(s32.back(), Scheme::Csb);
    auto s128 = core::schemesForLine(128);
    EXPECT_EQ(s128.size(), 6u);
}

TEST(Experiments, DefaultTransferSizesMatchPaperAxis)
{
    auto sizes = core::defaultTransferSizes();
    EXPECT_EQ(sizes.front(), 16u);
    EXPECT_EQ(sizes.back(), 1024u);
    for (std::size_t i = 1; i < sizes.size(); ++i)
        EXPECT_EQ(sizes[i], sizes[i - 1] * 2);
}

TEST(Experiments, SweepHasFullMatrix)
{
    BandwidthSetup setup;
    setup.bus.ratio = 6;
    setup.lineBytes = 64;
    std::vector<unsigned> sizes = {16, 64};
    std::vector<Scheme> schemes = {Scheme::NoCombine, Scheme::Csb};
    core::SweepRunner serial(1);
    core::BandwidthSweep sweep =
        core::runBandwidthSweep(serial, "test", setup, schemes, sizes);
    ASSERT_EQ(sweep.bandwidth.size(), 2u);
    ASSERT_EQ(sweep.bandwidth[0].size(), 2u);
    for (const auto &row : sweep.bandwidth) {
        for (double bw : row)
            EXPECT_GT(bw, 0.0);
    }
}

TEST(Experiments, PrintSweepIsATable)
{
    BandwidthSetup setup;
    core::SweepRunner serial(1);
    core::BandwidthSweep sweep = core::runBandwidthSweep(
        serial, "unit-test panel", setup, {Scheme::NoCombine}, {16, 32});
    std::ostringstream os;
    core::printSweep(sweep, os);
    std::string text = os.str();
    EXPECT_NE(text.find("unit-test panel"), std::string::npos);
    EXPECT_NE(text.find("no-comb"), std::string::npos);
    EXPECT_NE(text.find("16"), std::string::npos);
    EXPECT_NE(text.find("bytes per bus cycle"), std::string::npos);
}

TEST(Experiments, LatencySweepShapes)
{
    BandwidthSetup setup;
    core::SweepRunner serial(1);
    core::LatencySweep sweep = core::runLatencySweep(
        serial, "fig5 unit", setup, /*lock_miss=*/false);
    ASSERT_EQ(sweep.dwords.size(), 7u);
    ASSERT_EQ(sweep.cycles.size(), sweep.schemes.size());
    // Last scheme is the CSB and must be cheapest everywhere.
    const auto &csb_row = sweep.cycles.back();
    for (std::size_t i = 0; i + 1 < sweep.schemes.size(); ++i) {
        for (std::size_t j = 0; j < sweep.dwords.size(); ++j)
            EXPECT_LT(csb_row[j], sweep.cycles[i][j]);
    }
    std::ostringstream os;
    core::printLatencySweep(sweep, os);
    EXPECT_NE(os.str().find("lock+no-comb"), std::string::npos);
}

TEST(Experiments, MessageLatencyOrdering)
{
    BandwidthSetup setup;
    core::MessageLatency small = core::measureMessageLatency(setup, 32);
    EXPECT_LT(small.pioLockedCycles, small.dmaCycles)
        << "PIO beats DMA for short messages";
    core::MessageLatency large =
        core::measureMessageLatency(setup, 2048);
    EXPECT_LT(large.dmaCycles, large.pioLockedCycles)
        << "DMA beats conventional PIO for large messages";
    EXPECT_LT(large.pioCsbCycles, large.dmaCycles)
        << "the CSB keeps PIO ahead of DMA (section 5)";
}

/** @p value as printConfig is expected to show it. */
template <class T>
std::string
knobText(const T &value)
{
    std::ostringstream os;
    if constexpr (std::is_same_v<T, bool>)
        os << (value ? "true" : "false");
    else if constexpr (std::is_enum_v<T>)
        os << static_cast<int>(value);
    else if constexpr (std::is_arithmetic_v<T>)
        os << value;
    else
        os << sim::faultScheduleSpec(value);
    return os.str();
}

TEST(Experiments, ConfigPrinterListsEveryKnob)
{
    core::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.enableNi = true;
    cfg.csb.numLineBuffers = 2;
    cfg.ni.wireTicksPerByte = 0.25;
    cfg.faults.schedule = sim::parseFaultSchedule("oneshot:bus-read-nack:50");
    cfg.normalize();
    std::ostringstream os;
    core::printConfig(cfg, os);

    // One "name = value" line per table entry, in table order.
    std::istringstream lines(os.str());
    std::string line;
    core::visitKnobs(cfg, [&](const char *name, const auto &value) {
        ASSERT_TRUE(std::getline(lines, line)) << name;
        EXPECT_EQ(line, std::string(name) + " = " + knobText(value));
    });
    EXPECT_FALSE(std::getline(lines, line)) << "extra line: " << line;
    EXPECT_NE(os.str().find("\nni.wireTicksPerByte = 0.25\n"),
              std::string::npos);
    EXPECT_NE(os.str().find("\nfaults.schedule = oneshot:bus-read-nack:50\n"),
              std::string::npos);
}

} // namespace
