/**
 * @file
 * Harness: report determinism across jobs, spec derivation, and
 * corpus replay against the checked-in regression entries
 * (docs/LITMUS.md).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "litmus/harness.hh"

namespace csb::litmus {
namespace {

namespace fs = std::filesystem;

TEST(LitmusHarness, SpecDerivationIsDeterministic)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        std::vector<RunSpec> a = specsForSeed(seed, false, 0);
        std::vector<RunSpec> b = specsForSeed(seed, false, 0);
        ASSERT_EQ(a.size(), b.size());
        ASSERT_EQ(a.size(), 3u); // one spec per scheme
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].name(), b[i].name());
            EXPECT_EQ(a[i].quantum, b[i].quantum);
            EXPECT_EQ(a[i].faultSeed, b[i].faultSeed);
        }
        // Quantum stays in the convergence-friendly band.
        EXPECT_GE(a[0].quantum, 120u);
        EXPECT_LE(a[0].quantum, 400u);
        EXPECT_NE(a[0].faultSeed, 0u);
    }
}

TEST(LitmusHarness, ScheduledFaultAxisIsDrawnAndOptional)
{
    // A quarter of sampled seeds draw the burst schedule; an empty
    // schedule disables the axis entirely.
    bool any_scheduled = false;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        for (const RunSpec &spec : specsForSeed(seed, false, 0))
            any_scheduled = any_scheduled || !spec.schedule.empty();
        for (const RunSpec &spec : specsForSeed(seed, false, 0, ""))
            EXPECT_TRUE(spec.schedule.empty());
    }
    EXPECT_TRUE(any_scheduled);
    // The full matrix's third fault flavor collapses without a
    // schedule: 2 flavors instead of 3.
    EXPECT_EQ(specsForSeed(3, true, 0, "").size() * 3,
              specsForSeed(3, true, 0).size() * 2);
}

TEST(LitmusHarness, ReportIsIdenticalAcrossJobs)
{
    HarnessOptions opts;
    opts.firstSeed = 1;
    opts.numSeeds = 12;
    opts.jobs = 1;
    HarnessResult serial = runHarness(opts);
    opts.jobs = 4;
    HarnessResult pooled = runHarness(opts);
    EXPECT_EQ(serial.report, pooled.report);
    EXPECT_EQ(serial.seedsRun, pooled.seedsRun);
    EXPECT_EQ(serial.seedsFailed, pooled.seedsFailed);
    EXPECT_EQ(serial.seedsRun, 12u);
    EXPECT_EQ(serial.seedsFailed, 0u);
}

TEST(LitmusHarness, DropFlushSweepFindsAndBoundsFailures)
{
    HarnessOptions opts;
    opts.firstSeed = 1;
    opts.numSeeds = 3;
    opts.dropFlushRate = 1.0;
    HarnessResult result = runHarness(opts);
    EXPECT_GT(result.seedsFailed, 0u);
    EXPECT_GT(result.maxShrunkInstructions, 0u);
    EXPECT_LE(result.maxShrunkInstructions, 20u);
}

TEST(LitmusHarness, CorpusReplays)
{
    std::string dir =
        std::string(CSBSIM_SOURCE_DIR) + "/tests/litmus/corpus";
    CorpusResult corpus = replayCorpus(dir);
    EXPECT_EQ(corpus.failures, 0u) << corpus.report;
    EXPECT_GE(corpus.entries, 5u);
}

TEST(LitmusHarness, UnknownRunFieldFailsNamingTheField)
{
    // A checked-in entry whose run line carries a field this build
    // does not know -- here a retired litmus axis -- must fail loudly,
    // naming the field, not run with the field silently ignored.
    const std::string field = "translate-core";
    std::ifstream in(std::string(CSBSIM_SOURCE_DIR) +
                     "/tests/litmus/corpus/pio_order.litmus");
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string text = buf.str();
    const std::size_t run = text.find("\nrun ");
    ASSERT_NE(run, std::string::npos);
    text.insert(text.find('\n', run + 1), " " + field + "=1");

    const fs::path dir =
        fs::path(::testing::TempDir()) / "litmus_unknown_field";
    fs::create_directories(dir);
    std::ofstream(dir / "unknown_field.litmus") << text;

    CorpusResult corpus = replayCorpus(dir.string());
    EXPECT_EQ(corpus.entries, 1u);
    EXPECT_EQ(corpus.failures, 1u);
    EXPECT_NE(corpus.report.find("unknown run field '" + field + "'"),
              std::string::npos)
        << corpus.report;
    fs::remove_all(dir);
}

TEST(LitmusHarness, MissingCorpusDirectoryIsAFailure)
{
    CorpusResult corpus = replayCorpus("/nonexistent/litmus/corpus");
    EXPECT_EQ(corpus.entries, 0u);
    EXPECT_EQ(corpus.failures, 1u);
}

} // namespace
} // namespace csb::litmus
