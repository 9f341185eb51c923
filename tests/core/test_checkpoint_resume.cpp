/**
 * @file
 * Checkpoint/restore tick-identity contract: a run that checkpoints
 * at a quiescent boundary and resumes in a fresh process-equivalent
 * system must be indistinguishable -- same ticks, same stats -- from
 * the run that never stopped (docs/CHECKPOINT.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/kernels.hh"
#include "core/system.hh"
#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace {

using csb::FatalError;
using csb::Tick;
namespace core = csb::core;

core::SystemConfig
baseConfig()
{
    core::SystemConfig cfg;
    cfg.normalize();
    return cfg;
}

std::string
statsJson(core::System &system)
{
    std::ostringstream os;
    system.dumpStatsJson(os);
    return os.str();
}

/** First program: warm the caches and push uncached I/O. */
csb::isa::Program
warmupProgram()
{
    return core::makeStoreKernel(core::System::ioUncachedBase, 512);
}

/** Second program: CSB traffic, exercising the restored CSB path. */
csb::isa::Program
resumeProgram()
{
    return core::makeCsbStoreKernel(core::System::ioCsbBase, 512, 64);
}

TEST(CheckpointResume, ResumedRunIsTickIdenticalToUninterrupted)
{
    // Reference: one system runs both programs back to back.
    core::System reference(baseConfig());
    reference.run(warmupProgram());
    Tick ref_end = reference.run(resumeProgram());

    // Checkpointed: run the first program, save, restore into a fresh
    // system, run the second.
    std::string path = ::testing::TempDir() + "resume.csbc";
    {
        core::System before(baseConfig());
        before.run(warmupProgram());
        before.saveCheckpointFile(path);
    }
    core::System after(baseConfig());
    after.restoreCheckpointFile(path);
    Tick after_end = after.run(resumeProgram());
    std::remove(path.c_str());

    EXPECT_EQ(after_end, ref_end);
    EXPECT_EQ(statsJson(after), statsJson(reference));
}

TEST(CheckpointResume, OneCheckpointForksManyContinuations)
{
    // The sweep use case: one warm checkpoint, several grid points
    // forked from it.  Each fork must behave as if it had run the
    // warm-up itself.
    std::string path = ::testing::TempDir() + "fork.csbc";
    {
        core::System warm(baseConfig());
        warm.run(warmupProgram());
        warm.saveCheckpointFile(path);
    }

    for (unsigned bytes : {64u, 256u}) {
        core::System reference(baseConfig());
        reference.run(warmupProgram());
        Tick ref_end = reference.run(core::makeCsbStoreKernel(
            core::System::ioCsbBase, bytes, 64));

        core::System fork(baseConfig());
        fork.restoreCheckpointFile(path);
        Tick fork_end = fork.run(core::makeCsbStoreKernel(
            core::System::ioCsbBase, bytes, 64));

        EXPECT_EQ(fork_end, ref_end) << bytes << " bytes";
        EXPECT_EQ(statsJson(fork), statsJson(reference))
            << bytes << " bytes";
    }
    std::remove(path.c_str());
}

TEST(CheckpointResume, RestoredMemoryAndTickMatch)
{
    std::string path = ::testing::TempDir() + "state.csbc";
    Tick saved_tick = 0;
    {
        core::System before(baseConfig());
        saved_tick = before.run(warmupProgram());
        before.saveCheckpointFile(path);
    }
    core::System after(baseConfig());
    after.restoreCheckpointFile(path);
    EXPECT_EQ(after.simulator().curTick(), saved_tick);

    // The device saw the stores before the checkpoint; its write log
    // must survive the round trip.
    EXPECT_FALSE(after.device().writeLog().empty());
    std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsConfigMismatch)
{
    std::string path = ::testing::TempDir() + "mismatch.csbc";
    {
        core::System before(baseConfig());
        before.run(warmupProgram());
        before.saveCheckpointFile(path);
    }
    core::SystemConfig other = baseConfig();
    other.lineBytes = 32;
    other.normalize();
    core::System after(other);
    EXPECT_THROW(after.restoreCheckpointFile(path), FatalError);
    std::remove(path.c_str());
}

TEST(CheckpointResume, RejectsExtraKnobBeforeAnyOtherSection)
{
    // A writer with one knob more than this build -- the shape of a
    // checkpoint from a build that still fingerprinted cpuTranslate --
    // must fail on the knob count alone.  The hand-written checkpoint
    // holds nothing but its config section, so a restore that got past
    // the count would fail differently (missing "sim" section).
    csb::sim::CheckpointWriter real;
    {
        core::System before(baseConfig());
        before.run(warmupProgram());
        before.saveCheckpoint(real);
    }
    std::stringstream real_bytes;
    real.writeTo(real_bytes);
    auto cr = csb::sim::CheckpointReader::readFrom(real_bytes);
    cr.openSection("config");
    const std::uint64_t knobs = cr.getU64();
    EXPECT_EQ(knobs, 33u);

    csb::sim::CheckpointWriter cw;
    cw.beginSection("config");
    cw.putU64(knobs + 1);
    for (std::uint64_t i = 0; i < knobs; ++i) {
        cw.putStr(cr.getStr());
        cw.putU64(cr.getU64());
    }
    cr.closeSection();
    cw.putStr("cpuTranslate");
    cw.putU64(0);
    std::stringstream bytes;
    cw.writeTo(bytes);
    auto extra = csb::sim::CheckpointReader::readFrom(bytes);

    core::System after(baseConfig());
    try {
        after.restoreCheckpoint(extra);
        FAIL() << "restore accepted a checkpoint with an extra knob";
    } catch (const FatalError &err) {
        std::string want = "checkpoint config has " +
                           std::to_string(knobs + 1) + " knobs, expected " +
                           std::to_string(knobs);
        EXPECT_NE(std::string(err.what()).find(want), std::string::npos)
            << err.what();
    }
    EXPECT_EQ(after.simulator().curTick(), 0u);
}

TEST(CheckpointResume, RejectsCorruptedCheckpoint)
{
    std::string path = ::testing::TempDir() + "corrupt.csbc";
    {
        core::System before(baseConfig());
        before.run(warmupProgram());
        before.saveCheckpointFile(path);
    }

    // Truncate the file to half its size.
    std::string bytes;
    {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream buf;
        buf << is.rdbuf();
        bytes = buf.str();
    }
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(bytes.data(),
                 static_cast<std::streamsize>(bytes.size() / 2));
    }
    core::System after(baseConfig());
    EXPECT_THROW(after.restoreCheckpointFile(path), FatalError);
    std::remove(path.c_str());
}

} // namespace
