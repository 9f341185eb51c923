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
#include <type_traits>
#include <vector>

#include "core/experiments.hh"
#include "core/kernels.hh"
#include "core/system.hh"
#include "core/workloads.hh"
#include "sim/checkpoint.hh"
#include "sim/fault.hh"
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

/** The CSBC bytes of a default system after the warm-up program. */
std::string
warmCheckpointBytes()
{
    csb::sim::CheckpointWriter cw;
    core::System before(baseConfig());
    before.run(warmupProgram());
    before.saveCheckpoint(cw);
    std::stringstream bytes;
    cw.writeTo(bytes);
    return bytes.str();
}

/** Restore @p bytes into a system built from @p cfg; "" on success. */
std::string
restoreError(const std::string &bytes, const core::SystemConfig &cfg)
{
    core::System after(cfg);
    std::stringstream is(bytes);
    auto cr = csb::sim::CheckpointReader::readFrom(is);
    try {
        after.restoreCheckpoint(cr);
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

/** Values other than @p v to try for a knob, most natural first. */
template <class T>
std::vector<T>
alternatives(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return {!v};
    } else if constexpr (std::is_same_v<T, double>) {
        return {v + 0.25};
    } else if constexpr (std::is_enum_v<T>) {
        return {static_cast<T>(static_cast<int>(v) + 1)};
    } else if constexpr (std::is_integral_v<T>) {
        // v + 8 takes ubuf.combineBytes from 0 to the smallest block.
        std::vector<T> out;
        for (T candidate : {T(v / 2), T(v * 2), T(v + 1), T(v + 8)}) {
            if (candidate != v)
                out.push_back(candidate);
        }
        return out;
    } else {
        return {csb::sim::parseFaultSchedule("oneshot:bus-read-nack:50")};
    }
}

/**
 * Set knob @p index of @p cfg to its @p choice-th alternative value.
 * @return false when the knob has no such alternative.
 */
bool
perturbKnob(core::SystemConfig &cfg, std::size_t index, std::size_t choice)
{
    std::size_t at = 0;
    bool changed = false;
    core::visitKnobs(cfg, [&](const char *, auto &value) {
        if (at++ != index)
            return;
        auto options = alternatives(value);
        if (choice < options.size()) {
            value = options[choice];
            changed = true;
        }
    });
    return changed;
}

std::vector<std::string>
knobNames()
{
    const core::SystemConfig cfg = baseConfig();
    std::vector<std::string> names;
    core::visitKnobs(cfg, [&names](const char *name, const auto &) {
        names.push_back(name);
    });
    return names;
}

TEST(CheckpointResume, RejectsConfigMismatch)
{
    // Every knob in the table guards a restore: perturb each one alone
    // to the first alternative its validation accepts and expect the
    // restore to fail naming it.
    const std::string bytes = warmCheckpointBytes();
    const std::vector<std::string> names = knobNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        bool tried = false;
        for (std::size_t choice = 0; !tried; ++choice) {
            core::SystemConfig cfg = baseConfig();
            if (!perturbKnob(cfg, i, choice))
                break;
            try {
                cfg.normalize();
                core::System probe(cfg);
            } catch (const FatalError &) {
                continue; // not a valid value; try the next one
            }
            tried = true;
            std::string err = restoreError(bytes, cfg);
            EXPECT_NE(err.find(" " + names[i] + "="), std::string::npos)
                << names[i] << ": " << (err.empty() ? "accepted" : err);
        }
        EXPECT_TRUE(tried) << names[i] << " has no valid alternative";
    }

    // The error shows both values in readable form.
    core::SystemConfig window = baseConfig();
    window.core.windowSize = 32;
    window.normalize();
    EXPECT_NE(restoreError(bytes, window)
                  .find("checkpoint was taken with core.windowSize=64, "
                        "this system has core.windowSize=32"),
              std::string::npos);
    core::SystemConfig wire = baseConfig();
    wire.ni.wireTicksPerByte = 0.75;
    wire.normalize();
    EXPECT_NE(restoreError(bytes, wire)
                  .find("checkpoint was taken with ni.wireTicksPerByte=0.5, "
                        "this system has ni.wireTicksPerByte=0.75"),
              std::string::npos);
    EXPECT_EQ(restoreError(bytes, baseConfig()), "");
}

/** Converts to any member type: counts an aggregate's members. */
struct AnyMember
{
    template <class T>
    operator T() const;
};

/** The number of members of aggregate T, by brace-init probing. */
template <class T, class... Members>
constexpr std::size_t
memberCount()
{
    if constexpr (requires { T{Members{}..., AnyMember{}}; })
        return memberCount<T, Members..., AnyMember>();
    else
        return sizeof...(Members);
}

TEST(CheckpointResume, KnobTableListsEveryParamsMember)
{
    // A member added to any parameter struct without a table entry
    // changes its member count and fails here.  @p prefix selects the
    // entries directly under one struct; @p other counts the members
    // that are not entries (nested structs, normalize() outputs).
    const std::vector<std::string> names = knobNames();
    auto entries = [&names](const std::string &prefix) {
        std::size_t n = 0;
        for (const std::string &name : names) {
            if (name.starts_with(prefix) &&
                name.find('.', prefix.size()) == std::string::npos)
                ++n;
        }
        return n;
    };
    // Nested structs: coherence, bus, core, ubuf, csb, l1, l2, ni and
    // faults.
    EXPECT_EQ(entries("") + 9, memberCount<core::SystemConfig>());
    EXPECT_EQ(entries("coherence."), memberCount<csb::mem::CoherenceParams>());
    // bus.maxBurstBytes is set by normalize().
    EXPECT_EQ(entries("bus.") + 1, memberCount<csb::bus::BusParams>());
    EXPECT_EQ(entries("core."), memberCount<csb::cpu::CoreParams>());
    // ubuf.retry is a nested RetryPolicy.
    EXPECT_EQ(entries("ubuf.") + 1,
              memberCount<csb::mem::UncachedBufferParams>());
    // csb.lineBytes is set by normalize(); csb.retry is nested.
    EXPECT_EQ(entries("csb.") + 2, memberCount<csb::mem::CsbParams>());
    for (const char *cache : {"l1.", "l2."}) {
        // lineBytes is set by normalize().
        EXPECT_EQ(entries(cache) + 1, memberCount<csb::mem::CacheParams>())
            << cache;
    }
    // ni.retry is a nested RetryPolicy.
    EXPECT_EQ(entries("ni.") + 1,
              memberCount<csb::io::NetworkInterfaceParams>());
    for (const char *retry : {"ubuf.retry.", "csb.retry.", "ni.retry."}) {
        EXPECT_EQ(entries(retry), memberCount<csb::bus::RetryPolicy>())
            << retry;
    }
    EXPECT_EQ(entries("faults."), memberCount<csb::sim::FaultPlan>());
}

TEST(CheckpointResume, RejectsExtraKnobBeforeAnyOtherSection)
{
    // A writer with one knob more than this build -- the shape of a
    // checkpoint from a build that still fingerprinted cpuTranslate --
    // must fail on the knob count alone.  The hand-written checkpoint
    // holds nothing but its config section, so a restore that got past
    // the count would fail differently (missing "sim" section).
    std::stringstream real_bytes(warmCheckpointBytes());
    auto cr = csb::sim::CheckpointReader::readFrom(real_bytes);
    cr.openSection("config");
    const std::uint64_t knobs = cr.getU64();
    EXPECT_EQ(knobs, knobNames().size());

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

// --- Pinned CSBC bytes ------------------------------------------------

/** 64-bit FNV-1a of @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** Fig 3(e): an 8 B multiplexed bus at ratio 6, 64 B lines. */
core::SystemConfig
fig3eConfig(core::Scheme scheme)
{
    core::BandwidthSetup setup;
    setup.bus.kind = csb::bus::BusKind::Multiplexed;
    setup.bus.widthBytes = 8;
    setup.bus.ratio = 6;
    setup.lineBytes = 64;
    return core::bandwidthConfig(setup, scheme);
}

core::SystemConfig
fig3eCsbConfig()
{
    return fig3eConfig(core::Scheme::Csb);
}

/** runMessageWorkload's NI CSB system on the Fig 3(e) bus. */
core::SystemConfig
niCsbConfig()
{
    core::SystemConfig cfg;
    cfg.lineBytes = 64;
    cfg.bus = fig3eCsbConfig().bus;
    cfg.enableCsb = true;
    cfg.ubuf.combineBytes = 0;
    cfg.enableNi = true;
    cfg.normalize();
    return cfg;
}

/** Two MESI-coherent cores whose misses travel over the bus. */
core::SystemConfig
coherentSmpConfig()
{
    core::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.routeMissesOverBus = true;
    cfg.coherence.kind = csb::mem::CoherenceKind::Mesi;
    cfg.normalize();
    return cfg;
}

/** Core @p c increments a shared word and stores it to its I/O page. */
csb::isa::Program
sharedCounterProgram(unsigned c)
{
    using csb::isa::ir;
    csb::isa::Program p;
    p.li(ir(1), 0x9000);
    p.li(ir(2), static_cast<std::int64_t>(core::System::ioUncachedBase +
                                          c * 0x1000));
    p.li(ir(6), 0);
    p.li(ir(7), 8);
    csb::isa::Label loop = p.newLabel();
    p.bind(loop);
    p.ldd(ir(4), ir(1), 0);
    p.addi(ir(4), ir(4), 1);
    p.std_(ir(4), ir(1), 0);
    p.std_(ir(4), ir(2), 0);
    p.addi(ir(6), ir(6), 1);
    p.blt(ir(6), ir(7), loop);
    p.membar();
    p.halt();
    p.finalize();
    return p;
}

/** Fig 3(e) CSB after a 4 KB store kernel. */
void
runStoreKernel(core::System &system)
{
    system.run(core::makeCsbStoreKernel(core::System::ioCsbBase, 4096, 64));
}

/** A seeded batch of 12 messages, as runMessageWorkload sends them. */
void
runMessageBatch(core::System &system)
{
    core::MessageProgramSpec spec;
    spec.lineBytes = 64;
    system.caches().touch(spec.lockAddr);
    system.run(core::makeMessageProgram(
        spec,
        core::drawSizes(core::MessageSizeDistribution::scientific(301), 12)));
}

/** Both cores of a coherent SMP bump one shared word. */
void
runSharedCounters(core::System &system)
{
    const csb::isa::Program a = sharedCounterProgram(0);
    const csb::isa::Program b = sharedCounterProgram(1);
    system.core(0).loadProgram(&a, 1);
    system.core(1).loadProgram(&b, 2);
    system.simulator().run(
        [&] {
            return system.core(0).halted() && system.core(1).halted() &&
                   system.quiescent();
        },
        5'000'000);
}

/** A workload run to a quiescent boundary, and the length and FNV-1a
 *  hash its checkpoint image is pinned to. */
struct PinnedImage
{
    const char *what;
    core::SystemConfig cfg;
    void (*run)(core::System &);
    std::size_t length;
    std::uint64_t hash;
};

TEST(CheckpointResume, ImagesReproducePinnedBytes)
{
    // The encoding may change, the bytes may not: they move only with
    // the format itself, e.g. a knob entering or leaving the config
    // section or a section saving only live state, and the resume
    // tests above then show the new images still reproduce their
    // uninterrupted runs.
    const PinnedImage pins[] = {
        {"fig3e-csb", fig3eCsbConfig(), runStoreKernel, 14510,
         0x4557543f364d9f31ULL},
        {"ni-csb", niCsbConfig(), runMessageBatch, 11045,
         0x4c410fefd8093934ULL},
        {"smp-mesi", coherentSmpConfig(), runSharedCounters, 17822,
         0x24cc9a5f429e641bULL},
    };
    for (const PinnedImage &pin : pins) {
        core::System saved(pin.cfg);
        pin.run(saved);
        csb::sim::CheckpointWriter cw;
        saved.saveCheckpoint(cw);
        const std::string bytes(cw.image().begin(), cw.image().end());
        EXPECT_EQ(bytes.size(), pin.length) << pin.what;
        EXPECT_EQ(fnv1a(bytes), pin.hash)
            << pin.what << std::hex << " hash 0x" << fnv1a(bytes);
        std::ostringstream os;
        cw.writeTo(os);
        EXPECT_EQ(os.str(), bytes) << pin.what << ": the stream is the image";

        core::System restored(pin.cfg);
        csb::sim::CheckpointReader cr =
            csb::sim::CheckpointReader::fromImage(cw.image());
        restored.restoreCheckpoint(cr);
        EXPECT_EQ(statsJson(restored), statsJson(saved)) << pin.what;
    }
}

TEST(CheckpointResume, IoWriteWindowSpansTheCheckpoint)
{
    // A Fig 3(e) transfer in two halves with a checkpoint between
    // them: the section 4.3.1 window the resumed system reports runs
    // from the first half's first address cycle, as in the run that
    // never stopped.
    for (core::Scheme scheme : {core::Scheme::Csb, core::Scheme::NoCombine}) {
        const core::SystemConfig cfg = fig3eConfig(scheme);
        const csb::isa::Program half =
            scheme == core::Scheme::Csb
                ? core::makeCsbStoreKernel(core::System::ioCsbBase, 1024, 64)
                : core::makeStoreKernel(core::System::ioUncachedBase, 1024);

        core::System reference(cfg);
        reference.run(half);
        reference.run(half);

        core::System before(cfg);
        before.run(half);
        csb::sim::CheckpointWriter cw;
        before.saveCheckpoint(cw);
        core::System after(cfg);
        csb::sim::CheckpointReader cr =
            csb::sim::CheckpointReader::fromImage(cw.image());
        after.restoreCheckpoint(cr);
        after.run(half);

        core::System second_only(cfg);
        second_only.run(half);

        const std::string what = core::schemeName(scheme);
        EXPECT_EQ(after.ioWriteBusCycles(), reference.ioWriteBusCycles())
            << what;
        EXPECT_GT(after.ioWriteBusCycles(), second_only.ioWriteBusCycles())
            << what << ": the window must include the first half";
        EXPECT_EQ(statsJson(after), statsJson(reference)) << what;
    }
}

} // namespace
