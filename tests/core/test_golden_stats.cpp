/**
 * @file
 * Byte-for-byte stat goldens: the complete dumpStatsJson() tree, the
 * end tick and the fired-event count of a fixed set of Systems, pinned
 * against files under tests/core/golden_stats/.
 *
 * This is the mechanical check of the clock-gating no-op rule: a
 * component that sleeps through its stalls, or a simulator that jumps
 * over idle ticks, must leave every stat -- including the per-cycle
 * stall counters it accrues in bulk -- exactly where per-tick
 * evaluation puts it.  The cases cover every component that sleeps:
 * the core, the uncached buffer, the CSB (including degraded mode),
 * the bus on both organizations, the NI DMA engine and the context
 * scheduler.
 *
 * When a model change moves simulated results on purpose, regenerate
 * the goldens with
 *   CSBSIM_GOLDEN_STATS_WRITE=1 build/tests/core_test_golden_stats
 * and review the diff.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/kernels.hh"
#include "core/system.hh"
#include "core/workloads.hh"
#include "cpu/context_scheduler.hh"
#include "io/network_interface.hh"
#include "isa/program.hh"
#include "sim/checkpoint.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;
using isa::ir;

/** One pinned run: the text below is compared against its golden. */
std::string
snapshot(System &system, Tick end)
{
    std::ostringstream os;
    os << "end " << end << "\nevents "
       << system.simulator().eventQueue().numProcessed() << "\n";
    system.dumpStatsJson(os);
    return os.str();
}

std::string
goldenPath(const std::string &name)
{
    return std::string(CSBSIM_SOURCE_DIR) + "/tests/core/golden_stats/" +
           name + ".txt";
}

void
checkGolden(const std::string &name, const std::string &got)
{
    const std::string path = goldenPath(name);
    if (std::getenv("CSBSIM_GOLDEN_STATS_WRITE")) {
        std::ofstream os(path, std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << path;
        os << got;
        return;
    }
    std::ifstream is(path, std::ios::binary);
    ASSERT_TRUE(is) << "missing golden " << path;
    std::stringstream want;
    want << is.rdbuf();
    if (want.str() == got)
        return;
    // Name the first differing line; the whole dump is too long to
    // print usefully.
    std::istringstream a(want.str());
    std::istringstream b(got);
    std::string la;
    std::string lb;
    for (unsigned line = 1;; ++line) {
        bool more_a = static_cast<bool>(std::getline(a, la));
        bool more_b = static_cast<bool>(std::getline(b, lb));
        if (!more_a && !more_b)
            break;
        if (la != lb || more_a != more_b) {
            ADD_FAILURE() << name << ": first difference at line "
                          << line << "\n  golden: " << la
                          << "\n  got:    " << lb;
            return;
        }
    }
    ADD_FAILURE() << name << ": differs from its golden";
}

SystemConfig
storeConfig(bus::BusKind kind, unsigned ratio, unsigned combine, bool csb)
{
    SystemConfig cfg;
    cfg.bus.kind = kind;
    cfg.bus.widthBytes = kind == bus::BusKind::Split ? 16 : 8;
    cfg.bus.ratio = ratio;
    cfg.enableCsb = csb;
    cfg.ubuf.combineBytes = combine;
    cfg.normalize();
    return cfg;
}

/** The fig3/fig4 store kernels: NoCombine, comb-64 and the CSB. */
TEST(GoldenStats, StoreKernels)
{
    struct Variant
    {
        const char *name;
        unsigned combine;
        bool csb;
    };
    const Variant variants[] = {
        {"nocombine", 0, false}, {"comb64", 64, false}, {"csb", 0, true}};
    for (bus::BusKind kind : {bus::BusKind::Multiplexed,
                              bus::BusKind::Split}) {
        for (unsigned ratio : {2u, 10u}) {
            for (const Variant &v : variants) {
                System system(storeConfig(kind, ratio, v.combine, v.csb));
                isa::Program p =
                    v.csb ? core::makeCsbStoreKernel(System::ioCsbBase,
                                                     512, 64)
                          : core::makeStoreKernel(
                                v.combine ? System::ioAccelBase
                                          : System::ioUncachedBase,
                                512);
                Tick end = system.run(p);
                std::string name =
                    std::string(kind == bus::BusKind::Split ? "split"
                                                            : "mux") +
                    "_r" + std::to_string(ratio) + "_" + v.name;
                checkGolden(name, snapshot(system, end));
            }
        }
    }
}

/** Fig 5: the lock/access/unlock sequence with a missing lock line. */
TEST(GoldenStats, LockKernel)
{
    System system(storeConfig(bus::BusKind::Multiplexed, 6, 0, false));
    isa::Program p = core::makeLockedStoreKernel(0x4000,
                                                 System::ioUncachedBase, 6);
    Tick end = system.run(p);
    checkGolden("fig5_lock_miss", snapshot(system, end));
}

/** NI messages by CSB PIO, checkpointed and resumed in a fresh System. */
TEST(GoldenStats, NiMessagesWithCheckpoint)
{
    SystemConfig cfg;
    cfg.bus.ratio = 6;
    cfg.enableNi = true;
    cfg.normalize();
    core::MessageProgramSpec spec;
    std::vector<unsigned> sizes = {19, 64, 130, 230, 40, 96};
    isa::Program p = core::makeMessageProgram(spec, sizes);

    System before(cfg);
    before.caches().touch(spec.lockAddr);
    Tick end = before.run(p);
    checkGolden("ni_messages", snapshot(before, end));

    sim::CheckpointWriter cw;
    before.saveCheckpoint(cw);
    std::stringstream buf;
    cw.writeTo(buf);
    System after(cfg);
    sim::CheckpointReader cr = sim::CheckpointReader::readFrom(buf);
    after.restoreCheckpoint(cr);
    Tick resumed = after.run(p);
    checkGolden("ni_messages_resumed", snapshot(after, resumed));
}

/** Two cores with MESI snooping: true sharing plus private I/O. */
TEST(GoldenStats, CoherentSmp)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.routeMissesOverBus = true;
    cfg.coherence.kind = mem::CoherenceKind::Mesi;
    cfg.normalize();
    System system(cfg);

    std::vector<isa::Program> programs(2);
    for (unsigned c = 0; c < 2; ++c) {
        isa::Program &p = programs[c];
        p.li(ir(1), 0x9000);
        p.li(ir(2), static_cast<std::int64_t>(System::ioUncachedBase +
                                              c * 0x1000));
        p.li(ir(3), static_cast<std::int64_t>(System::ioCsbBase +
                                              c * 0x1000));
        p.li(ir(6), 0);
        p.li(ir(7), 12);
        isa::Label loop = p.newLabel();
        p.bind(loop);
        p.ldd(ir(4), ir(1), 0);
        p.addi(ir(4), ir(4), 1);
        p.std_(ir(4), ir(1), 0);
        p.std_(ir(4), ir(2), 0);
        isa::Label retry = p.newLabel();
        p.bind(retry);
        p.li(ir(5), 2);
        p.std_(ir(4), ir(3), 0);
        p.std_(ir(6), ir(3), 8);
        p.swap(ir(5), ir(3), 0);
        p.li(ir(8), 2);
        p.bne(ir(5), ir(8), retry);
        p.membar();
        p.addi(ir(6), ir(6), 1);
        p.blt(ir(6), ir(7), loop);
        p.halt();
        p.finalize();
        system.core(c).loadProgram(&p, c + 1);
    }
    Tick end = system.simulator().run(
        [&] {
            return system.core(0).halted() && system.core(1).halted() &&
                   system.quiescent();
        },
        5'000'000);
    ASSERT_TRUE(system.core(0).halted() && system.core(1).halted());
    checkGolden("smp_mesi", snapshot(system, end));
}

/**
 * Descriptor pushes from two processes under a short quantum: CSB
 * conflicts, preemptions and NI DMA jobs overlap.
 */
TEST(GoldenStats, ContextSchedulerWithDma)
{
    SystemConfig cfg;
    cfg.bus.ratio = 6;
    cfg.enableNi = true;
    cfg.ni.wireTicksPerByte = 1.0;
    cfg.normalize();
    System system(cfg);

    auto pusher = [](unsigned tag) {
        Addr desc = System::niBase + io::NiMap::descBase;
        isa::Program p;
        p.li(ir(1), static_cast<std::int64_t>(desc));
        for (unsigned i = 0; i < 5; ++i) {
            for (unsigned d = 0; d < 4; ++d) {
                p.li(ir(2 + d),
                     static_cast<std::int64_t>(io::packDescriptor(
                         0x10000 + i * 0x100 + d * 8,
                         static_cast<std::uint16_t>(tag))));
            }
            isa::Label retry = p.newLabel();
            p.bind(retry);
            p.li(ir(9), 4);
            for (unsigned d = 0; d < 4; ++d)
                p.std_(ir(2 + d), ir(1), d * 8);
            p.swap(ir(9), ir(1), 0);
            p.li(ir(10), 4);
            p.bne(ir(9), ir(10), retry);
        }
        p.halt();
        p.finalize();
        return p;
    };
    isa::Program a = pusher(100);
    isa::Program b = pusher(200);
    cpu::ContextScheduler sched(system.simulator(), system.core(), 40);
    sched.addProcess(&a, 1);
    sched.addProcess(&b, 2);
    sched.start();
    Tick end = system.simulator().run(
        [&] { return sched.allFinished() && system.quiescent(); },
        2'000'000);
    ASSERT_TRUE(sched.allFinished());
    EXPECT_GT(sched.preemptions.value(), 0.0);
    std::ostringstream os;
    os << snapshot(system, end) << "preemptions "
       << sched.preemptions.value() << "\n";
    checkGolden("sched_dma", os.str());
}

/** Bus NACKs plus a device hang that drives the CSB degraded. */
TEST(GoldenStats, FaultsAndDegradedMode)
{
    SystemConfig cfg;
    cfg.faults.seed = 9;
    cfg.faults.busWriteNackRate = 0.05;
    cfg.faults.busReadNackRate = 0.05;
    cfg.faults.schedule = sim::parseFaultSchedule("hang:200..2600");
    cfg.bus.errorResponses = true;
    cfg.csb.degradedFallback = true;
    cfg.csb.retry.maxAttempts = 3;
    cfg.csb.repromoteAfter = 4;
    cfg.ubuf.retry.maxAttempts = 32;
    cfg.normalize();
    System system(cfg);
    system.run(core::makeCsbStoreKernel(System::ioCsbBase, 1024, 64));
    ASSERT_GE(system.csb()->degradedEntries.value(), 1.0);
    Tick end = system.run(core::makeLockedStoreKernel(
        0x4000, System::ioUncachedBase, 4));
    EXPECT_GT(system.bus().numNacks.value(), 0.0);
    checkGolden("faults_degraded", snapshot(system, end));
}

/**
 * runFor() stops in the middle of the store loop, while the core is
 * stalled on the uncached buffer: the core's per-cycle stats must read
 * exactly as if every cycle had been evaluated.
 */
TEST(GoldenStats, RunForStopsWhileCoreStalls)
{
    System system(storeConfig(bus::BusKind::Multiplexed, 10, 0, false));
    isa::Program p = core::makeStoreKernel(System::ioUncachedBase, 512);
    system.core().loadProgram(&p, 1);
    std::ostringstream os;
    for (Tick n : {37, 250, 1}) {
        Tick end = system.simulator().runFor(n);
        const cpu::Core &core = system.core();
        os << "at " << end << ": numCycles " << core.numCycles.value()
           << " instsRetired " << core.instsRetired.value()
           << " uncachedRetireStallCycles "
           << core.uncachedRetireStallCycles.value()
           << " windowFullStallCycles "
           << core.windowFullStallCycles.value() << "\n";
    }
    ASSERT_FALSE(system.core().halted());
    os << snapshot(system, system.simulator().curTick());
    checkGolden("runfor_stalled_core", os.str());
}

} // namespace
