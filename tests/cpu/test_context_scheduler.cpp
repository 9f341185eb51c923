/**
 * @file
 * Tests for preemptive context switching: state isolation, squash
 * correctness, and the CSB conflict scenario end to end.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>

#include "core/kernels.hh"
#include "core/system.hh"
#include "cpu/context_scheduler.hh"
#include "cpu/reference_executor.hh"
#include "isa/program.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;
using cpu::ContextScheduler;
using isa::fr;
using isa::ir;

SystemConfig
defaultConfig()
{
    SystemConfig cfg;
    cfg.normalize();
    return cfg;
}

/** A program that sums 0..n-1 into RAM at result_addr, slowly. */
isa::Program
makeSummer(Addr result_addr, unsigned n)
{
    isa::Program p;
    p.li(ir(1), 0);
    p.li(ir(2), 0);
    p.li(ir(3), n);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    p.add_(ir(1), ir(1), ir(2));
    p.addi(ir(2), ir(2), 1);
    p.blt(ir(2), ir(3), loop);
    p.li(ir(4), static_cast<std::int64_t>(result_addr));
    p.std_(ir(1), ir(4), 0);
    p.halt();
    p.finalize();
    return p;
}

/**
 * Straight-line ALU work around latency-3 mul and fadd results: the
 * first @p n instructions of it, then HALT.
 */
isa::Program
makeLongLatency(std::int64_t base, unsigned n = ~0u)
{
    isa::Program p;
    const std::function<void()> body[] = {
        [&] { p.li(ir(1), base); },
        [&] { p.li(ir(2), base + 1); },
        [&] { p.mul(ir(3), ir(1), ir(2)); },
        [&] { p.fitod(fr(1), ir(1)); },
        [&] { p.fitod(fr(2), ir(3)); },
        [&] { p.fadd(fr(3), fr(1), fr(2)); },
        [&] { p.mul(ir(4), ir(3), ir(3)); },
        [&] { p.fadd(fr(4), fr(3), fr(3)); },
        [&] { p.add_(ir(5), ir(4), ir(1)); },
        [&] { p.mvf2i(ir(6), fr(4)); },
    };
    for (unsigned i = 0; i < std::size(body) && i < n; ++i)
        body[i]();
    p.halt();
    p.finalize();
    return p;
}

cpu::ArchState
referenceState(const isa::Program &program, ProcId pid)
{
    cpu::ReferenceExecutor reference;
    reference.addContext(&program, pid);
    reference.run();
    return reference.state(0);
}

void
expectSameRegisters(const cpu::ArchState &got, const cpu::ArchState &want,
                    const char *what, Tick at)
{
    EXPECT_EQ(got.intRegs, want.intRegs) << what << ", switch at " << at;
    EXPECT_EQ(got.fpRegs, want.fpRegs) << what << ", switch at " << at;
}

TEST(ContextSwitch, SquashDropsPendingLongLatencyResults)
{
    // Request a switch at every tick of the first context's run, so
    // some squash lands while a mul or fadd result is still pending.
    // The saved state holds exactly the committed prefix, the next
    // context computes its own results (no leftover completion
    // finishes one of its instructions), and the first context, once
    // resumed, ends as the reference executor does.
    const isa::Program a = makeLongLatency(6);
    const isa::Program b = makeLongLatency(1000);
    const cpu::ArchState want_a = referenceState(a, 1);
    const cpu::ArchState want_b = referenceState(b, 2);
    for (Tick at = 1; at <= 16; ++at) {
        System system(defaultConfig());
        cpu::Core &core = system.core();
        core.loadProgram(&a, 1);
        system.simulator().runFor(at);
        if (core.halted())
            break;

        cpu::ArchState saved;
        bool switched = false;
        cpu::ArchState next;
        next.pid = 2;
        core.requestContextSwitch(&b, next, [&](const cpu::ArchState &s) {
            saved = s;
            switched = true;
        });
        system.simulator().run(
            [&] { return switched && core.halted() && system.quiescent(); },
            10'000);
        ASSERT_TRUE(switched && core.halted()) << "switch at " << at;
        expectSameRegisters(core.archState(), want_b, "next context", at);

        const isa::Program prefix = makeLongLatency(6, unsigned(saved.pc));
        expectSameRegisters(saved, referenceState(prefix, 1),
                            "saved state", at);

        switched = false;
        core.requestContextSwitch(&a, saved, [&](const cpu::ArchState &) {
            switched = true;
        });
        system.simulator().run(
            [&] { return switched && core.halted() && system.quiescent(); },
            10'000);
        ASSERT_TRUE(switched && core.halted()) << "switch at " << at;
        expectSameRegisters(core.archState(), want_a, "resumed context",
                            at);
    }
}

TEST(ContextScheduler, BothProcessesRunToCompletion)
{
    System system(defaultConfig());
    isa::Program a = makeSummer(0x8000, 50);
    isa::Program b = makeSummer(0x8100, 30);
    ContextScheduler scheduler(system.simulator(), system.core(), 25);
    scheduler.addProcess(&a, 1);
    scheduler.addProcess(&b, 2);
    scheduler.start();
    system.simulator().run(
        [&] { return scheduler.allFinished() && system.quiescent(); },
        1000000);
    ASSERT_TRUE(scheduler.allFinished());
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x8000), 1225u);
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x8100), 435u);
    EXPECT_GT(scheduler.preemptions.value(), 0.0);
}

TEST(ContextScheduler, RegisterStateIsolatedAcrossSwitches)
{
    // Two processes hammer the same registers with different values;
    // preemption must never leak one's registers into the other.
    System system(defaultConfig());
    isa::Program a;
    {
        a.li(ir(1), 0xAAAA);
        a.li(ir(5), 0);
        a.li(ir(6), 400);
        isa::Label loop = a.newLabel();
        a.bind(loop);
        a.addi(ir(1), ir(1), 0); // keep using r1
        a.addi(ir(5), ir(5), 1);
        a.blt(ir(5), ir(6), loop);
        a.li(ir(9), 0x9000);
        a.std_(ir(1), ir(9), 0);
        a.halt();
        a.finalize();
    }
    isa::Program b;
    {
        b.li(ir(1), 0xBBBB);
        b.li(ir(5), 0);
        b.li(ir(6), 400);
        isa::Label loop = b.newLabel();
        b.bind(loop);
        b.addi(ir(1), ir(1), 0);
        b.addi(ir(5), ir(5), 1);
        b.blt(ir(5), ir(6), loop);
        b.li(ir(9), 0x9100);
        b.std_(ir(1), ir(9), 0);
        b.halt();
        b.finalize();
    }
    ContextScheduler scheduler(system.simulator(), system.core(), 17);
    scheduler.addProcess(&a, 1);
    scheduler.addProcess(&b, 2);
    scheduler.start();
    system.simulator().run(
        [&] { return scheduler.allFinished() && system.quiescent(); },
        1000000);
    ASSERT_TRUE(scheduler.allFinished());
    EXPECT_GT(scheduler.preemptions.value(), 5.0);
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x9000), 0xAAAAu);
    EXPECT_EQ(system.memory().readT<std::uint64_t>(0x9100), 0xBBBBu);
}

TEST(ContextScheduler, CsbConflictDetectedAndRetried)
{
    // Two processes each push six line-sized atomic sequences through
    // the CSB under a quantum that lands preemptions inside store
    // sequences: flushes fail and retry, every line eventually
    // commits, and the device sees each exactly once.
    SystemConfig cfg = defaultConfig();
    System system(cfg);
    isa::Program a = core::makeCsbStoreKernel(System::ioCsbBase, 6 * 64,
                                              64);
    isa::Program b = core::makeCsbStoreKernel(
        System::ioCsbBase + 0x1000, 6 * 64, 64);

    ContextScheduler scheduler(system.simulator(), system.core(), 17);
    scheduler.addProcess(&a, 1);
    scheduler.addProcess(&b, 2);
    scheduler.start();
    system.simulator().run(
        [&] { return scheduler.allFinished() && system.quiescent(); },
        1000000);
    ASSERT_TRUE(scheduler.allFinished());

    auto &unit = *system.csb();
    EXPECT_EQ(unit.flushesSucceeded.value(), 12.0)
        << "each of the 12 sequences commits exactly once";
    EXPECT_EQ(system.device().writeLog().size(), 12u);
    EXPECT_GT(unit.flushesFailed.value(), 0.0)
        << "preemptions inside sequences must cause failed flushes";
    EXPECT_GT(unit.conflictsOnStore.value(), 0.0);
    // Exactly-once at the byte level: every committed line is full.
    for (const auto &write : system.device().writeLog())
        EXPECT_EQ(write.data.size(), 64u);
}

TEST(ContextScheduler, PidFollowsProcess)
{
    // The CSB tags sequences with the scheduler-assigned PID.
    System system(defaultConfig());
    // Two combining stores and no flush, as if preempted before it.
    isa::Program a;
    a.li(ir(1), static_cast<std::int64_t>(System::ioCsbBase));
    a.std_(ir(2), ir(1), 0);
    a.std_(ir(2), ir(1), 8);
    a.halt();
    a.finalize();
    ContextScheduler scheduler(system.simulator(), system.core(), 1000);
    scheduler.addProcess(&a, 7);
    scheduler.start();
    system.simulator().run([&] { return system.core().halted(); },
                           100000);
    EXPECT_EQ(system.csb()->pid(), 7);
    EXPECT_EQ(system.csb()->hitCounter(), 2u);
}

TEST(ContextScheduler, SingleProcessNeedsNoSwitches)
{
    System system(defaultConfig());
    isa::Program a = makeSummer(0x8000, 10);
    ContextScheduler scheduler(system.simulator(), system.core(), 10);
    scheduler.addProcess(&a, 1);
    scheduler.start();
    system.simulator().run(
        [&] { return scheduler.allFinished() && system.quiescent(); },
        100000);
    ASSERT_TRUE(scheduler.allFinished());
    EXPECT_EQ(scheduler.preemptions.value(), 0.0);
}

} // namespace
