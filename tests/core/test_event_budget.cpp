/**
 * @file
 * Event budgets: how many callbacks the event queue fires for a run.
 *
 * The core finishes its own fixed-latency results -- ALU ops,
 * branches, store address generation and the conditional flush --
 * from a queue it drains at the start of its tick, so none of them
 * is an event.  What is left on the event queue is traffic between
 * components: on the fig3 store kernels, one bus-write completion per
 * transaction.  The end ticks are the ones the core reached when its
 * completions were events, so moving them out of the queue changed
 * no timing.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "core/kernels.hh"
#include "core/system.hh"
#include "isa/program.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;
using isa::fr;
using isa::ir;

std::uint64_t
eventsFired(System &system)
{
    return system.simulator().eventQueue().numProcessed();
}

/** Integer and FP ALU ops, taken and untaken branches, no memory. */
isa::Program
makeAluBranchProgram()
{
    isa::Program p;
    p.li(ir(1), 6);
    p.li(ir(2), 7);
    p.add_(ir(3), ir(1), ir(2));
    p.mul(ir(4), ir(1), ir(2));
    p.fitod(fr(1), ir(1));
    p.fitod(fr(2), ir(2));
    p.fadd(fr(3), fr(1), fr(2));
    // A countdown loop: its branch is taken three times, then falls
    // through.
    p.li(ir(5), 4);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    p.addi(ir(5), ir(5), -1);
    p.mul(ir(6), ir(4), ir(5));
    p.blt(ir(0), ir(5), loop);
    // Untaken, then taken over an instruction that must not run.
    isa::Label skip = p.newLabel();
    p.beq(ir(1), ir(2), skip);
    p.bne(ir(1), ir(2), skip);
    p.li(ir(7), 99);
    p.bind(skip);
    p.fadd(fr(4), fr(3), fr(3));
    p.halt();
    p.finalize();
    return p;
}

TEST(EventBudget, ProgramWithoutMemoryOpsFiresNoEvents)
{
    SystemConfig cfg;
    cfg.normalize();
    System system(cfg);
    isa::Program p = makeAluBranchProgram();
    Tick end = system.run(p);

    EXPECT_EQ(eventsFired(system), 0u);
    EXPECT_EQ(end, 21u) << "the core's timing changed";
    const cpu::ArchState &arch = system.core().archState();
    EXPECT_EQ(arch.intRegs[3], 13u);
    EXPECT_EQ(arch.intRegs[4], 42u);
    EXPECT_EQ(arch.intRegs[5], 0u);
    EXPECT_EQ(arch.intRegs[7], 0u) << "the taken branch was not taken";
}

SystemConfig
fig3Config(bool csb)
{
    SystemConfig cfg;
    cfg.bus.kind = bus::BusKind::Multiplexed;
    cfg.bus.widthBytes = 8;
    cfg.bus.ratio = 2;
    cfg.enableCsb = csb;
    cfg.normalize();
    return cfg;
}

TEST(EventBudget, NoCombineStoresFireOneEventPerBusWrite)
{
    // 512 B of 8-byte uncached stores: 64 single-word bus writes.
    System system(fig3Config(/*csb=*/false));
    isa::Program p = core::makeStoreKernel(System::ioUncachedBase, 512);
    system.run(p);

    EXPECT_EQ(system.bus().numWrites.value(), 64.0);
    EXPECT_EQ(eventsFired(system), 64u);
}

TEST(EventBudget, CsbLinesFireOneEventPerBusWrite)
{
    // 512 B through the CSB: eight 64-byte line bursts.
    System system(fig3Config(/*csb=*/true));
    isa::Program p = core::makeCsbStoreKernel(System::ioCsbBase, 512, 64);
    system.run(p);

    EXPECT_EQ(system.bus().numWrites.value(), 8.0);
    EXPECT_EQ(eventsFired(system), 8u);
}

} // namespace
