/**
 * @file
 * Unit tests for the sequential reference executor in its plain
 * interpreter configuration: one context, default all-Cached page
 * table, memory preloaded and inspected through memory().
 */

#include <gtest/gtest.h>

#include "cpu/reference_executor.hh"
#include "isa/program.hh"
#include "sim/logging.hh"

namespace {

using namespace csb;
using cpu::ArchState;
using cpu::ReferenceExecutor;
using isa::ir;

/** Run @p p as the only context with a step cap of @p max_steps. */
ArchState
runAlone(const isa::Program &p, std::uint64_t max_steps = 1'000'000)
{
    ReferenceExecutor ref;
    ref.addContext(&p, /*pid=*/1);
    ref.run(max_steps);
    return ref.state(0);
}

TEST(ReferenceExecutor, AluAndControlFlow)
{
    isa::Program p;
    p.li(ir(1), 0);
    p.li(ir(2), 0);
    p.li(ir(3), 5);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    p.add_(ir(1), ir(1), ir(2));
    p.addi(ir(2), ir(2), 1);
    p.blt(ir(2), ir(3), loop);
    p.halt();
    p.finalize();

    // 3 setup + 5 trips of 3 + HALT: exactly the cap that suffices.
    constexpr std::uint64_t steps = 3 + 3 * 5 + 1;
    ArchState state = runAlone(p, steps);
    EXPECT_TRUE(state.halted);
    EXPECT_EQ(state.intRegs[1], 10u);
    EXPECT_THROW(runAlone(p, steps - 1), FatalError);
}

TEST(ReferenceExecutor, MemoryAndSwap)
{
    isa::Program p;
    p.li(ir(1), 0x1000);
    p.ldd(ir(5), ir(1), 8); // preloaded below
    p.li(ir(2), 42);
    p.std_(ir(2), ir(1), 0);
    p.li(ir(3), 7);
    p.swap(ir(3), ir(1), 0);
    p.ldd(ir(4), ir(1), 0);
    p.halt();
    p.finalize();

    ReferenceExecutor ref;
    std::uint64_t preload = 0x5eed;
    ref.memory().write(0x1008, &preload, sizeof(preload));
    ref.addContext(&p, /*pid=*/1);
    ref.run();
    const ArchState &state = ref.state(0);
    EXPECT_EQ(state.intRegs[5], 0x5eedu) << "load saw the preload";
    EXPECT_EQ(state.intRegs[3], 42u) << "swap returned the old value";
    EXPECT_EQ(state.intRegs[4], 7u) << "memory holds the swapped value";
    std::uint64_t stored = 0;
    ref.memory().read(0x1000, &stored, sizeof(stored));
    EXPECT_EQ(stored, 7u);
}

TEST(ReferenceExecutor, MarksInCommitOrder)
{
    isa::Program p;
    p.mark(3);
    p.mark(1);
    p.mark(2);
    p.halt();
    p.finalize();
    ReferenceExecutor ref;
    ref.addContext(&p, /*pid=*/1);
    ref.run();
    EXPECT_EQ(ref.marks(0), (std::vector<std::int64_t>{3, 1, 2}));
}

TEST(ReferenceExecutor, StepLimitThrowsOnRunawayLoops)
{
    isa::Program p;
    isa::Label forever = p.newLabel();
    p.bind(forever);
    p.jmp(forever);
    p.halt();
    p.finalize();
    try {
        runAlone(p, 100);
        FAIL() << "a runaway loop must hit the step cap";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("exceeded 100 steps"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ReferenceExecutor, SubWordAccesses)
{
    isa::Program p;
    p.li(ir(1), 0x2000);
    p.li(ir(2), 0x11223344AABBCCDDLL);
    p.std_(ir(2), ir(1), 0);
    p.ldb(ir(3), ir(1), 0); // little-endian low byte
    p.ldw(ir(4), ir(1), 4); // upper word
    p.halt();
    p.finalize();
    ArchState state = runAlone(p);
    EXPECT_EQ(state.intRegs[3], 0xDDu);
    EXPECT_EQ(state.intRegs[4], 0x11223344u);
}

} // namespace
