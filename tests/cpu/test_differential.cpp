/**
 * @file
 * Differential testing: random programs run on both the sequential
 * reference executor (the same oracle the litmus harness uses, see
 * docs/LITMUS.md) and the full out-of-order core; final architectural
 * state and memory must match bit-for-bit, no matter how the pipeline
 * reorders, forwards and speculates.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "core/system.hh"
#include "cpu/reference_executor.hh"
#include "isa/program.hh"
#include "sim/random.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;
using isa::ir;
using isa::fr;
using isa::Opcode;

constexpr Addr kArenaBase = 0x8000;
constexpr unsigned kArenaBytes = 256;
constexpr int kArenaReg = 15;

/** Generate a random, always-terminating program (forward branches
 *  only) over ALU ops, FP ops, cached loads/stores and swaps. */
isa::Program
randomProgram(std::uint64_t seed, unsigned length)
{
    sim::Random rng(seed);
    isa::Program p;

    // Seed registers with deterministic junk and set the arena base.
    for (int r = 1; r <= 12; ++r)
        p.li(ir(r), static_cast<std::int64_t>(rng.next()));
    p.li(ir(kArenaReg), kArenaBase);
    for (int f = 0; f < 4; ++f)
        p.mvi2f(fr(f), ir(1 + f));

    struct PendingLabel
    {
        isa::Label label;
        unsigned bindAt;
    };
    std::vector<PendingLabel> pending;

    auto reg = [&] { return ir(1 + static_cast<int>(rng.uniform(0, 11))); };
    auto freg = [&] { return fr(static_cast<int>(rng.uniform(0, 3))); };
    auto slot = [&](unsigned size) {
        return static_cast<std::int64_t>(
            rng.uniform(0, kArenaBytes / size - 1) * size);
    };

    for (unsigned i = 0; i < length; ++i) {
        // Bind any labels whose deadline arrived.
        for (auto it = pending.begin(); it != pending.end();) {
            if (it->bindAt <= i) {
                p.bind(it->label);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }

        std::uint64_t dice = rng.uniform(0, 99);
        if (dice < 40) {
            // Integer ALU, register-register.
            static const Opcode ops[] = {
                Opcode::Add, Opcode::Sub, Opcode::And, Opcode::Or,
                Opcode::Xor, Opcode::Sll, Opcode::Srl, Opcode::Sra,
                Opcode::Mul, Opcode::Slt, Opcode::Sltu,
            };
            isa::Instruction inst;
            inst.op = ops[rng.uniform(0, std::size(ops) - 1)];
            inst.rd = reg();
            inst.rs1 = reg();
            inst.rs2 = reg();
            p.add(inst);
        } else if (dice < 55) {
            // Integer ALU, immediate.
            static const Opcode ops[] = {
                Opcode::Addi, Opcode::Andi, Opcode::Ori, Opcode::Xori,
                Opcode::Slli, Opcode::Srli, Opcode::Slti,
            };
            isa::Instruction inst;
            inst.op = ops[rng.uniform(0, std::size(ops) - 1)];
            inst.rd = reg();
            inst.rs1 = reg();
            inst.imm = static_cast<std::int64_t>(rng.uniform(0, 63));
            p.add(inst);
        } else if (dice < 62) {
            p.li(reg(), static_cast<std::int64_t>(rng.next()));
        } else if (dice < 72) {
            // FP traffic (bit-exact through evalAlu on both models).
            std::uint64_t which = rng.uniform(0, 3);
            if (which == 0)
                p.fadd(freg(), freg(), freg());
            else if (which == 1)
                p.fmul(freg(), freg(), freg());
            else if (which == 2)
                p.mvi2f(freg(), reg());
            else
                p.mvf2i(reg(), freg());
        } else if (dice < 82) {
            // Cached store of random size.
            static const unsigned sizes[] = {1, 4, 8};
            unsigned size = sizes[rng.uniform(0, 2)];
            Opcode op = size == 1   ? Opcode::Stb
                        : size == 4 ? Opcode::Stw
                                    : Opcode::Std;
            isa::Instruction inst;
            inst.op = op;
            inst.rs2 = reg();
            inst.rs1 = ir(kArenaReg);
            inst.imm = slot(size);
            p.add(inst);
        } else if (dice < 92) {
            static const unsigned sizes[] = {1, 4, 8};
            unsigned size = sizes[rng.uniform(0, 2)];
            Opcode op = size == 1   ? Opcode::Ldb
                        : size == 4 ? Opcode::Ldw
                                    : Opcode::Ldd;
            isa::Instruction inst;
            inst.op = op;
            inst.rd = reg();
            inst.rs1 = ir(kArenaReg);
            inst.imm = slot(size);
            p.add(inst);
        } else if (dice < 95) {
            p.swap(reg(), ir(kArenaReg), slot(8));
        } else {
            // Forward conditional branch over the next few insts.
            static const Opcode ops[] = {Opcode::Beq, Opcode::Bne,
                                         Opcode::Blt, Opcode::Bge};
            isa::Label label = p.newLabel();
            isa::Instruction inst;
            inst.op = ops[rng.uniform(0, 3)];
            inst.rs1 = reg();
            inst.rs2 = reg();
            inst.labelId = label.id;
            p.add(inst);
            pending.push_back(
                {label, i + 1 + static_cast<unsigned>(
                                    rng.uniform(1, 6))});
        }
    }
    for (const PendingLabel &pl : pending)
        p.bind(pl.label);
    p.halt();
    p.finalize();
    return p;
}

/** A tiny window and single-issue pipe: different stall paths. */
SystemConfig
narrowConfig()
{
    SystemConfig cfg;
    cfg.core.windowSize = 4;
    cfg.core.fetchWidth = 1;
    cfg.core.retireWidth = 1;
    cfg.core.intUnits = 1;
    cfg.core.fpUnits = 1;
    cfg.core.memPorts = 1;
    cfg.normalize();
    return cfg;
}

class Differential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(Differential, CoreMatchesReferenceInterpreter)
{
    isa::Program program = randomProgram(GetParam(), 300);

    // Reference execution.
    cpu::ReferenceExecutor reference;
    reference.addContext(&program, /*pid=*/1);
    reference.run();
    const cpu::ArchState &ref = reference.state(0);
    ASSERT_TRUE(ref.halted);

    // Pipelined execution.
    SystemConfig cfg;
    cfg.normalize();
    System system(cfg);
    system.run(program);
    const cpu::ArchState &got = system.core().archState();

    for (int r = 0; r < isa::numIntRegs; ++r)
        EXPECT_EQ(got.intRegs[r], ref.intRegs[r]) << "%r" << r;
    for (int f = 0; f < isa::numFpRegs; ++f)
        EXPECT_EQ(got.fpRegs[f], ref.fpRegs[f]) << "%f" << f;
    EXPECT_EQ(got.pc, ref.pc);

    std::vector<std::uint8_t> ref_arena(kArenaBytes);
    std::vector<std::uint8_t> got_arena(kArenaBytes);
    reference.memory().read(kArenaBase, ref_arena.data(), kArenaBytes);
    system.memory().read(kArenaBase, got_arena.data(), kArenaBytes);
    EXPECT_EQ(got_arena, ref_arena);
}

TEST_P(Differential, NarrowWindowCoreMatchesToo)
{
    // Semantics must not depend on the pipeline's shape.
    isa::Program program = randomProgram(GetParam() ^ 0xabcdef, 150);

    cpu::ReferenceExecutor reference;
    reference.addContext(&program, /*pid=*/1);
    reference.run();
    const cpu::ArchState &ref = reference.state(0);

    System system(narrowConfig());
    system.run(program);

    for (int r = 0; r < isa::numIntRegs; ++r)
        EXPECT_EQ(system.core().archState().intRegs[r], ref.intRegs[r])
            << "%r" << r;
    std::vector<std::uint8_t> ref_arena(kArenaBytes);
    std::vector<std::uint8_t> got_arena(kArenaBytes);
    reference.memory().read(kArenaBase, ref_arena.data(), kArenaBytes);
    system.memory().read(kArenaBase, got_arena.data(), kArenaBytes);
    EXPECT_EQ(got_arena, ref_arena);
}

/**
 * Like randomProgram, but the whole body sits inside a backward
 * countdown loop (r13) and sprinkles MARK and MEMBAR tokens through
 * it: backward branches re-enter the same code with different
 * register values, and the mark stream must come out in identical
 * order on both models.
 */
isa::Program
randomLoopProgram(std::uint64_t seed, unsigned length,
                  std::int64_t trips)
{
    sim::Random rng(seed);
    isa::Program p;

    for (int r = 1; r <= 12; ++r)
        p.li(ir(r), static_cast<std::int64_t>(rng.next()));
    p.li(ir(kArenaReg), kArenaBase);
    p.li(ir(13), trips);
    isa::Label top = p.newLabel();
    p.bind(top);

    auto reg = [&] { return ir(1 + static_cast<int>(rng.uniform(0, 11))); };
    auto slot = [&](unsigned size) {
        return static_cast<std::int64_t>(
            rng.uniform(0, kArenaBytes / size - 1) * size);
    };

    for (unsigned i = 0; i < length; ++i) {
        std::uint64_t dice = rng.uniform(0, 99);
        if (dice < 45) {
            static const Opcode ops[] = {
                Opcode::Add, Opcode::Sub, Opcode::Xor, Opcode::And,
                Opcode::Or,  Opcode::Mul, Opcode::Sltu,
            };
            isa::Instruction inst;
            inst.op = ops[rng.uniform(0, std::size(ops) - 1)];
            inst.rd = reg();
            inst.rs1 = reg();
            inst.rs2 = reg();
            p.add(inst);
        } else if (dice < 60) {
            // Read-modify-write of an arena slot: the pattern that
            // once exposed stale store-to-load forwarding when two
            // same-address stores were in flight across iterations.
            std::int64_t off = slot(8);
            p.ldd(ir(1), ir(kArenaReg), off);
            p.add_(ir(1), ir(1), reg());
            p.std_(ir(1), ir(kArenaReg), off);
        } else if (dice < 72) {
            static const unsigned sizes[] = {1, 4, 8};
            unsigned size = sizes[rng.uniform(0, 2)];
            Opcode op = size == 1   ? Opcode::Stb
                        : size == 4 ? Opcode::Stw
                                    : Opcode::Std;
            isa::Instruction inst;
            inst.op = op;
            inst.rs2 = reg();
            inst.rs1 = ir(kArenaReg);
            inst.imm = slot(size);
            p.add(inst);
        } else if (dice < 82) {
            static const unsigned sizes[] = {1, 4, 8};
            unsigned size = sizes[rng.uniform(0, 2)];
            Opcode op = size == 1   ? Opcode::Ldb
                        : size == 4 ? Opcode::Ldw
                                    : Opcode::Ldd;
            isa::Instruction inst;
            inst.op = op;
            inst.rd = reg();
            inst.rs1 = ir(kArenaReg);
            inst.imm = slot(size);
            p.add(inst);
        } else if (dice < 88) {
            p.swap(reg(), ir(kArenaReg), slot(8));
        } else if (dice < 94) {
            p.mark(static_cast<std::int64_t>(rng.uniform(0, 999)));
        } else {
            p.membar();
        }
    }
    p.addi(ir(13), ir(13), -1);
    p.bgt(ir(13), ir(0), top);
    p.halt();
    p.finalize();
    return p;
}

TEST_P(Differential, BackwardLoopWithMarksMatches)
{
    isa::Program program =
        randomLoopProgram(GetParam() ^ 0x10071007, 60, 5);

    cpu::ReferenceExecutor reference;
    reference.addContext(&program, /*pid=*/1);
    reference.run();
    const cpu::ArchState &ref = reference.state(0);
    ASSERT_TRUE(ref.halted);

    SystemConfig cfg;
    cfg.normalize();
    System system(cfg);
    system.run(program);
    const cpu::ArchState &got = system.core().archState();

    for (int r = 0; r < isa::numIntRegs; ++r)
        EXPECT_EQ(got.intRegs[r], ref.intRegs[r]) << "%r" << r;
    EXPECT_EQ(got.pc, ref.pc);

    std::vector<std::uint8_t> ref_arena(kArenaBytes);
    std::vector<std::uint8_t> got_arena(kArenaBytes);
    reference.memory().read(kArenaBase, ref_arena.data(), kArenaBytes);
    system.memory().read(kArenaBase, got_arena.data(), kArenaBytes);
    EXPECT_EQ(got_arena, ref_arena);

    // Mark ids must stream out in the same committed order.
    const auto &ref_marks = reference.marks(0);
    const auto &got_marks = system.core().marks();
    ASSERT_EQ(got_marks.size(), ref_marks.size());
    for (std::size_t i = 0; i < ref_marks.size(); ++i)
        EXPECT_EQ(got_marks[i].first, ref_marks[i]) << "mark " << i;
}

/**
 * Regression: a tight read-modify-write loop keeps two same-address
 * stores in flight across iterations once the window fills; the load
 * must forward from the YOUNGEST older store.  The oldest-first scan
 * this repo originally shipped forwarded one-generation-stale data
 * here from the fourth iteration on.
 */
TEST(DifferentialRegression, RmwLoopForwardsYoungestStore)
{
    isa::Program p;
    p.li(ir(1), kArenaBase);
    p.li(ir(2), 8);
    p.li(ir(3), 0x27d4eb2f165667c5ull);
    p.li(ir(4), 0);
    isa::Label loop = p.newLabel();
    p.bind(loop);
    for (int round = 0; round < 4; ++round) {
        p.add_(ir(4), ir(4), ir(3));
        p.xor_(ir(5), ir(4), ir(2));
        p.mul(ir(5), ir(5), ir(3));
        p.srli(ir(6), ir(5), 31);
        p.xor_(ir(4), ir(5), ir(6));
    }
    p.ldd(ir(7), ir(1), 0);
    p.add_(ir(7), ir(7), ir(4));
    p.std_(ir(7), ir(1), 0);
    p.std_(ir(4), ir(1), 8);
    p.mark(7);
    p.membar();
    p.addi(ir(2), ir(2), -1);
    p.bgt(ir(2), ir(0), loop);
    p.halt();
    p.finalize();

    cpu::ReferenceExecutor reference;
    reference.addContext(&p, /*pid=*/1);
    reference.run();

    SystemConfig cfg;
    cfg.normalize();
    System system(cfg);
    system.run(p);

    EXPECT_EQ(system.core().archState().intRegs[7],
              reference.state(0).intRegs[7]);
    std::vector<std::uint8_t> ref_arena(kArenaBytes);
    std::vector<std::uint8_t> got_arena(kArenaBytes);
    reference.memory().read(kArenaBase, ref_arena.data(), kArenaBytes);
    system.memory().read(kArenaBase, got_arena.data(), kArenaBytes);
    EXPECT_EQ(got_arena, ref_arena);
}

/** The core's timing counters after one run: the values pinned below. */
struct CoreTiming
{
    std::uint64_t cycles;
    std::uint64_t dispatched;
    std::uint64_t windowFullStalls;
    std::uint64_t branchFetchStalls;
    std::uint64_t uncachedRetireStalls;

    bool operator==(const CoreTiming &) const = default;
};

/**
 * Exact core timing of randomProgram and randomLoopProgram under the
 * default and the narrow config, four rows per seed in the order
 * {random, random narrow, loop, loop narrow}.  The paper kernels the
 * golden tests pin never reorder issue, wake operands out of order or
 * forward stores; these programs do, so any host-side rework of the
 * issue, wake-up or forwarding bookkeeping must leave every number
 * here unchanged.  A deliberate timing-model change regenerates the
 * table from the failure messages.
 */
constexpr CoreTiming kTimingTable[] = {
    {217, 310, 88, 47, 0}, // seed 1 random
    {428, 310, 111, 3, 0}, // seed 1 random narrow
    {386, 415, 238, 35, 0}, // seed 1 loop
    {760, 415, 337, 5, 0}, // seed 1 loop narrow
    {314, 299, 0, 230, 0}, // seed 2 random
    {639, 299, 329, 7, 0}, // seed 2 random narrow
    {349, 385, 245, 6, 0}, // seed 2 loop
    {532, 385, 138, 5, 0}, // seed 2 loop narrow
    {412, 295, 0, 331, 0}, // seed 3 random
    {624, 295, 321, 4, 0}, // seed 3 random narrow
    {427, 425, 302, 18, 0}, // seed 3 loop
    {875, 425, 440, 5, 0}, // seed 3 loop narrow
    {212, 292, 76, 46, 0}, // seed 4 random
    {509, 292, 206, 7, 0}, // seed 4 random narrow
    {602, 425, 494, 0, 0}, // seed 4 loop
    {880, 425, 446, 5, 0}, // seed 4 loop narrow
    {321, 301, 0, 237, 0}, // seed 5 random
    {613, 301, 308, 0, 0}, // seed 5 random narrow
    {411, 435, 300, 10, 0}, // seed 5 loop
    {784, 435, 341, 5, 0}, // seed 5 loop narrow
    {231, 301, 0, 146, 0}, // seed 6 random
    {421, 301, 114, 2, 0}, // seed 6 random narrow
    {371, 405, 260, 8, 0}, // seed 6 loop
    {632, 405, 219, 5, 0}, // seed 6 loop narrow
    {238, 303, 0, 148, 0}, // seed 7 random
    {349, 303, 35, 7, 0}, // seed 7 random narrow
    {557, 435, 441, 10, 0}, // seed 7 loop
    {714, 435, 270, 5, 0}, // seed 7 loop narrow
    {322, 290, 0, 239, 0}, // seed 8 random
    {624, 290, 328, 2, 0}, // seed 8 random narrow
    {433, 395, 310, 20, 0}, // seed 8 loop
    {690, 395, 285, 5, 0}, // seed 8 loop narrow
    {222, 293, 8, 134, 0}, // seed 9 random
    {531, 293, 231, 4, 0}, // seed 9 random narrow
    {508, 435, 383, 16, 0}, // seed 9 loop
    {667, 435, 224, 5, 0}, // seed 9 loop narrow
    {320, 293, 161, 77, 0}, // seed 10 random
    {625, 293, 328, 0, 0}, // seed 10 random narrow
    {391, 395, 280, 5, 0}, // seed 10 loop
    {666, 395, 262, 5, 0}, // seed 10 loop narrow
    {337, 287, 0, 250, 0}, // seed 11 random
    {615, 287, 322, 2, 0}, // seed 11 random narrow
    {540, 445, 439, 10, 0}, // seed 11 loop
    {792, 445, 339, 5, 0}, // seed 11 loop narrow
    {207, 291, 81, 42, 0}, // seed 12 random
    {331, 291, 35, 1, 0}, // seed 12 random narrow
    {329, 365, 208, 17, 0}, // seed 12 loop
    {577, 365, 204, 5, 0}, // seed 12 loop narrow
    {329, 275, 67, 179, 0}, // seed 13 random
    {630, 275, 336, 13, 0}, // seed 13 random narrow
    {606, 485, 508, 0, 0}, // seed 13 loop
    {819, 485, 326, 5, 0}, // seed 13 loop narrow
    {314, 301, 88, 147, 0}, // seed 14 random
    {442, 301, 134, 3, 0}, // seed 14 random narrow
    {290, 425, 158, 15, 0}, // seed 14 loop
    {600, 425, 167, 5, 0}, // seed 14 loop narrow
    {228, 298, 0, 145, 0}, // seed 15 random
    {510, 298, 203, 5, 0}, // seed 15 random narrow
    {300, 415, 190, 10, 0}, // seed 15 loop
    {577, 415, 154, 5, 0}, // seed 15 loop narrow
    {310, 278, 77, 152, 0}, // seed 16 random
    {512, 278, 226, 4, 0}, // seed 16 random narrow
    {378, 405, 268, 5, 0}, // seed 16 loop
    {735, 405, 322, 5, 0}, // seed 16 loop narrow
    {238, 292, 0, 153, 0}, // seed 17 random
    {535, 292, 237, 0, 0}, // seed 17 random narrow
    {391, 395, 280, 10, 0}, // seed 17 loop
    {648, 395, 249, 0, 0}, // seed 17 loop narrow
    {316, 288, 0, 236, 0}, // seed 18 random
    {620, 288, 326, 3, 0}, // seed 18 random narrow
    {416, 435, 297, 10, 0}, // seed 18 loop
    {687, 435, 244, 5, 0}, // seed 18 loop narrow
    {202, 303, 89, 26, 0}, // seed 19 random
    {444, 303, 134, 3, 0}, // seed 19 random narrow
    {411, 425, 295, 8, 0}, // seed 19 loop
    {690, 425, 257, 5, 0}, // seed 19 loop narrow
    {303, 283, 0, 222, 0}, // seed 20 random
    {515, 283, 227, 1, 0}, // seed 20 random narrow
    {379, 405, 274, 0, 0}, // seed 20 loop
    {627, 405, 214, 5, 0}, // seed 20 loop narrow
};

constexpr unsigned kTimingSeeds = 20;

TEST(DifferentialTiming, RandomProgramsKeepExactCoreTiming)
{
    const char *const kind[] = {"random", "random narrow", "loop",
                                "loop narrow"};
    std::size_t row = 0;
    for (std::uint64_t s = 1; s <= kTimingSeeds; ++s) {
        std::uint64_t seed = s * 0x9e3779b97f4a7c15ULL;
        isa::Program straight = randomProgram(seed, 300);
        isa::Program loop = randomLoopProgram(seed ^ 0x10071007, 60, 5);
        for (unsigned k = 0; k < 4; ++k, ++row) {
            SystemConfig cfg;
            cfg.normalize();
            System system(k % 2 == 0 ? cfg : narrowConfig());
            system.run(k < 2 ? straight : loop);
            const cpu::Core &core = system.core();
            CoreTiming got{
                std::uint64_t(core.numCycles.value()),
                std::uint64_t(core.instsDispatched.value()),
                std::uint64_t(core.windowFullStallCycles.value()),
                std::uint64_t(core.branchFetchStallCycles.value()),
                std::uint64_t(core.uncachedRetireStallCycles.value())};
            char literal[160];
            std::snprintf(literal, sizeof(literal),
                          "    {%llu, %llu, %llu, %llu, %llu}, "
                          "// seed %llu %s",
                          (unsigned long long)got.cycles,
                          (unsigned long long)got.dispatched,
                          (unsigned long long)got.windowFullStalls,
                          (unsigned long long)got.branchFetchStalls,
                          (unsigned long long)got.uncachedRetireStalls,
                          (unsigned long long)s, kind[k]);
            ASSERT_LT(row, std::size(kTimingTable))
                << "table row missing:\n" << literal;
            EXPECT_TRUE(got == kTimingTable[row])
                << "row " << row << " changed; now\n" << literal;
        }
    }
    EXPECT_EQ(row, std::size(kTimingTable));
}

std::vector<std::uint64_t>
seeds()
{
    std::vector<std::uint64_t> list;
    for (std::uint64_t s = 1; s <= 24; ++s)
        list.push_back(s * 0x9e3779b97f4a7c15ULL);
    return list;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::ValuesIn(seeds()));

} // namespace
