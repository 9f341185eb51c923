/**
 * @file
 * Differential testing: random programs run on both the sequential
 * reference executor (the same oracle the litmus harness uses, see
 * docs/LITMUS.md) and the full out-of-order core; final architectural
 * state and memory must match bit-for-bit, no matter how the pipeline
 * reorders, forwards and speculates.
 */

#include <gtest/gtest.h>

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
    // A tiny window and single-issue pipe exercise different stall
    // paths; semantics must be identical.
    isa::Program program = randomProgram(GetParam() ^ 0xabcdef, 150);

    cpu::ReferenceExecutor reference;
    reference.addContext(&program, /*pid=*/1);
    reference.run();
    const cpu::ArchState &ref = reference.state(0);

    SystemConfig cfg;
    cfg.core.windowSize = 4;
    cfg.core.fetchWidth = 1;
    cfg.core.retireWidth = 1;
    cfg.core.intUnits = 1;
    cfg.core.fpUnits = 1;
    cfg.core.memPorts = 1;
    cfg.normalize();
    System system(cfg);
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
