/**
 * @file
 * The csbsim mini-ISA.
 *
 * A SPARC-V9-flavoured RISC instruction set sufficient for the
 * paper's microbenchmarks: integer/FP ALU operations, byte/word/
 * doubleword loads and stores, the atomic SWAP (which doubles as the
 * CSB conditional flush when its effective address lies in
 * uncached-combining space), MEMBAR, and compare-and-branch forms.
 *
 * Instructions are kept as decoded structs rather than encoded
 * machine words: the paper's experiments depend on instruction
 * *timing*, not on binary encodings (see DESIGN.md, substitutions).
 */

#ifndef CSB_ISA_INSTRUCTION_HH
#define CSB_ISA_INSTRUCTION_HH

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace csb::isa {

/** Number of architectural integer registers (r0 is hardwired zero). */
constexpr int numIntRegs = 32;
/** Number of architectural floating-point registers. */
constexpr int numFpRegs = 32;

/** Register file selector. */
enum class RegClass : std::uint8_t { Int, Fp, None };

/** An architectural register identifier. */
struct RegId
{
    RegClass cls = RegClass::None;
    std::uint8_t idx = 0;

    constexpr bool
    operator==(const RegId &other) const
    {
        return cls == other.cls && idx == other.idx;
    }

    constexpr bool isInt() const { return cls == RegClass::Int; }
    constexpr bool isFp() const { return cls == RegClass::Fp; }
    constexpr bool valid() const { return cls != RegClass::None; }

    /** True for the hardwired zero register r0. */
    constexpr bool
    isZero() const
    {
        return cls == RegClass::Int && idx == 0;
    }

    std::string toString() const;
};

/** Integer register r<n>. */
constexpr RegId
ir(int n)
{
    return RegId{RegClass::Int, static_cast<std::uint8_t>(n)};
}

/** Floating-point register f<n>. */
constexpr RegId
fr(int n)
{
    return RegId{RegClass::Fp, static_cast<std::uint8_t>(n)};
}

/** No register. */
constexpr RegId noReg{};

/** Operation codes. */
enum class Opcode : std::uint8_t {
    Nop,
    Halt,       ///< stop the program (simulator convention)
    Mark,       ///< record a timestamp in the host-side mark channel

    // Integer ALU, register-register.
    Add, Sub, And, Or, Xor, Sll, Srl, Sra, Mul, Slt, Sltu,
    // Integer ALU, register-immediate.
    Addi, Andi, Ori, Xori, Slli, Srli, Slti,
    Li,         ///< rd = 64-bit immediate (pseudo-op; sethi+or on SPARC)

    // Floating point (double precision).
    Fadd, Fsub, Fmul, Fmov, Fitod,
    Mvi2f,      ///< move int reg bits to fp reg
    Mvf2i,      ///< move fp reg bits to int reg

    // Memory.  Effective address is rs1 + imm.
    Ldb, Ldw, Ldd,      ///< int loads: 1, 4, 8 bytes
    Stb, Stw, Std,      ///< int stores: 1, 4, 8 bytes
    Ldf, Stf,           ///< fp doubleword load / store (SPARC ldd/std %f)
    Swap,               ///< atomic: rd <-> mem[rs1+imm], 8 bytes
    Membar,             ///< drain uncached buffer before graduating

    // Control.  Branches compare rs1 with rs2 and jump to a label.
    Beq, Bne, Ble, Bgt, Blt, Bge,
    Jmp,                ///< unconditional branch to label

    NumOpcodes,
};

/** Broad classification used by the pipeline model. */
enum class InstClass : std::uint8_t {
    Nop,
    IntAlu,
    FpAlu,
    Load,
    Store,
    Swap,
    Membar,
    Branch,
    Mark,
    Halt,
};

/** Abort on an opcode outside the enumeration. */
[[noreturn]] void badOpcode(Opcode op);

/**
 * @return the pipeline class of @p op.  Inline: fetch, issue and
 * retire ask it for every instruction.
 */
inline InstClass
classOf(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
        return InstClass::Nop;
      case Opcode::Halt:
        return InstClass::Halt;
      case Opcode::Mark:
        return InstClass::Mark;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Sll:
      case Opcode::Srl:
      case Opcode::Sra:
      case Opcode::Mul:
      case Opcode::Slt:
      case Opcode::Sltu:
      case Opcode::Addi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slli:
      case Opcode::Srli:
      case Opcode::Slti:
      case Opcode::Li:
      case Opcode::Mvf2i:
        return InstClass::IntAlu;
      case Opcode::Fadd:
      case Opcode::Fsub:
      case Opcode::Fmul:
      case Opcode::Fmov:
      case Opcode::Fitod:
      case Opcode::Mvi2f:
        return InstClass::FpAlu;
      case Opcode::Ldb:
      case Opcode::Ldw:
      case Opcode::Ldd:
      case Opcode::Ldf:
        return InstClass::Load;
      case Opcode::Stb:
      case Opcode::Stw:
      case Opcode::Std:
      case Opcode::Stf:
        return InstClass::Store;
      case Opcode::Swap:
        return InstClass::Swap;
      case Opcode::Membar:
        return InstClass::Membar;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Ble:
      case Opcode::Bgt:
      case Opcode::Blt:
      case Opcode::Bge:
      case Opcode::Jmp:
        return InstClass::Branch;
      case Opcode::NumOpcodes:
        break;
    }
    badOpcode(op);
}

/** @return memory access size in bytes (0 for non-memory ops). */
unsigned accessSize(Opcode op);

/** @return true when @p op reads memory (loads and swap). */
inline bool
isLoad(Opcode op)
{
    InstClass cls = classOf(op);
    return cls == InstClass::Load || cls == InstClass::Swap;
}

/** @return true when @p op writes memory (stores and swap). */
inline bool
isStore(Opcode op)
{
    InstClass cls = classOf(op);
    return cls == InstClass::Store || cls == InstClass::Swap;
}

/** @return mnemonic string of @p op. */
const char *mnemonic(Opcode op);

/**
 * A decoded instruction.
 *
 * Field usage by class:
 *  - ALU reg-reg:   rd, rs1, rs2
 *  - ALU reg-imm:   rd, rs1, imm
 *  - Load:          rd, [rs1 + imm]
 *  - Store:         rs2, [rs1 + imm]      (rs2 is the data source)
 *  - Swap:          rd <-> [rs1 + imm]    (rd is both source and dest)
 *  - Branch:        rs1 ? rs2, target
 *  - Mark:          imm is the mark id
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    RegId rd = noReg;
    RegId rs1 = noReg;
    RegId rs2 = noReg;
    std::int64_t imm = 0;
    /** Branch target as an instruction index; -1 = unresolved label. */
    std::int64_t target = -1;
    /** Label id while unresolved (Program::finalize patches target). */
    std::int32_t labelId = -1;

    InstClass instClass() const { return classOf(op); }

    /** Human-readable rendering for traces and tests. */
    std::string toString() const;
};

} // namespace csb::isa

#endif // CSB_ISA_INSTRUCTION_HH
