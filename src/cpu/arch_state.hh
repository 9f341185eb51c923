/**
 * @file
 * Architectural (committed) register state of one hardware context.
 */

#ifndef CSB_CPU_ARCH_STATE_HH
#define CSB_CPU_ARCH_STATE_HH

#include <array>
#include <bit>
#include <cstdint>

#include "isa/instruction.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace csb::cpu {

/**
 * Committed register file, program counter and process ID of one
 * context.  All register values are raw 64-bit containers; FP values
 * are IEEE-754 doubles stored bit-exactly.
 */
struct ArchState
{
    std::array<std::uint64_t, isa::numIntRegs> intRegs{};
    std::array<std::uint64_t, isa::numFpRegs> fpRegs{};
    /** PC as an instruction index into the running Program. */
    std::uint64_t pc = 0;
    /** Process ID, available to the CSB (privileged register). */
    ProcId pid = 0;
    bool halted = false;

    std::uint64_t
    readReg(isa::RegId reg) const
    {
        // Absent operands (e.g. the rs1 of LI) read as zero, matching
        // the pipeline's operand capture.
        if (!reg.valid() || reg.isZero())
            return 0;
        if (reg.isInt())
            return intRegs[reg.idx];
        return fpRegs[reg.idx];
    }

    void
    writeReg(isa::RegId reg, std::uint64_t value)
    {
        if (!reg.valid() || reg.isZero())
            return;
        if (reg.isInt()) {
            intRegs[reg.idx] = value;
        } else {
            fpRegs[reg.idx] = value;
        }
    }
};

/**
 * Pure functional evaluation of an ALU operation.
 *
 * Shared by the cycle-level core and the reference executor: one
 * definition serves both execution engines -- the differential tests
 * depend on that.
 *
 * @param op  the opcode (must be an IntAlu or FpAlu class op)
 * @param a   first source value (raw bits)
 * @param b   second source value or immediate (raw bits)
 * @return result bits
 */
inline std::uint64_t
evalAlu(isa::Opcode op, std::uint64_t a, std::uint64_t b)
{
    using isa::Opcode;
    auto sa = static_cast<std::int64_t>(a);
    auto sb = static_cast<std::int64_t>(b);
    auto asDouble = [](std::uint64_t bits) {
        return std::bit_cast<double>(bits);
    };
    auto asBits = [](double value) {
        return std::bit_cast<std::uint64_t>(value);
    };
    switch (op) {
      case Opcode::Add:
      case Opcode::Addi:
        return a + b;
      case Opcode::Sub:
        return a - b;
      case Opcode::And:
      case Opcode::Andi:
        return a & b;
      case Opcode::Or:
      case Opcode::Ori:
        return a | b;
      case Opcode::Xor:
      case Opcode::Xori:
        return a ^ b;
      case Opcode::Sll:
      case Opcode::Slli:
        return a << (b & 63);
      case Opcode::Srl:
      case Opcode::Srli:
        return a >> (b & 63);
      case Opcode::Sra:
        return static_cast<std::uint64_t>(sa >> (b & 63));
      case Opcode::Mul:
        return a * b;
      case Opcode::Slt:
      case Opcode::Slti:
        return sa < sb ? 1 : 0;
      case Opcode::Sltu:
        return a < b ? 1 : 0;
      case Opcode::Li:
        return b;
      case Opcode::Fadd:
        return asBits(asDouble(a) + asDouble(b));
      case Opcode::Fsub:
        return asBits(asDouble(a) - asDouble(b));
      case Opcode::Fmul:
        return asBits(asDouble(a) * asDouble(b));
      case Opcode::Fmov:
      case Opcode::Mvi2f:
      case Opcode::Mvf2i:
        return a;
      case Opcode::Fitod:
        return asBits(static_cast<double>(sa));
      default:
        csb_panic("evalAlu: non-ALU opcode ", isa::mnemonic(op));
    }
}

/**
 * Evaluate a branch condition (shared like evalAlu()).
 * @return true when the branch is taken
 */
inline bool
evalBranch(isa::Opcode op, std::uint64_t a, std::uint64_t b)
{
    using isa::Opcode;
    auto sa = static_cast<std::int64_t>(a);
    auto sb = static_cast<std::int64_t>(b);
    switch (op) {
      case Opcode::Beq: return a == b;
      case Opcode::Bne: return a != b;
      case Opcode::Ble: return sa <= sb;
      case Opcode::Bgt: return sa > sb;
      case Opcode::Blt: return sa < sb;
      case Opcode::Bge: return sa >= sb;
      case Opcode::Jmp: return true;
      default:
        csb_panic("evalBranch: non-branch opcode ", isa::mnemonic(op));
    }
}

} // namespace csb::cpu

#endif // CSB_CPU_ARCH_STATE_HH
