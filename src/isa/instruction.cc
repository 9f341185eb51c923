#include "instruction.hh"

#include <sstream>

#include "sim/logging.hh"

namespace csb::isa {

std::string
RegId::toString() const
{
    switch (cls) {
      case RegClass::Int:
        return "%r" + std::to_string(idx);
      case RegClass::Fp:
        return "%f" + std::to_string(idx);
      case RegClass::None:
        return "%-";
    }
    return "%?";
}

void
badOpcode(Opcode op)
{
    csb_panic("classOf: bad opcode ", static_cast<int>(op));
}

unsigned
accessSize(Opcode op)
{
    switch (op) {
      case Opcode::Ldb:
      case Opcode::Stb:
        return 1;
      case Opcode::Ldw:
      case Opcode::Stw:
        return 4;
      case Opcode::Ldd:
      case Opcode::Std:
      case Opcode::Ldf:
      case Opcode::Stf:
      case Opcode::Swap:
        return 8;
      default:
        return 0;
    }
}

const char *
mnemonic(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::Halt: return "halt";
      case Opcode::Mark: return "mark";
      case Opcode::Add: return "add";
      case Opcode::Sub: return "sub";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::Sll: return "sll";
      case Opcode::Srl: return "srl";
      case Opcode::Sra: return "sra";
      case Opcode::Mul: return "mul";
      case Opcode::Slt: return "slt";
      case Opcode::Sltu: return "sltu";
      case Opcode::Addi: return "addi";
      case Opcode::Andi: return "andi";
      case Opcode::Ori: return "ori";
      case Opcode::Xori: return "xori";
      case Opcode::Slli: return "slli";
      case Opcode::Srli: return "srli";
      case Opcode::Slti: return "slti";
      case Opcode::Li: return "li";
      case Opcode::Fadd: return "fadd";
      case Opcode::Fsub: return "fsub";
      case Opcode::Fmul: return "fmul";
      case Opcode::Fmov: return "fmov";
      case Opcode::Fitod: return "fitod";
      case Opcode::Mvi2f: return "mvi2f";
      case Opcode::Mvf2i: return "mvf2i";
      case Opcode::Ldb: return "ldb";
      case Opcode::Ldw: return "ldw";
      case Opcode::Ldd: return "ldd";
      case Opcode::Stb: return "stb";
      case Opcode::Stw: return "stw";
      case Opcode::Std: return "std";
      case Opcode::Ldf: return "ldf";
      case Opcode::Stf: return "stf";
      case Opcode::Swap: return "swap";
      case Opcode::Membar: return "membar";
      case Opcode::Beq: return "beq";
      case Opcode::Bne: return "bne";
      case Opcode::Ble: return "ble";
      case Opcode::Bgt: return "bgt";
      case Opcode::Blt: return "blt";
      case Opcode::Bge: return "bge";
      case Opcode::Jmp: return "jmp";
      case Opcode::NumOpcodes: break;
    }
    return "???";
}

std::string
Instruction::toString() const
{
    std::ostringstream os;
    os << mnemonic(op);
    switch (instClass()) {
      case InstClass::IntAlu:
      case InstClass::FpAlu:
        if (rd.valid())
            os << " " << rd.toString();
        if (rs1.valid())
            os << ", " << rs1.toString();
        if (rs2.valid())
            os << ", " << rs2.toString();
        else if (op != Opcode::Fmov && op != Opcode::Mvi2f &&
                 op != Opcode::Mvf2i && op != Opcode::Fitod)
            os << ", " << imm;
        break;
      case InstClass::Load:
        os << " " << rd.toString() << ", [" << rs1.toString()
           << (imm >= 0 ? "+" : "") << imm << "]";
        break;
      case InstClass::Store:
        os << " " << rs2.toString() << ", [" << rs1.toString()
           << (imm >= 0 ? "+" : "") << imm << "]";
        break;
      case InstClass::Swap:
        os << " [" << rs1.toString() << (imm >= 0 ? "+" : "") << imm
           << "], " << rd.toString();
        break;
      case InstClass::Branch:
        if (op != Opcode::Jmp)
            os << " " << rs1.toString() << ", " << rs2.toString() << ",";
        os << " @" << target;
        break;
      case InstClass::Mark:
        os << " " << imm;
        break;
      default:
        break;
    }
    return os.str();
}

} // namespace csb::isa
