#include "reference_executor.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace csb::cpu {

using isa::InstClass;
using mem::PageAttr;

ReferenceExecutor::ReferenceExecutor(RefCsbModel csb) : csbModel_(csb)
{
    csb_assert(csb.lineBytes > 0 && (csb.lineBytes & (csb.lineBytes - 1)) == 0,
               "reference CSB line size must be a power of two");
}

void
ReferenceExecutor::addContext(const isa::Program *program, ProcId pid,
                              unsigned csb_unit)
{
    csb_assert(program && program->finalized(),
               "reference executor needs a finalized program");
    if (csb_unit >= units_.size()) {
        units_.resize(csb_unit + 1);
        for (CsbUnit &unit : units_) {
            if (unit.data.empty()) {
                unit.data.assign(csbModel_.lineBytes, 0);
                unit.valid.assign(csbModel_.lineBytes, false);
            }
        }
    }
    Context ctx;
    ctx.program = program;
    ctx.state.pid = pid;
    ctx.csbUnit = csb_unit;
    contexts_.push_back(std::move(ctx));
}

IoImage::const_iterator
ioLowerBound(const IoImage &image, Addr addr)
{
    return std::lower_bound(image.begin(), image.end(), addr,
                            [](const auto &entry, Addr key) {
                                return entry.first < key;
                            });
}

void
writeIoBytes(IoImage &image, Addr addr, const std::uint8_t *bytes,
             std::size_t size)
{
    auto it = image.begin() + (ioLowerBound(image, addr) - image.begin());
    std::size_t i = 0;
    while (i < size) {
        if (it != image.end() && it->first == addr + i) {
            (it++)->second = bytes[i++];
            continue;
        }
        // The bytes up to the next address already present are new:
        // insert them as one run.
        std::size_t run = 1;
        while (i + run < size &&
               (it == image.end() || addr + i + run < it->first)) {
            ++run;
        }
        it = image.insert(it, run, {});
        for (std::size_t k = 0; k < run; ++k, ++i)
            *it++ = {addr + i, bytes[i]};
    }
}

void
ReferenceExecutor::run(std::uint64_t max_steps_per_context)
{
    for (Context &ctx : contexts_)
        runContext(ctx, max_steps_per_context);
}

std::uint64_t
ReferenceExecutor::csbFlushesSucceeded(unsigned unit) const
{
    return unit < units_.size() ? units_[unit].flushesSucceeded : 0;
}

void
ReferenceExecutor::foldIoWrite(Context &ctx, Addr addr, unsigned size,
                               std::uint64_t bits)
{
    // The device sees only `size` bytes; record the transaction the
    // way the bus carries it so write-stream comparisons line up.
    if (size < 8)
        bits &= (std::uint64_t(1) << (size * 8)) - 1;
    ctx.ioWrites.push_back({addr, size, bits});
    std::uint8_t bytes[8];
    std::memcpy(bytes, &bits, sizeof(bytes));
    writeIoBytes(ioImage_, addr, bytes, size);
}

void
ReferenceExecutor::csbStore(CsbUnit &unit, ProcId pid, Addr addr,
                            unsigned size, std::uint64_t bits)
{
    Addr line = addr & ~Addr(csbModel_.lineBytes - 1);
    bool match = unit.hitCounter > 0 && unit.pid == pid &&
                 unit.lineAddr == line;
    if (!match) {
        std::fill(unit.data.begin(), unit.data.end(), 0);
        std::fill(unit.valid.begin(), unit.valid.end(), false);
        unit.lineAddr = line;
        unit.pid = pid;
        unit.hitCounter = 0;
    }
    unsigned offset = static_cast<unsigned>(addr - line);
    csb_assert(offset + size <= csbModel_.lineBytes,
               "combining store crosses a line boundary");
    std::memcpy(unit.data.data() + offset, &bits, size);
    for (unsigned i = 0; i < size; ++i)
        unit.valid[offset + i] = true;
    ++unit.hitCounter;
}

bool
ReferenceExecutor::csbFlush(CsbUnit &unit, ProcId pid, Addr addr,
                            std::uint64_t expected)
{
    Addr line = addr & ~Addr(csbModel_.lineBytes - 1);
    bool match = unit.hitCounter != 0 && unit.hitCounter == expected &&
                 unit.pid == pid &&
                 (!csbModel_.checkAddress || unit.lineAddr == line);
    if (match) {
        // Issue the line: all valid bytes, plus (in full-line mode)
        // the zero padding of the invalid ones, which the data
        // register holds as zeros -- exactly what the cycle model's
        // CSB hands to the bus.
        if (!csbModel_.partialFlush) {
            writeIoBytes(ioImage_, unit.lineAddr, unit.data.data(),
                         csbModel_.lineBytes);
        } else {
            for (unsigned i = 0; i < csbModel_.lineBytes; ++i) {
                if (unit.valid[i])
                    writeIoBytes(ioImage_, unit.lineAddr + i,
                                 &unit.data[i], 1);
            }
        }
        ++unit.flushesSucceeded;
    }
    std::fill(unit.data.begin(), unit.data.end(), 0);
    std::fill(unit.valid.begin(), unit.valid.end(), false);
    unit.hitCounter = 0;
    return match;
}

void
ReferenceExecutor::runContext(Context &ctx, std::uint64_t max_steps)
{
    ArchState &state = ctx.state;
    const isa::Program &program = *ctx.program;
    CsbUnit &csb = units_.at(ctx.csbUnit);

    std::uint64_t steps = 0;
    while (!state.halted) {
        if (steps++ >= max_steps) {
            csb_fatal("reference executor: context pid=", state.pid,
                      " exceeded ", max_steps,
                      " steps without halting");
        }
        csb_assert(state.pc < program.size(),
                   "reference executor fell off the program");
        const isa::Instruction &inst = program.at(state.pc);
        std::uint64_t next_pc = state.pc + 1;

        switch (inst.instClass()) {
          case InstClass::Nop:
            break;
          case InstClass::Halt:
            state.halted = true;
            break;
          case InstClass::Mark:
            ctx.marks.push_back(inst.imm);
            break;
          case InstClass::IntAlu:
          case InstClass::FpAlu: {
            std::uint64_t a = state.readReg(inst.rs1);
            std::uint64_t b = inst.rs2.valid()
                                  ? state.readReg(inst.rs2)
                                  : static_cast<std::uint64_t>(inst.imm);
            state.writeReg(inst.rd, evalAlu(inst.op, a, b));
            break;
          }
          case InstClass::Load: {
            Addr addr = state.readReg(inst.rs1) +
                        static_cast<std::uint64_t>(inst.imm);
            unsigned size = isa::accessSize(inst.op);
            csb_assert(addr % size == 0, "reference: misaligned load");
            std::uint64_t bits = 0;
            if (pageTable_.attrOf(addr) == PageAttr::Cached)
                memory_.read(addr, &bits, size);
            // Uncached loads are device register reads; with no
            // registers programmed they return zero (writes are
            // logged, never reflected back -- io::BurstDevice).
            state.writeReg(inst.rd, bits);
            break;
          }
          case InstClass::Store: {
            Addr addr = state.readReg(inst.rs1) +
                        static_cast<std::uint64_t>(inst.imm);
            unsigned size = isa::accessSize(inst.op);
            csb_assert(addr % size == 0, "reference: misaligned store");
            std::uint64_t bits = state.readReg(inst.rs2);
            switch (pageTable_.attrOf(addr)) {
              case PageAttr::Cached:
                memory_.write(addr, &bits, size);
                break;
              case PageAttr::UncachedCombining:
                csbStore(csb, state.pid, addr, size, bits);
                break;
              default:
                foldIoWrite(ctx, addr, size, bits);
                break;
            }
            break;
          }
          case InstClass::Swap: {
            Addr addr = state.readReg(inst.rs1) +
                        static_cast<std::uint64_t>(inst.imm);
            unsigned size = isa::accessSize(inst.op);
            csb_assert(addr % size == 0, "reference: misaligned swap");
            std::uint64_t nv = state.readReg(inst.rd);
            std::uint64_t result = 0;
            switch (pageTable_.attrOf(addr)) {
              case PageAttr::Cached:
                memory_.read(addr, &result, size);
                memory_.write(addr, &nv, size);
                break;
              case PageAttr::UncachedCombining:
                // Conditional flush: rd carries the expected hit
                // count in, and reads back unchanged on success,
                // zero on failure (section 3.2).
                result = csbFlush(csb, state.pid, addr, nv) ? nv : 0;
                break;
              default:
                // Plain uncached swap: the old value is a device
                // register read (zero), the new value a logged write.
                foldIoWrite(ctx, addr, size, nv);
                break;
            }
            state.writeReg(inst.rd, result);
            break;
          }
          case InstClass::Membar:
            // Sequential execution is already strongly ordered.
            break;
          case InstClass::Branch: {
            bool taken = evalBranch(inst.op, state.readReg(inst.rs1),
                                    state.readReg(inst.rs2));
            if (taken)
                next_pc = static_cast<std::uint64_t>(inst.target);
            break;
          }
        }
        state.pc = next_pc;
    }
}

} // namespace csb::cpu
