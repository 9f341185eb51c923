#include "kernels.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace csb::core {

using isa::ir;
using isa::Program;

namespace {

/** Preset r2..r8 with recognizable data values. */
void
presetData(Program &p)
{
    for (int r = 2; r <= 8; ++r)
        p.li(ir(r), 0x1111111111111111ULL * static_cast<unsigned>(r));
}

/** Data register for the store at doubleword index @p i. */
isa::RegId
dataReg(unsigned i)
{
    return ir(2 + static_cast<int>(i % 7));
}

} // namespace

Program
makeStoreKernel(Addr base, unsigned total_bytes)
{
    csb_assert(total_bytes >= 8 && total_bytes % 8 == 0,
               "transfer must be a positive dword multiple");
    Program p;
    presetData(p);
    p.li(ir(1), static_cast<std::int64_t>(base));
    p.mark(0);
    for (unsigned off = 0; off < total_bytes; off += 8)
        p.std_(dataReg(off / 8), ir(1), off);
    p.membar(); // wait for the last store to leave the buffer
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

Program
makeCsbStoreKernel(Addr base, unsigned total_bytes, unsigned line_bytes)
{
    csb_assert(total_bytes >= 8 && total_bytes % 8 == 0,
               "transfer must be a positive dword multiple");
    csb_assert(line_bytes >= 16 && isPowerOf2(line_bytes),
               "bad line size");
    Program p;
    presetData(p);
    p.li(ir(1), static_cast<std::int64_t>(base));
    p.mark(0);
    for (unsigned group = 0; group * line_bytes < total_bytes; ++group) {
        unsigned group_base = group * line_bytes;
        unsigned group_bytes =
            std::min(line_bytes, total_bytes - group_base);
        auto dwords = static_cast<std::int64_t>(group_bytes / 8);

        isa::Label retry = p.newLabel();
        p.bind(retry);
        p.li(ir(9), dwords); // expected hit count
        for (unsigned off = 0; off < group_bytes; off += 8) {
            p.std_(dataReg((group_base + off) / 8), ir(1),
                   group_base + off);
        }
        p.swap(ir(9), ir(1), group_base); // conditional flush
        p.li(ir(12), dwords);
        p.bne(ir(9), ir(12), retry); // retry on failure
    }
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

namespace {

/** Deterministically shuffled dword offsets of one line group. */
std::vector<unsigned>
shuffledOffsets(unsigned group_base, unsigned group_bytes,
                sim::Random &rng)
{
    std::vector<unsigned> offsets;
    for (unsigned off = 0; off < group_bytes; off += 8)
        offsets.push_back(group_base + off);
    for (std::size_t i = offsets.size(); i > 1; --i) {
        std::size_t j = rng.uniform(0, i - 1);
        std::swap(offsets[i - 1], offsets[j]);
    }
    return offsets;
}

} // namespace

Program
makeShuffledStoreKernel(Addr base, unsigned total_bytes,
                        unsigned line_bytes, std::uint64_t seed)
{
    csb_assert(total_bytes >= 8 && total_bytes % 8 == 0,
               "transfer must be a positive dword multiple");
    sim::Random rng(seed);
    Program p;
    presetData(p);
    p.li(ir(1), static_cast<std::int64_t>(base));
    p.mark(0);
    for (unsigned group = 0; group * line_bytes < total_bytes; ++group) {
        unsigned group_base = group * line_bytes;
        unsigned group_bytes =
            std::min(line_bytes, total_bytes - group_base);
        for (unsigned off : shuffledOffsets(group_base, group_bytes, rng))
            p.std_(dataReg(off / 8), ir(1), off);
    }
    p.membar();
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

Program
makeShuffledCsbStoreKernel(Addr base, unsigned total_bytes,
                           unsigned line_bytes, std::uint64_t seed)
{
    csb_assert(total_bytes >= 8 && total_bytes % 8 == 0,
               "transfer must be a positive dword multiple");
    sim::Random rng(seed);
    Program p;
    presetData(p);
    p.li(ir(1), static_cast<std::int64_t>(base));
    p.mark(0);
    for (unsigned group = 0; group * line_bytes < total_bytes; ++group) {
        unsigned group_base = group * line_bytes;
        unsigned group_bytes =
            std::min(line_bytes, total_bytes - group_base);
        auto dwords = static_cast<std::int64_t>(group_bytes / 8);
        isa::Label retry = p.newLabel();
        p.bind(retry);
        p.li(ir(9), dwords);
        for (unsigned off : shuffledOffsets(group_base, group_bytes, rng))
            p.std_(dataReg(off / 8), ir(1), off);
        p.swap(ir(9), ir(1), group_base);
        p.li(ir(12), dwords);
        p.bne(ir(9), ir(12), retry);
    }
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

Program
makeLockedStoreKernel(Addr lock_addr, Addr io_base, unsigned n_dwords)
{
    csb_assert(n_dwords >= 1, "need at least one store");
    Program p;
    presetData(p);
    p.li(ir(1), static_cast<std::int64_t>(io_base));
    p.mark(0);

    // Lock acquire (paper: 8 instructions around the atomic swap).
    p.li(ir(10), static_cast<std::int64_t>(lock_addr));
    p.li(ir(11), 1);
    isa::Label spin = p.newLabel();
    p.bind(spin);
    p.swap(ir(11), ir(10), 0);
    p.bne(ir(11), ir(0), spin); // old value non-zero: lock was held
    p.membar();                 // separate lock from the uncached stores

    for (unsigned i = 0; i < n_dwords; ++i)
        p.std_(dataReg(i), ir(1), i * 8);

    p.membar(); // release only after the last store left the buffer

    // Lock release (paper: 3 instructions).
    p.li(ir(12), 0);
    p.std_(ir(12), ir(10), 0);
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

Program
makeCsbSequenceKernel(Addr csb_base, unsigned n_dwords)
{
    csb_assert(n_dwords >= 1, "need at least one store");
    Program p;
    presetData(p);
    p.li(ir(1), static_cast<std::int64_t>(csb_base));
    p.mark(0);

    isa::Label retry = p.newLabel();
    p.bind(retry);
    p.li(ir(9), static_cast<std::int64_t>(n_dwords));
    for (unsigned i = 0; i < n_dwords; ++i)
        p.std_(dataReg(i), ir(1), i * 8);
    p.swap(ir(9), ir(1), 0); // conditional flush
    p.li(ir(12), static_cast<std::int64_t>(n_dwords));
    p.bne(ir(9), ir(12), retry);

    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

Program
makeCsbStoreKernelWithBackoff(Addr base, unsigned total_bytes,
                              unsigned line_bytes, unsigned max_backoff)
{
    csb_assert(total_bytes >= 8 && total_bytes % 8 == 0,
               "transfer must be a positive dword multiple");
    csb_assert(max_backoff >= 1, "backoff bound must be positive");
    Program p;
    presetData(p);
    p.li(ir(1), static_cast<std::int64_t>(base));
    p.li(ir(20), 1); // current backoff (delay-loop iterations)
    p.li(ir(22), static_cast<std::int64_t>(max_backoff));
    p.mark(0);
    for (unsigned group = 0; group * line_bytes < total_bytes; ++group) {
        unsigned group_base = group * line_bytes;
        unsigned group_bytes =
            std::min(line_bytes, total_bytes - group_base);
        auto dwords = static_cast<std::int64_t>(group_bytes / 8);

        isa::Label retry = p.newLabel();
        isa::Label success = p.newLabel();
        p.bind(retry);
        p.li(ir(9), dwords);
        for (unsigned off = 0; off < group_bytes; off += 8)
            p.std_(dataReg((group_base + off) / 8), ir(1),
                   group_base + off);
        p.swap(ir(9), ir(1), group_base);
        p.li(ir(12), dwords);
        p.beq(ir(9), ir(12), success);

        // Failed flush: spin for r20 iterations, then double the
        // backoff (capped at r22) and retry.
        p.or_(ir(21), ir(20), ir(0));
        isa::Label delay = p.newLabel();
        p.bind(delay);
        p.addi(ir(21), ir(21), -1);
        p.bgt(ir(21), ir(0), delay);
        p.slli(ir(20), ir(20), 1);
        isa::Label capped = p.newLabel();
        p.ble(ir(20), ir(22), capped);
        p.or_(ir(20), ir(22), ir(0));
        p.bind(capped);
        p.jmp(retry);

        p.bind(success);
        p.li(ir(20), 1); // conflict resolved: reset the backoff
    }
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

Program
makeCsbStoreKernelWithFallback(Addr csb_base, Addr fallback_base,
                               Addr lock_addr, unsigned total_bytes,
                               unsigned line_bytes, unsigned max_retries)
{
    csb_assert(total_bytes >= 8 && total_bytes % 8 == 0,
               "transfer must be a positive dword multiple");
    csb_assert(max_retries >= 1, "need at least one CSB attempt");
    Program p;
    presetData(p);
    p.li(ir(1), static_cast<std::int64_t>(csb_base));
    p.li(ir(18), static_cast<std::int64_t>(fallback_base));
    p.li(ir(10), static_cast<std::int64_t>(lock_addr));
    p.mark(0);
    for (unsigned group = 0; group * line_bytes < total_bytes; ++group) {
        unsigned group_base = group * line_bytes;
        unsigned group_bytes =
            std::min(line_bytes, total_bytes - group_base);
        auto dwords = static_cast<std::int64_t>(group_bytes / 8);

        isa::Label retry = p.newLabel();
        isa::Label fallback = p.newLabel();
        isa::Label group_done = p.newLabel();

        p.li(ir(19), static_cast<std::int64_t>(max_retries));
        p.bind(retry);
        p.li(ir(9), dwords);
        for (unsigned off = 0; off < group_bytes; off += 8)
            p.std_(dataReg((group_base + off) / 8), ir(1),
                   group_base + off);
        p.swap(ir(9), ir(1), group_base);
        p.li(ir(12), dwords);
        p.beq(ir(9), ir(12), group_done);
        p.addi(ir(19), ir(19), -1);
        p.bgt(ir(19), ir(0), retry);

        // Bounded failures exhausted: take the lock and use plain
        // uncached stores through the non-combining alias window.
        p.bind(fallback);
        p.li(ir(11), 1);
        isa::Label spin = p.newLabel();
        p.bind(spin);
        p.swap(ir(11), ir(10), 0);
        p.bne(ir(11), ir(0), spin);
        p.membar();
        for (unsigned off = 0; off < group_bytes; off += 8)
            p.std_(dataReg((group_base + off) / 8), ir(18),
                   group_base + off);
        p.membar();
        p.li(ir(12), 0);
        p.std_(ir(12), ir(10), 0);

        p.bind(group_done);
    }
    p.mark(1);
    p.halt();
    p.finalize();
    return p;
}

} // namespace csb::core
