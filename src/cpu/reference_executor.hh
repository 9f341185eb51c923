/**
 * @file
 * Multi-context sequential-consistency reference executor.
 *
 * Runs each registered context's program to completion, strictly
 * sequentially and one context after another, against a functional
 * model of the memory system: cached space is a flat byte store,
 * uncached space is an ordered write stream folded into a byte image
 * (device reads return zero, matching a BurstDevice with no registers
 * programmed), and uncached-combining space hits a functional
 * conditional store buffer with the paper's combine/flush rules.
 *
 * This is the oracle of the litmus harness (docs/LITMUS.md) and of
 * tests/cpu/test_differential: by the store-buffer reduction theorem
 * (Cohen & Schirmer, PAPERS.md), any program whose contexts touch
 * disjoint data must produce exactly this final state on the full
 * cycle model, no matter how the pipeline, the uncached buffer, the
 * CSB, preemption or bus faults reorder the execution.  The
 * interleaving chosen here (context 0 to completion, then context 1,
 * ...) is therefore canonical, not arbitrary.
 *
 * With its default all-Cached page table and a single context it is
 * also the plain sequential interpreter of the mini-ISA: the one
 * functional engine next to the cycle-level Core.
 */

#ifndef CSB_CPU_REFERENCE_EXECUTOR_HH
#define CSB_CPU_REFERENCE_EXECUTOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "arch_state.hh"
#include "isa/program.hh"
#include "mem/page_table.hh"
#include "mem/physical_memory.hh"

namespace csb::cpu {

/** One uncached (non-combining) write as the reference emits it. */
struct RefIoWrite
{
    Addr addr = 0;
    unsigned size = 0;
    std::uint64_t data = 0;

    bool operator==(const RefIoWrite &) const = default;
};

/**
 * A byte image of a sparse address space: (address, byte) pairs in
 * ascending address order, one per address written.
 */
using IoImage = std::vector<std::pair<Addr, std::uint8_t>>;

/** Write @p size bytes at @p addr into @p image, keeping it sorted. */
void writeIoBytes(IoImage &image, Addr addr, const std::uint8_t *bytes,
                  std::size_t size);

/** The first entry of @p image at or above @p addr. */
IoImage::const_iterator ioLowerBound(const IoImage &image, Addr addr);

/** Functional-CSB knobs that change the observable device image. */
struct RefCsbModel
{
    /** Combining granularity; must match the cycle model's. */
    unsigned lineBytes = 64;
    /** Flush conflict check includes the line address. */
    bool checkAddress = true;
    /**
     * Successful flushes emit only the valid bytes instead of a
     * zero-padded full line (CsbParams::partialFlush).
     */
    bool partialFlush = false;
};

/** Sequential reference executor over any number of contexts. */
class ReferenceExecutor
{
  public:
    explicit ReferenceExecutor(RefCsbModel csb = RefCsbModel());

    /**
     * Page-attribute routing; defaults to all-Cached.  Configure
     * before run() (e.g. replicate core::System's I/O window layout).
     */
    mem::PageTable &pageTable() { return pageTable_; }

    /**
     * Register a context.  @p csb_unit selects which functional CSB
     * its combining traffic uses: one unit per core in an SMP setup,
     * all contexts on unit 0 under a time-sharing scheduler.
     */
    void addContext(const isa::Program *program, ProcId pid,
                    unsigned csb_unit = 0);

    /**
     * Run every context to completion, in registration order.  Throws
     * FatalError when a context exceeds @p max_steps_per_context --
     * the generator only emits terminating programs, so hitting the
     * cap means the program (or this model) is broken.
     */
    void run(std::uint64_t max_steps_per_context = 1'000'000);

    std::size_t numContexts() const { return contexts_.size(); }

    /** Final architectural state of context @p ctx (after run()). */
    const ArchState &
    state(std::size_t ctx) const
    {
        return contexts_.at(ctx).state;
    }

    /** The cached (RAM) space. */
    mem::PhysicalMemory &memory() { return memory_; }

    /**
     * Folded byte image of everything written to uncached space:
     * plain/accelerated stores and swaps plus flushed CSB lines.
     * Compare against the cycle model's device write log folded the
     * same way.
     */
    const IoImage &ioImage() const { return ioImage_; }

    /**
     * Ordered non-combining uncached writes of context @p ctx.  Under
     * a non-combining uncached buffer these reach the device in
     * exactly this per-context order (MEMBAR adds nothing the
     * sequential model does not already guarantee).
     */
    const std::vector<RefIoWrite> &
    ioWrites(std::size_t ctx) const
    {
        return contexts_.at(ctx).ioWrites;
    }

    /** Successful conditional flushes charged to CSB @p unit. */
    std::uint64_t csbFlushesSucceeded(unsigned unit) const;

    /** Mark ids recorded by context @p ctx, in commit order. */
    const std::vector<std::int64_t> &
    marks(std::size_t ctx) const
    {
        return contexts_.at(ctx).marks;
    }

  private:
    /** Functional CSB accumulator (the paper's combine/flush rules). */
    struct CsbUnit
    {
        std::vector<std::uint8_t> data;
        std::vector<bool> valid;
        Addr lineAddr = 0;
        ProcId pid = 0;
        std::uint64_t hitCounter = 0;
        std::uint64_t flushesSucceeded = 0;
    };

    struct Context
    {
        const isa::Program *program = nullptr;
        ArchState state;
        unsigned csbUnit = 0;
        std::vector<RefIoWrite> ioWrites;
        std::vector<std::int64_t> marks;
    };

    void runContext(Context &ctx, std::uint64_t max_steps);
    void csbStore(CsbUnit &unit, ProcId pid, Addr addr, unsigned size,
                  std::uint64_t bits);
    bool csbFlush(CsbUnit &unit, ProcId pid, Addr addr,
                  std::uint64_t expected);
    void foldIoWrite(Context &ctx, Addr addr, unsigned size,
                     std::uint64_t bits);

    RefCsbModel csbModel_;
    mem::PageTable pageTable_;
    mem::PhysicalMemory memory_;
    IoImage ioImage_;
    std::vector<CsbUnit> units_;
    std::vector<Context> contexts_;
};

} // namespace csb::cpu

#endif // CSB_CPU_REFERENCE_EXECUTOR_HH
