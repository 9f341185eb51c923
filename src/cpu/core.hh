/**
 * @file
 * Dynamically scheduled processor core (RSIM-flavoured).
 *
 * The microarchitecture follows the paper's section 4.1:
 *  - unified dispatch queue (window) tracking true data dependencies;
 *  - up to fetchWidth instructions dispatched and retireWidth retired
 *    per cycle, issue to 2 integer + 2 FP units and a memory port;
 *  - out-of-order issue, in-order commit;
 *  - cached loads execute speculatively with store-forwarding checks;
 *  - uncached operations are non-speculative: they take effect at the
 *    head of the reorder buffer, at most one per cycle, and route to
 *    the uncached buffer (plain/accelerated space) or the conditional
 *    store buffer (combining space);
 *  - MEMBAR does not graduate until the uncached buffer has drained;
 *  - SWAP is an atomic read-modify-write executed non-speculatively
 *    at the head; in combining space it is the conditional flush.
 *
 * Branch handling: a branch whose operands are available at dispatch
 * is resolved immediately and fetch continues along the (always
 * correct) path; otherwise fetch stalls until the branch executes.
 * This models an aggressive core without mispeculation-recovery
 * machinery; the paper's microbenchmarks contain no data-dependent
 * branches outside lock retry loops, where a stall is the realistic
 * behaviour.
 */

#ifndef CSB_CPU_CORE_HH
#define CSB_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "arch_state.hh"
#include "isa/program.hh"
#include "mem/cache.hh"
#include "mem/csb.hh"
#include "mem/page_table.hh"
#include "mem/physical_memory.hh"
#include "mem/uncached_buffer.hh"
#include "sim/clocked.hh"
#include "sim/fixed_ring.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/trace_recorder.hh"

namespace csb::cpu {

/** Core configuration. */
struct CoreParams
{
    unsigned fetchWidth = 4;
    unsigned retireWidth = 4;
    /** Unified dispatch queue / reorder buffer size. */
    unsigned windowSize = 64;
    unsigned intUnits = 2;
    unsigned fpUnits = 2;
    /** Cached-access / address-generation ports per cycle. */
    unsigned memPorts = 2;
    /** Uncached operations retired per cycle (paper: one). */
    unsigned maxUncachedRetirePerCycle = 1;
    Tick intLatency = 1;
    Tick mulLatency = 3;
    Tick fpLatency = 3;
    /** Latency of the conditional flush inside the CSB, in cycles. */
    Tick csbFlushLatency = 2;

    void validate() const;
};

/** Memory-system ports the core talks to. */
struct CoreMemPorts
{
    mem::Tlb *tlb = nullptr;
    mem::CacheHierarchy *caches = nullptr;
    mem::UncachedBuffer *ubuf = nullptr;
    /** May be null: a system without a CSB (baseline configs). */
    mem::ConditionalStoreBuffer *csb = nullptr;
    mem::PhysicalMemory *memory = nullptr;
};

/** A (mark id, retire tick) record written by the MARK instruction. */
using MarkRecord = std::pair<std::int64_t, Tick>;

/**
 * The out-of-order core.  Runs one context at a time; contexts can be
 * saved/restored (with a pipeline squash) for multiprogramming.
 */
class Core : public sim::Clocked, public sim::stats::StatGroup
{
  public:
    Core(sim::Simulator &simulator, const CoreParams &params,
         const CoreMemPorts &ports, std::string name = "cpu",
         sim::stats::StatGroup *stat_parent = nullptr);

    /** Reset the context and start running @p program as @p pid. */
    void loadProgram(const isa::Program *program, ProcId pid);

    /** @return true once a HALT has committed (or nothing is loaded). */
    bool halted() const { return program_ == nullptr || arch_.halted; }

    /** Committed architectural state (for tests and schedulers). */
    const ArchState &archState() const { return arch_; }

    /** Timestamps recorded by committed MARK instructions. */
    const std::vector<MarkRecord> &marks() const { return marks_; }

    /** Retire tick of the first mark with @p id; maxTick when absent. */
    Tick markTime(std::int64_t id) const;

    void clearMarks() { marks_.clear(); }

    /**
     * Request an asynchronous context switch.  The pipeline squashes
     * at the next cycle with no committed-but-unfinished operation in
     * flight; @p on_switched then receives the saved state.
     */
    void requestContextSwitch(
        const isa::Program *next_program, const ArchState &next_state,
        std::function<void(const ArchState &saved)> on_switched);

    /** @return true when a requested switch has not happened yet. */
    bool switchPending() const { return switchPending_; }

    /**
     * Wake @p waiter whenever halted() or switchPending() may change:
     * a HALT commits, a program loads or a switch completes.  Null
     * detaches.
     */
    void setContextWaiter(sim::Clocked *waiter) { contextWaiter_ = waiter; }

    /**
     * Record every data reference this core issues to the memory
     * system into @p recorder, stamped as core @p cpu_index (see
     * docs/TRACE_FORMAT.md for the record catalogue).  Null detaches.
     * Recording is passive: it never changes timing or behaviour.
     */
    void
    setTraceRecorder(sim::TraceRecorder *recorder,
                     std::uint8_t cpu_index = 0)
    {
        traceRec_ = recorder;
        traceCpu_ = cpu_index;
    }

    void tick() override;

    void settle() override;

    const CoreParams &params() const { return params_; }

    /**
     * Serialize the committed context (registers, pc, pid, marks,
     * sequence counters) at a quiescent boundary: the pipeline must
     * be drained (halted with an empty window).  Stats travel in the
     * owning System's stats section, not here.  See docs/CHECKPOINT.md.
     */
    void checkpointSave(sim::CheckpointWriter &cw) const;

    /** Restore the context written by checkpointSave(). */
    void checkpointRestore(sim::CheckpointReader &cr);

    // Statistics.
    sim::stats::Scalar numCycles;
    sim::stats::Scalar instsRetired;
    sim::stats::Scalar instsDispatched;
    sim::stats::Scalar branchFetchStallCycles;
    sim::stats::Scalar windowFullStallCycles;
    sim::stats::Scalar uncachedRetireStallCycles;
    sim::stats::Scalar membarStallCycles;
    sim::stats::Scalar csbStoreStallCycles;
    sim::stats::Scalar contextSwitches;
    /** Consecutive cycles an uncached store waited before retiring. */
    sim::stats::Distribution uncachedStallRuns;
    sim::stats::Formula ipc;

  private:
    enum class State : std::uint8_t { Dispatched, Issued, Done };

    /** The per-cycle stall counters. */
    enum Stall : unsigned
    {
        UncachedRetireStall,
        CsbStoreStall,
        MembarStall,
        WindowFullStall,
        BranchFetchStall,
        numStalls,
    };

    struct DynInst
    {
        std::uint64_t seq = 0;
        std::uint64_t pc = 0;
        isa::Instruction inst;
        State state = State::Dispatched;
        Tick dispatchTick = 0;

        // Operand tracking.  producer == 0 means the value is in valN.
        std::uint64_t src1Producer = 0;
        std::uint64_t src2Producer = 0;
        std::uint64_t src1Val = 0;
        std::uint64_t src2Val = 0;
        /** Operands of younger instructions still waiting on this one. */
        unsigned consumers = 0;

        std::uint64_t result = 0;

        // Memory state.
        Addr effAddr = 0;
        bool addrKnown = false;
        mem::PageAttr attr = mem::PageAttr::Cached;
        unsigned size = 0;

        // Branch resolution.
        bool resolved = false;
        bool taken = false;

        /** Non-speculative head operation already started. */
        bool headOpStarted = false;
    };

    // Pipeline stages (called in this order each cycle).
    void retireStage();
    void issueStage();
    void fetchStage();

    // Commit helpers; return false when the head cannot commit yet.
    bool commitHead(unsigned &uncached_retired);
    bool commitStore(DynInst &head, unsigned &uncached_retired);
    void startHeadSwap(DynInst &head);
    void startHeadUncachedLoad(DynInst &head);

    /** Move @p inst from Dispatched to Issued. */
    void markIssued(DynInst &inst);

    /** Mark @p inst executed: write back, wake consumers, unstall. */
    void finishInst(DynInst &inst, std::uint64_t result);

    /**
     * finishInst() from a memory-system callback, which also wakes
     * the core: the callback fires between its ticks.
     */
    void finishFromCallback(DynInst &inst, std::uint64_t result);

    /** Finish instruction @p seq with @p result at tick @p when. */
    void finishAt(Tick when, std::uint64_t seq, std::uint64_t result);

    /** Finish every pending completion due at or before @p now. */
    void drainCompletions(Tick now);

    /** Look up an in-flight instruction by sequence number: O(1). */
    DynInst *findBySeq(std::uint64_t seq);

    /** Position of the in-flight instruction @p seq in the window. */
    std::size_t windowIndex(std::uint64_t seq) const;

    /** Capture a source operand at dispatch. */
    void captureOperand(const isa::RegId &reg, std::uint64_t &producer,
                        std::uint64_t &value);

    /** @return source registers of @p inst as (src1, src2). */
    static std::pair<isa::RegId, isa::RegId>
    sourcesOf(const isa::Instruction &inst);

    /** @return destination register (or noReg). */
    static isa::RegId destOf(const isa::Instruction &inst);

    bool operandsReady(const DynInst &inst) const;

    /** Append one reference to the attached trace recorder, if any. */
    void recordRef(sim::TraceOp op, Addr addr, unsigned size,
                   std::uint64_t value, mem::PageAttr attr,
                   std::uint8_t flags = 0);

    /** True when an older store blocks this load (unknown/overlap). */
    bool loadBlockedByStore(const DynInst &load, std::uint64_t &fwd_val,
                            bool &can_forward) const;

    void doSquashAndSwitch();

    /** Count one cycle of @p which in its counter and this tick's mask. */
    void noteStall(Stall which);

    sim::stats::Scalar &stallCounter(Stall which);

    /**
     * Accrue the cycles skipped while asleep, up to but excluding
     * @p until: each repeats the tick that put the core to sleep.
     */
    void accrueSkipped(Tick until);

    /** Wake the context waiter, if any. */
    void
    wakeContextWaiter()
    {
        if (contextWaiter_)
            contextWaiter_->ungate();
    }

    sim::Simulator &sim_;
    CoreParams params_;
    CoreMemPorts ports_;

    const isa::Program *program_ = nullptr;
    ArchState arch_;

    /** Speculative register values (latest writeback). */
    ArchState spec_;

    /**
     * In-flight instructions, oldest first.  Their sequence numbers
     * are contiguous: dispatch appends nextSeq_++, retire pops the
     * front and a squash clears the whole window.
     */
    /** params_.windowSize slots, allocated once. */
    sim::FixedRing<DynInst> window_;
    std::uint64_t nextSeq_ = 1;
    /** Window entries still in State::Dispatched. */
    unsigned numDispatched_ = 0;
    /**
     * No in-flight entry older than this seq is Dispatched: states
     * only move forward and younger entries get larger seqs, so the
     * bound stays true across retire and squash.
     */
    std::uint64_t issueFrom_ = 0;

    /**
     * Latest writer of each register by sequence; 0 when none was
     * dispatched since the last squash.  Once that writer retires,
     * findBySeq() no longer finds it and operands read spec_.
     */
    std::array<std::uint64_t, isa::numIntRegs + isa::numFpRegs>
        lastWriter_{};

    std::uint64_t fetchPc_ = 0;
    bool fetchHalted_ = true;
    /** Length of the current uncached-store retire-stall streak. */
    unsigned uncachedStallRun_ = 0;
    /** Non-zero: fetch waits for this branch to execute. */
    std::uint64_t fetchStallSeq_ = 0;

    std::vector<MarkRecord> marks_;

    // Context switching.
    bool switchPending_ = false;
    const isa::Program *nextProgram_ = nullptr;
    ArchState nextState_;
    std::function<void(const ArchState &)> onSwitched_;
    /** Bumped on every squash; stale memory callbacks check it. */
    std::uint64_t epoch_ = 0;

    /** A fixed-latency result the core finishes itself. */
    struct Completion
    {
        Tick when;
        std::uint64_t seq;
        std::uint64_t result;
    };

    /**
     * Pending fixed-latency results (ALU ops, branches, store address
     * generation, forwarded loads, the conditional flush), in (when,
     * issue) order.  tick() finishes those due before anything else,
     * and a core with nothing else to do sleeps until the front's
     * tick.  A squash empties it.
     */
    std::vector<Completion> completions_;

    // Sleep bookkeeping.  A tick that changed nothing but per-cycle
    // stall counters puts the core to sleep: every following cycle
    // would repeat it exactly until a completion (a pending one's
    // tick, or a memory callback), a buffer slot or drain (the ubuf
    // and CSB wake the core), a new program or a context-switch
    // request changes its inputs.

    /** Set by every tick action other than a stall count. */
    bool worked_ = false;
    /** Stall bits counted by the last tick (and every cycle slept). */
    unsigned stalls_ = 0;
    /** Woken on halted()/switchPending() changes (not owned). */
    sim::Clocked *contextWaiter_ = nullptr;

    /** Optional trace capture sink (not owned); null when detached. */
    sim::TraceRecorder *traceRec_ = nullptr;
    std::uint8_t traceCpu_ = 0;

    /** Slot of the valid register @p reg in lastWriter_. */
    static std::size_t regSlot(const isa::RegId &reg);

    /** Drop every in-flight instruction (load or context switch). */
    void clearPipeline();
};

} // namespace csb::cpu

#endif // CSB_CPU_CORE_HH
