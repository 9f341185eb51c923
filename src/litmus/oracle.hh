/**
 * @file
 * The differential oracle: one litmus case, one hardware variant, one
 * verdict.
 *
 * A RunSpec picks the I/O scheme (PIO / DMA-style combining buffer /
 * CSB with partial flush), the concurrency shape (one core per
 * context, or every context time-shared on one core with a preemptive
 * scheduler), and whether seeded bus faults are injected.  The oracle
 * runs the lowered case on the full cycle model under that spec, runs
 * the same case on the sequential ReferenceExecutor, and compares
 * every observable the reduction theorem says must be invariant:
 *
 *  - final architectural state of every context (all registers, pc);
 *  - every context's cached arena, byte for byte;
 *  - the device image: the write log folded into a byte map must
 *    equal the reference's, so no store is lost, duplicated,
 *    misplaced or leaked from a discarded CSB accumulation;
 *  - CSB exactly-once accounting: flushesSucceeded matches the
 *    reference per unit, every success issued exactly one line
 *    (linesIssued == flushesSucceeded), and attempts balance
 *    (attempted == succeeded + failed);
 *  - under PIO with no faults, the per-context sequence of uncached
 *    device writes, in order with sizes and payloads -- the strong-
 *    ordering / MEMBAR check (combining schemes legitimately merge
 *    writes, so the per-transaction check applies to PIO only).
 *
 * A run that fails to terminate (watchdog or tick budget) or throws
 * FatalError is itself a discrepancy, never a crash of the harness.
 */

#ifndef CSB_LITMUS_ORACLE_HH
#define CSB_LITMUS_ORACLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace_recorder.hh"
#include "testcase.hh"

namespace csb::litmus {

/** I/O scheme of the system under test. */
enum class Scheme : std::uint8_t { Pio, Dma, Csb };

/** How contexts share hardware. */
enum class CtxMode : std::uint8_t {
    Smp,   ///< one core per context, private CSBs, shared bus/device
    Sched, ///< one core, preemptive round-robin, shared CSB
};

const char *schemeName(Scheme scheme);
const char *ctxModeName(CtxMode mode);

/** One point of the hardware matrix a case is checked against. */
struct RunSpec
{
    Scheme scheme = Scheme::Csb;
    CtxMode mode = CtxMode::Smp;
    /** Scheduler quantum in ticks (Sched mode only). */
    Tick quantum = 200;
    /** Inject 1% seeded bus read/write NACKs. */
    bool faults = false;
    std::uint64_t faultSeed = 1;
    /**
     * Scheduled-fault axis: a fault-schedule spec (docs/FAULTS.md
     * grammar) layered on top of the uniform rates; empty = none.
     * Composes with `faults`.
     */
    std::string schedule;
    /**
     * DEBUG bug knob: probability a successful conditional flush's
     * line is dropped (FaultSite::CsbFlushDrop).  Non-zero runs are
     * expected to FAIL -- the harness's self-test of itself.
     */
    double dropFlushRate = 0;
    /**
     * Run the SMP variant with snooping MESI coherence attached
     * (SystemConfig::coherence).  Coherence is a timing/state model --
     * the differential observables must stay invariant under it, which
     * is exactly what this axis checks.
     */
    bool coherent = false;
    /**
     * Shrink both cache levels to two direct-mapped sets so the
     * per-context arenas conflict and dirty lines spill over the bus
     * mid-run (the PR-8 writeback-payload staleness area; with the
     * default geometry litmus arenas never evict at all).
     */
    bool smallCaches = false;

    /** Stable key used in reports and corpus files, e.g. "csb/smp". */
    std::string name() const;
};

/** One observed difference between model and reference. */
struct Discrepancy
{
    std::string what;
};

/** Outcome of one (case, spec) run. */
struct RunResult
{
    std::vector<Discrepancy> discrepancies;

    bool passed() const { return discrepancies.empty(); }
};

/**
 * Run @p tc under @p spec and compare against the sequential
 * reference.  When @p recorder is non-null, every data reference of
 * the cycle-model run is captured into it (CSBT repro traces).
 */
RunResult runCase(const TestCase &tc, const RunSpec &spec,
                  sim::TraceRecorder *recorder = nullptr);

} // namespace csb::litmus

#endif // CSB_LITMUS_ORACLE_HH
