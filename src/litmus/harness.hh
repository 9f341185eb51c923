/**
 * @file
 * The litmus harness: seeded sweeps, shrinking, repros and the
 * regression corpus.
 *
 * runHarness() checks a range of generator seeds, each against the
 * hardware matrix specsForSeed() derives for it, in parallel over the
 * PR-4 SweepRunner.  The report is byte-identical at any --jobs: work
 * is collected by seed index, never completion order, and contains no
 * wall-clock content (timing goes to a separate stream).  A failing
 * seed is shrunk (deterministically, see shrink.hh) against its first
 * failing spec, rendered into the report, and -- when a repro
 * directory is configured -- written out as a self-contained corpus
 * entry: the `.litmus` file carries the run spec and expectation
 * directives plus the shrunk case, and a companion `.csbt` file
 * carries the cycle model's reference trace (PR-5 recorder).
 *
 * replayCorpus() re-checks every checked-in entry: `expect pass`
 * entries must pass all their recorded specs, `expect fail` entries
 * (bug-knob repros) must still fail every one, and a `trace=` file
 * must be reproduced byte-for-byte.
 */

#ifndef CSB_LITMUS_HARNESS_HH
#define CSB_LITMUS_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "oracle.hh"

namespace csb::litmus {

/**
 * Schedule the scheduled-fault matrix axis runs by default: a
 * 25%/10% write/read-NACK burst window covering the start of every
 * case (litmus runs begin at tick 0 and finish within a few thousand
 * ticks).  The rates are far above the uniform 1% axis but inside
 * the retry budget, so clean hardware must still converge.
 */
inline constexpr char kDefaultFaultSchedule[] =
    "burst:bus-write-nack:100..4000:0.25;"
    "burst:bus-read-nack:100..4000:0.1";

struct HarnessOptions
{
    std::uint64_t firstSeed = 1;
    std::uint64_t numSeeds = 100;
    /** SweepRunner worker count; 0 = one per hardware thread. */
    unsigned jobs = 1;
    /**
     * Soft wall-clock budget in seconds; 0 = unlimited.  Checked at
     * fixed batch boundaries only, so a budgeted run may stop after
     * fewer seeds -- the report then depends on host speed.  Leave at
     * 0 whenever byte-identical reports matter.
     */
    double timeBudgetSec = 0;
    /** Run all scheme x mode x faults combinations per seed. */
    bool fullMatrix = false;
    /** Arm the CsbFlushDrop bug knob on every spec (self-test). */
    double dropFlushRate = 0;
    /**
     * Fault schedule driven by the matrix's scheduled-fault axis
     * (docs/FAULTS.md grammar); empty disables the axis.
     */
    std::string faultSchedule = kDefaultFaultSchedule;
    /** Shrink failing cases before reporting. */
    bool shrinkFailures = true;
    /** When set, write seed_<N>.litmus/.csbt repros here. */
    std::string reproDir;
    /** Generator sizing knob. */
    unsigned tokensPerContext = 12;
};

struct HarnessResult
{
    std::uint64_t seedsRun = 0;
    std::uint64_t seedsFailed = 0;
    /** The time budget expired before all seeds ran. */
    bool stoppedEarly = false;
    /** Largest shrunk failing case, in lowered instructions (0 when
     *  nothing failed or shrinking was disabled). */
    std::size_t maxShrunkInstructions = 0;
    /** Deterministic report (stdout material). */
    std::string report;
};

/** The hardware matrix seed @p seed is checked against. */
std::vector<RunSpec>
specsForSeed(std::uint64_t seed, bool full_matrix, double drop_flush_rate,
             const std::string &fault_schedule = kDefaultFaultSchedule);

/** Run the seeded sweep. */
HarnessResult runHarness(const HarnessOptions &opts);

struct CorpusResult
{
    unsigned entries = 0;
    unsigned failures = 0;
    std::string report;
};

/** Replay every `.litmus` entry under @p dir (sorted by filename). */
CorpusResult replayCorpus(const std::string &dir);

} // namespace csb::litmus

#endif // CSB_LITMUS_HARNESS_HH
