/**
 * @file
 * The three closed-loop workloads of the host-speed benchmark.
 *
 * Each workload turns its seed into an endless, fixed list of ops and
 * runs op k on request; main.cc starts op k+1 when op k returns.  Ops
 * call csbsim only through its public API and bracket every call into
 * a layer with a span.  After every System run the workload reads
 * that System's public stat counters into SimCounts.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"

namespace hostbench {

/**
 * Simulated work of one or more ops, summed over every System they
 * built.  Every field is a deterministic function of the op list, so
 * two runs of the same ops -- traced or not -- must agree exactly.
 */
struct SimCounts
{
    std::uint64_t systems = 0;
    std::uint64_t ticks = 0;
    std::uint64_t events = 0;
    std::uint64_t ffTicks = 0;
    std::uint64_t instsAssembled = 0;
    std::uint64_t cpuCycles = 0;
    std::uint64_t instsRetired = 0;
    std::uint64_t ioStallCycles = 0;
    std::uint64_t ubufStores = 0;
    std::uint64_t ubufCoalesced = 0;
    std::uint64_t csbFlushes = 0;
    std::uint64_t csbFlushesOk = 0;
    std::uint64_t csbLines = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t busTxns = 0;
    std::uint64_t busBytes = 0;
    std::uint64_t busNacks = 0;
    /** Bus utilization of each System, weighted by its ticks. */
    double busUtilTicks = 0;
    /** Sum of each System's median bus-transaction latency, and the
     *  number of Systems that issued a transaction. */
    double txnLatencyP50Sum = 0;
    std::uint64_t txnLatencySystems = 0;
    std::uint64_t delivered = 0;
    std::uint64_t deviceBytes = 0;
    std::uint64_t ckptBytes = 0;
    std::uint64_t litmusSpecs = 0;
    std::uint64_t litmusContexts = 0;
    std::uint64_t litmusDiscrepancies = 0;

    SimCounts &operator+=(const SimCounts &o);
    bool operator==(const SimCounts &) const = default;

    /** One-line JSON object of every field. */
    std::string toJson() const;
};

struct WorkloadOptions
{
    std::uint64_t seed = 1;
    /**
     * litmus_sweep only: arm the CsbFlushDrop bug knob on every spec
     * (RunSpec::dropFlushRate).  Non-zero runs must fail their checks;
     * the benchmark's negative self-test relies on that.
     */
    double dropFlushRate = 0;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the inputs and output references and warm up.  Everything
     * here is set-up time: it runs before the first timed op.
     */
    virtual void setup() = 0;

    /**
     * Run op @p op, add its simulated work to @p counts, and return
     * whether every output check of the op passed.
     */
    virtual bool runOp(std::uint64_t op, SimCounts &counts) = 0;
};

/**
 * Write the expected-panels file of paper_figs: this build's
 * runBandwidthSweep / runLatencySweep values for every panel.
 */
void printPanels(std::ostream &os);

/** Names accepted by makeWorkload, in documentation order. */
const std::vector<std::string> &workloadNames();

/** @return null for an unknown @p name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadOptions &opts,
                                       SpanRecorder &spans);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
