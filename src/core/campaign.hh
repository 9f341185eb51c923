/**
 * @file
 * Fault campaigns: scheduled adversity against a live workload, with
 * crash-restart resilience and a robustness scorecard (docs/FAULTS.md).
 *
 * A campaign runs a message workload in `legs` -- each leg sends a
 * batch of NI messages (and optionally writes device lines) -- under a
 * seeded fault plan extended with a fault schedule (bursts, brownouts,
 * hangs, storms).  Before every leg the runner takes an in-memory CSBC
 * checkpoint; an optional scheduled *crash* kills the System object
 * partway through a leg, rebuilds it from the latest checkpoint, and
 * re-runs the leg.  Because the checkpoint carries the fault
 * injector's RNG streams and the NI's sequence state, the surviving
 * timeline is deterministic and exactly-once delivery must hold across
 * the restart -- the crashed attempt's partial deliveries die with its
 * System, exactly as a real machine's volatile state would.
 *
 * A HealthMonitor (health.hh) rides along for the whole campaign and
 * contributes liveness/safety violations to the scorecard.
 */

#ifndef CSB_CORE_CAMPAIGN_HH
#define CSB_CORE_CAMPAIGN_HH

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/fault.hh"
#include "sim/types.hh"

namespace csb::core {

/** One campaign configuration (independent of the seed). */
struct CampaignScenario
{
    std::string name = "campaign";
    /** CSB PIO legs when true, lock-protected PIO legs otherwise. */
    bool useCsb = true;
    /** Workload legs; a checkpoint precedes each. */
    unsigned legs = 3;
    /** NI messages sent per leg (scientific size mix). */
    unsigned messagesPerLeg = 12;
    /** Device-window lines written per leg (0 = NI traffic only). */
    unsigned deviceLines = 4;
    /** Fault-schedule spec (docs/FAULTS.md grammar); may be empty. */
    std::string schedule;
    /** Uniform base rates; the per-run seed overrides baseFaults.seed. */
    sim::FaultPlan baseFaults;
    /** Leg index to crash inside (-1 = no crash). */
    int crashAfterLeg = -1;
    /** Ticks into the crash leg before the System is killed. */
    Tick crashAfterTicks = 20'000;

    // Recovery budgets (docs/FAULTS.md): small CSB budget so hangs
    // escalate to degraded mode; patient ubuf/NI budgets plus link
    // reset so the campaign rides out windows instead of dying.
    unsigned csbRetryMaxAttempts = 6;
    unsigned ubufRetryMaxAttempts = 24;
    unsigned niMaxSendAttempts = 8;

    Tick healthPeriod = 1024;
    Tick livenessWindow = 500'000;
    /** Per-leg tick budget (relative); overrun = failed campaign. */
    Tick legMaxTicks = 8'000'000;

    /** Throws FatalError when the scenario is malformed. */
    void validate() const;
};

/**
 * The built-in campaign set, in order: burst-nack, device-hang,
 * link-flap, ack-storm, brownout-locked and combined (docs/FAULTS.md
 * documents each).
 */
std::vector<CampaignScenario> builtinScenarios();

/** @return the built-in scenario called @p name, if there is one. */
std::optional<CampaignScenario> findBuiltinScenario(std::string_view name);

/** Robustness scorecard of one campaign run (one seed). */
struct CampaignResult
{
    /**
     * The headline bit: every leg completed, exactly-once delivery
     * held (zero lost, zero duplicated), and the health monitor saw
     * no violation.
     */
    bool recovered = false;
    unsigned legsCompleted = 0;
    /** The scheduled crash-restart actually happened. */
    bool crashed = false;

    // Exactly-once accounting over the surviving timeline.
    unsigned messagesSent = 0;
    unsigned delivered = 0;
    unsigned lost = 0;
    unsigned duplicated = 0;

    // Adversity actually absorbed.
    std::uint64_t faultsInjected = 0;
    std::uint64_t busNacks = 0;
    std::uint64_t busRetries = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t linkResets = 0;
    std::uint64_t degradedEntries = 0;
    std::uint64_t repromotions = 0;

    // Recovery quality.
    double degradedTicks = 0;
    double linkDownTicks = 0;
    /**
     * Mean ticks to repair: total outage residency (degraded mode +
     * link-down) over closed recovery episodes; 0 when no episode
     * closed.
     */
    double mttrTicks = 0;

    std::uint64_t healthChecks = 0;
    std::uint64_t healthViolations = 0;
    Tick endTick = 0;
    /** Nonempty when the campaign aborted on a FatalError. */
    std::string failure;
};

/** Run @p scenario once under @p seed. */
CampaignResult runCampaign(const CampaignScenario &scenario,
                           std::uint64_t seed);

/** Aggregate scorecard of a multi-seed campaign sweep. */
struct CampaignSummary
{
    unsigned runs = 0;
    unsigned recoveredRuns = 0;
    double recoveryRate = 0;
    std::uint64_t totalLost = 0;
    std::uint64_t totalDuplicated = 0;
    std::uint64_t totalFaultsInjected = 0;
    std::uint64_t totalLinkResets = 0;
    std::uint64_t totalDegradedEntries = 0;
    std::uint64_t totalHealthViolations = 0;
    /** Mean of per-run MTTRs over runs with a closed episode. */
    double meanMttrTicks = 0;
    /** Mean fraction of run time spent degraded or link-down. */
    double meanDegradedResidency = 0;
};

CampaignSummary summarize(const std::vector<CampaignResult> &results);

/** One scorecard line per run plus a summary block, for CLIs. */
void renderCampaignTable(std::ostream &os, const CampaignScenario &scenario,
                         const std::vector<CampaignResult> &results,
                         const std::vector<std::uint64_t> &seeds);

} // namespace csb::core

#endif // CSB_CORE_CAMPAIGN_HH
