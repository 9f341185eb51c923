/**
 * @file
 * Extension: robustness scorecard under fault campaigns.
 *
 * The paper's microbenchmarks assume a perfect machine; the fault
 * sweep (ext_fault_sweep) adds uniform adversity.  This bench goes
 * further: it runs the scheduled fault campaigns of docs/FAULTS.md --
 * a 30% NACK burst, a device hang that forces the CSB into degraded
 * mode, a long NI link flap, and the combined scenario with a
 * mid-campaign crash-restart from checkpoint -- across a seed sweep,
 * and reports the recovery subsystem's scorecard: recovery rate,
 * mean time to repair, degraded-mode residency, and exactly-once
 * accounting.  Any lost or duplicated message, or any run that fails
 * to recover, fails the binary.
 */

#include "bench_common.hh"

#include "core/campaign.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    namespace core = csb::core;

    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("ext_recovery", args.json);
    core::SweepRunner runner(args.jobs);

    // Four of the built-in campaigns (docs/FAULTS.md).
    std::vector<core::CampaignScenario> scenarios;
    for (const char *name :
         {"burst-nack", "device-hang", "link-flap", "combined"})
        scenarios.push_back(core::findBuiltinScenario(name).value());
    constexpr std::uint64_t kFirstSeed = 1;
    constexpr std::uint64_t kSeeds = 6;

    // One flat point per (scenario, seed): the runner fans the whole
    // campaign matrix across its workers and collects by index, so
    // the aggregation below is order-independent of --jobs.
    std::vector<std::pair<unsigned, std::uint64_t>> points;
    for (unsigned s = 0; s < scenarios.size(); ++s)
        for (std::uint64_t i = 0; i < kSeeds; ++i)
            points.emplace_back(s, kFirstSeed + i);

    std::vector<core::CampaignResult> flat = runner.map(
        points, [&scenarios](std::pair<unsigned, std::uint64_t> pt) {
            return core::runCampaign(scenarios[pt.first], pt.second);
        });

    report.print("=== Recovery: fault campaigns, degraded modes and "
                 "crash-restart resilience ===\n");
    report.printf("(%llu seeds per scenario; a campaign recovers iff "
                  "every leg completes with exactly-once delivery and "
                  "no health violation)\n",
                  static_cast<unsigned long long>(kSeeds));
    report.print("scenario       recover   lost   dup   faults   "
                 "resets   degraded   crashes   mean-MTTR   "
                 "residency\n");
    report.beginTable(
        "Robustness scorecard: recovery rate, exactly-once accounting "
        "and repair cost per campaign scenario",
        {"recovery rate", "lost", "duplicated", "faults injected",
         "link resets", "degraded entries", "crash restarts",
         "mean MTTR (ticks)", "degraded residency"});

    bool gateOk = true;
    unsigned totalRuns = 0;
    unsigned totalRecovered = 0;
    std::uint64_t totalLost = 0;
    std::uint64_t totalDup = 0;
    double mttrSum = 0;
    unsigned mttrScenarios = 0;
    double residencySum = 0;

    for (unsigned s = 0; s < scenarios.size(); ++s) {
        std::vector<core::CampaignResult> rs(
            flat.begin() + s * kSeeds,
            flat.begin() + (s + 1) * kSeeds);
        core::CampaignSummary sum = core::summarize(rs);
        std::uint64_t crashes = 0;
        for (const core::CampaignResult &r : rs)
            crashes += r.crashed ? 1 : 0;

        report.printf("%-12s %9.2f %6llu %5llu %8llu %8llu %10llu "
                      "%9llu %11.1f %11.4f\n",
                      scenarios[s].name.c_str(), sum.recoveryRate,
                      static_cast<unsigned long long>(sum.totalLost),
                      static_cast<unsigned long long>(
                          sum.totalDuplicated),
                      static_cast<unsigned long long>(
                          sum.totalFaultsInjected),
                      static_cast<unsigned long long>(
                          sum.totalLinkResets),
                      static_cast<unsigned long long>(
                          sum.totalDegradedEntries),
                      static_cast<unsigned long long>(crashes),
                      sum.meanMttrTicks, sum.meanDegradedResidency);
        report.addRow(
            scenarios[s].name,
            {sum.recoveryRate,
             static_cast<double>(sum.totalLost),
             static_cast<double>(sum.totalDuplicated),
             static_cast<double>(sum.totalFaultsInjected),
             static_cast<double>(sum.totalLinkResets),
             static_cast<double>(sum.totalDegradedEntries),
             static_cast<double>(crashes), sum.meanMttrTicks,
             sum.meanDegradedResidency});

        gateOk = gateOk && sum.recoveredRuns == sum.runs &&
                 sum.totalLost == 0 && sum.totalDuplicated == 0;
        totalRuns += sum.runs;
        totalRecovered += sum.recoveredRuns;
        totalLost += sum.totalLost;
        totalDup += sum.totalDuplicated;
        if (sum.meanMttrTicks > 0) {
            mttrSum += sum.meanMttrTicks;
            ++mttrScenarios;
        }
        residencySum += sum.meanDegradedResidency;
    }

    double overallRate =
        totalRuns > 0 ? static_cast<double>(totalRecovered) / totalRuns
                      : 0;
    double overallMttr =
        mttrScenarios > 0 ? mttrSum / mttrScenarios : 0;
    double overallResidency =
        scenarios.empty() ? 0 : residencySum / scenarios.size();
    report.setScorecard({
        {"recovery_rate", overallRate},
        {"runs", static_cast<double>(totalRuns)},
        {"lost", static_cast<double>(totalLost)},
        {"duplicated", static_cast<double>(totalDup)},
        {"mean_mttr_ticks", overallMttr},
        {"mean_degraded_residency", overallResidency},
    });
    report.printf("(overall: %u/%u runs recovered; the combined "
                  "scenario crashes the System mid-leg and restores "
                  "the pre-leg checkpoint, and exactly-once delivery "
                  "holds because dup-suppression, retransmit and "
                  "fault-RNG state all round-trip through it.)\n\n",
                  totalRecovered, totalRuns);

    if (!gateOk) {
        std::fprintf(stderr, "recovery gate violated: a campaign run "
                             "failed to recover or lost/duplicated a "
                             "message\n");
        return report.finish(1);
    }

    return report.finish();
}
