/**
 * @file
 * The fault-campaign runner (docs/FAULTS.md).
 *
 *   tools/faultcampaign [--scenarios a,b|all] [--seeds N] [--jobs N]
 *                       [--json FILE] [--gate]
 *     Run each built-in campaign scenario across a seed sweep on a
 *     SweepRunner pool and print one robustness scorecard per
 *     scenario.  The report on stdout is byte-identical at any
 *     --jobs.  With --gate, exit 0 iff every run recovered with zero
 *     lost and zero duplicated messages.
 *
 *   tools/faultcampaign --schedule SPEC [--crash-leg N] ...
 *     Run a single custom scenario built from the flags instead of
 *     the built-in set.
 */

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hh"
#include "core/sweep.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"

namespace {

using namespace csb;

void
usage(std::ostream &os)
{
    os << "usage: faultcampaign [options]\n"
          "  --scenarios LIST   comma-separated names, or 'all' "
          "(default all)\n"
          "  --list             print scenario names and exit\n"
          "  --first-seed N     first campaign seed (default 1)\n"
          "  --seeds N          seeds per scenario (default 10)\n"
          "  --jobs N           worker threads; 0 = all cores "
          "(default 1)\n"
          "  --json FILE        also write the scorecards as JSON\n"
          "  --gate             exit 1 unless every run recovered "
          "with\n"
          "                     zero lost/duplicated messages\n"
          "custom-scenario mode (replaces the built-in set):\n"
          "  --schedule SPEC    fault schedule (docs/FAULTS.md "
          "grammar)\n"
          "  --legs N           workload legs (default 3)\n"
          "  --messages N       messages per leg (default 12)\n"
          "  --device-lines N   device lines per leg (default 4)\n"
          "  --locked           lock-protected PIO instead of the "
          "CSB\n"
          "  --crash-leg N      crash inside leg N (default: no "
          "crash)\n"
          "  --crash-ticks N    ticks into the crash leg (default "
          "20000)\n";
}

void
writeJson(std::ostream &os,
          const std::vector<core::CampaignScenario> &scenarios,
          const std::vector<std::vector<core::CampaignResult>> &results,
          const std::vector<std::uint64_t> &seeds)
{
    os << "{\n  \"scenarios\": [\n";
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        const core::CampaignScenario &sc = scenarios[s];
        core::CampaignSummary sum = core::summarize(results[s]);
        os << "    {\n      \"name\": \"" << sim::jsonEscape(sc.name)
           << "\",\n      \"schedule\": \"" << sim::jsonEscape(sc.schedule)
           << "\",\n      \"useCsb\": " << (sc.useCsb ? "true" : "false")
           << ",\n      \"crashAfterLeg\": " << sc.crashAfterLeg
           << ",\n      \"runs\": " << sum.runs
           << ",\n      \"recoveredRuns\": " << sum.recoveredRuns
           << ",\n      \"recoveryRate\": " << sum.recoveryRate
           << ",\n      \"totalLost\": " << sum.totalLost
           << ",\n      \"totalDuplicated\": " << sum.totalDuplicated
           << ",\n      \"totalFaultsInjected\": "
           << sum.totalFaultsInjected
           << ",\n      \"totalLinkResets\": " << sum.totalLinkResets
           << ",\n      \"totalDegradedEntries\": "
           << sum.totalDegradedEntries
           << ",\n      \"totalHealthViolations\": "
           << sum.totalHealthViolations
           << ",\n      \"meanMttrTicks\": " << sum.meanMttrTicks
           << ",\n      \"meanDegradedResidency\": "
           << sum.meanDegradedResidency << ",\n      \"perSeed\": [\n";
        for (std::size_t i = 0; i < results[s].size(); ++i) {
            const core::CampaignResult &r = results[s][i];
            os << "        {\"seed\": " << seeds[i]
               << ", \"recovered\": " << (r.recovered ? "true" : "false")
               << ", \"legsCompleted\": " << r.legsCompleted
               << ", \"crashed\": " << (r.crashed ? "true" : "false")
               << ", \"sent\": " << r.messagesSent
               << ", \"delivered\": " << r.delivered
               << ", \"lost\": " << r.lost
               << ", \"duplicated\": " << r.duplicated
               << ", \"faultsInjected\": " << r.faultsInjected
               << ", \"linkResets\": " << r.linkResets
               << ", \"degradedEntries\": " << r.degradedEntries
               << ", \"mttrTicks\": " << r.mttrTicks
               << ", \"healthViolations\": " << r.healthViolations
               << ", \"endTick\": " << r.endTick << "}"
               << (i + 1 < results[s].size() ? "," : "") << '\n';
        }
        os << "      ]\n    }"
           << (s + 1 < scenarios.size() ? "," : "") << '\n';
    }
    os << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenarioList = "all";
    std::uint64_t firstSeed = 1;
    std::uint64_t numSeeds = 10;
    unsigned jobs = 1;
    std::string jsonPath;
    bool gate = false;
    bool list = false;

    core::CampaignScenario custom;
    custom.name = "custom";
    bool haveCustom = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "faultcampaign: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(arg, "--scenarios")) {
            scenarioList = next();
        } else if (!std::strcmp(arg, "--list")) {
            list = true;
        } else if (!std::strcmp(arg, "--first-seed")) {
            sim::parseFlag("faultcampaign", arg, next(), firstSeed);
        } else if (!std::strcmp(arg, "--seeds")) {
            sim::parseFlag("faultcampaign", arg, next(), numSeeds);
        } else if (!std::strcmp(arg, "--jobs")) {
            sim::parseFlag("faultcampaign", arg, next(), jobs);
        } else if (!std::strcmp(arg, "--json")) {
            jsonPath = next();
        } else if (!std::strcmp(arg, "--gate")) {
            gate = true;
        } else if (!std::strcmp(arg, "--schedule")) {
            custom.schedule = next();
            haveCustom = true;
        } else if (!std::strcmp(arg, "--legs")) {
            sim::parseFlag("faultcampaign", arg, next(), custom.legs);
            haveCustom = true;
        } else if (!std::strcmp(arg, "--messages")) {
            sim::parseFlag("faultcampaign", arg, next(),
                           custom.messagesPerLeg);
            haveCustom = true;
        } else if (!std::strcmp(arg, "--device-lines")) {
            sim::parseFlag("faultcampaign", arg, next(),
                           custom.deviceLines);
            haveCustom = true;
        } else if (!std::strcmp(arg, "--locked")) {
            custom.useCsb = false;
            haveCustom = true;
        } else if (!std::strcmp(arg, "--crash-leg")) {
            sim::parseFlag("faultcampaign", arg, next(),
                           custom.crashAfterLeg);
            haveCustom = true;
        } else if (!std::strcmp(arg, "--crash-ticks")) {
            sim::parseFlag("faultcampaign", arg, next(),
                           custom.crashAfterTicks);
            haveCustom = true;
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "faultcampaign: unknown option " << arg
                      << "\n";
            usage(std::cerr);
            return 2;
        }
    }

    std::vector<core::CampaignScenario> scenarios;
    if (haveCustom) {
        scenarios.push_back(custom);
    } else {
        if (list) {
            for (const core::CampaignScenario &sc : core::builtinScenarios())
                std::cout << sc.name << '\n';
            return 0;
        }
        if (scenarioList == "all") {
            scenarios = core::builtinScenarios();
        } else {
            std::stringstream ss(scenarioList);
            std::string name;
            while (std::getline(ss, name, ',')) {
                std::optional<core::CampaignScenario> sc =
                    core::findBuiltinScenario(name);
                if (!sc) {
                    std::cerr << "faultcampaign: unknown scenario '"
                              << name << "' (try --list)\n";
                    return 2;
                }
                scenarios.push_back(std::move(*sc));
            }
        }
    }
    if (scenarios.empty()) {
        std::cerr << "faultcampaign: no scenarios selected\n";
        return 2;
    }

    if (numSeeds == 0) {
        // Zero campaigns would pass the --gate with nothing recovered.
        std::cerr << "faultcampaign: --seeds must be positive\n";
        return 2;
    }

    std::vector<std::uint64_t> seeds;
    for (std::uint64_t s = 0; s < numSeeds; ++s)
        seeds.push_back(firstSeed + s);

    core::SweepRunner runner(jobs);
    std::vector<std::vector<core::CampaignResult>> results;
    bool allRecovered = true;
    try {
        for (const core::CampaignScenario &sc : scenarios) {
            results.push_back(runner.map(
                seeds, [&sc](std::uint64_t seed) {
                    return core::runCampaign(sc, seed);
                }));
            for (const core::CampaignResult &r : results.back())
                allRecovered = allRecovered && r.recovered;
        }
    } catch (const FatalError &e) {
        std::cerr << "faultcampaign: " << e.what() << "\n";
        return 1;
    }

    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        core::renderCampaignTable(std::cout, scenarios[s], results[s],
                                  seeds);
        std::cout << '\n';
    }

    if (!jsonPath.empty()) {
        std::ofstream jf(jsonPath, std::ios::binary);
        if (!jf) {
            std::cerr << "faultcampaign: cannot write " << jsonPath
                      << "\n";
            return 1;
        }
        writeJson(jf, scenarios, results, seeds);
    }

    if (gate && !allRecovered) {
        std::cerr << "faultcampaign: GATE FAILED -- at least one run "
                     "did not recover cleanly\n";
        return 1;
    }
    return 0;
}
