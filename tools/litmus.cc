/**
 * @file
 * The litmus CLI (docs/LITMUS.md).
 *
 * Two modes:
 *
 *   tools/litmus --seeds 1000 [--jobs N] [--full-matrix] ...
 *     Sweep generator seeds through the differential oracle; print the
 *     deterministic report on stdout (byte-identical at any --jobs),
 *     timing on stderr.  Exit 0 iff no seed failed -- unless
 *     --expect-failures, which inverts the condition for the
 *     drop-flush self-test.
 *
 *   tools/litmus --corpus tests/litmus/corpus
 *     Replay every checked-in regression entry.  Exit 0 iff every
 *     entry behaves as its `expect` directive says and every repro
 *     trace is reproduced byte-for-byte.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "litmus/harness.hh"
#include "sim/logging.hh"
#include "sim/parse_number.hh"

namespace {

using namespace csb;

void
usage(std::ostream &os)
{
    os << "usage: litmus [options]\n"
          "  --first-seed N       first generator seed (default 1)\n"
          "  --seeds N            number of seeds to sweep (default 100)\n"
          "  --jobs N             worker threads; 0 = all cores "
          "(default 1)\n"
          "  --time-budget SEC    soft wall-clock cap, checked between "
          "batches\n"
          "  --full-matrix        all scheme x mode x faults points per "
          "seed\n"
          "  --tokens N           mean tokens per context (default 12)\n"
          "  --drop-flush RATE    arm the CsbFlushDrop bug knob "
          "(self-test)\n"
          "  --fault-schedule S   schedule for the scheduled-fault "
          "axis\n"
          "                       (docs/FAULTS.md grammar; 'none' "
          "disables)\n"
          "  --no-shrink          report original failing cases "
          "unshrunk\n"
          "  --repro-dir DIR      write seed_<N>.litmus/.csbt repros "
          "here\n"
          "  --report FILE        also write the report to FILE\n"
          "  --expect-failures    exit 0 iff failures were found\n"
          "  --max-instructions N fail if a shrunk repro exceeds N "
          "lowered\n"
          "                       instructions\n"
          "  --corpus DIR         replay the regression corpus instead\n";
}

} // namespace

int
main(int argc, char **argv)
{
    litmus::HarnessOptions opts;
    std::string corpus_dir;
    std::string report_file;
    bool expect_failures = false;
    std::uint64_t max_instructions = 0;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::cerr << "litmus: " << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(arg, "--first-seed")) {
            sim::parseFlag("litmus", arg, value(), opts.firstSeed);
        } else if (!std::strcmp(arg, "--seeds")) {
            sim::parseFlag("litmus", arg, value(), opts.numSeeds);
        } else if (!std::strcmp(arg, "--jobs")) {
            sim::parseFlag("litmus", arg, value(), opts.jobs);
        } else if (!std::strcmp(arg, "--time-budget")) {
            sim::parseFlag("litmus", arg, value(), opts.timeBudgetSec);
        } else if (!std::strcmp(arg, "--full-matrix")) {
            opts.fullMatrix = true;
        } else if (!std::strcmp(arg, "--tokens")) {
            sim::parseFlag("litmus", arg, value(), opts.tokensPerContext);
        } else if (!std::strcmp(arg, "--drop-flush")) {
            sim::parseFlag("litmus", arg, value(), opts.dropFlushRate);
        } else if (!std::strcmp(arg, "--fault-schedule")) {
            const char *spec = value();
            opts.faultSchedule = std::strcmp(spec, "none") ? spec : "";
        } else if (!std::strcmp(arg, "--no-shrink")) {
            opts.shrinkFailures = false;
        } else if (!std::strcmp(arg, "--repro-dir")) {
            opts.reproDir = value();
        } else if (!std::strcmp(arg, "--report")) {
            report_file = value();
        } else if (!std::strcmp(arg, "--expect-failures")) {
            expect_failures = true;
        } else if (!std::strcmp(arg, "--max-instructions")) {
            sim::parseFlag("litmus", arg, value(), max_instructions);
        } else if (!std::strcmp(arg, "--corpus")) {
            corpus_dir = value();
        } else if (!std::strcmp(arg, "--help") ||
                   !std::strcmp(arg, "-h")) {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "litmus: unknown option " << arg << "\n";
            usage(std::cerr);
            return 2;
        }
    }

    try {
        if (!corpus_dir.empty()) {
            litmus::CorpusResult corpus =
                litmus::replayCorpus(corpus_dir);
            std::cout << corpus.report;
            return corpus.failures == 0 ? 0 : 1;
        }

        if (opts.numSeeds == 0) {
            std::cerr << "litmus: --seeds must be positive\n";
            return 2;
        }

        auto start = std::chrono::steady_clock::now();
        litmus::HarnessResult result = litmus::runHarness(opts);
        std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;

        std::cout << result.report;
        if (!report_file.empty()) {
            std::ofstream out(report_file);
            out << result.report;
            if (!out) {
                std::cerr << "litmus: cannot write " << report_file
                          << "\n";
                return 2;
            }
        }
        // Timing never goes into the report: the report must be
        // byte-identical across hosts and --jobs values.
        std::cerr << "litmus: " << result.seedsRun << " seeds in "
                  << elapsed.count() << " s, jobs=" << opts.jobs
                  << "\n";

        if (max_instructions > 0 &&
            result.maxShrunkInstructions > max_instructions) {
            std::cerr << "litmus: a shrunk repro has "
                      << result.maxShrunkInstructions
                      << " lowered instructions, cap was "
                      << max_instructions << "\n";
            return 1;
        }
        if (expect_failures)
            return result.seedsFailed > 0 ? 0 : 1;
        return result.seedsFailed == 0 ? 0 : 1;
    } catch (const FatalError &err) {
        std::cerr << "litmus: fatal: " << err.what() << "\n";
        return 2;
    }
}
