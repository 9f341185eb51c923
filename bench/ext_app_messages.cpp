/**
 * @file
 * Extension: the paper's stated next step -- realistic application
 * message traffic instead of maximum-pressure microbenchmarks.
 *
 * Message sizes are drawn from the distribution the paper cites
 * (Mukherjee & Hill: parallel scientific applications average 19-230
 * bytes per message), plus a control/bulk bimodal mix, and sent
 * through the network interface with lock-protected conventional PIO
 * versus lock-free CSB PIO.  The metric is CPU cycles of send
 * overhead per message -- the quantity the NOW study found program
 * performance is most sensitive to (paper section 2).
 */

#include "bench_common.hh"

#include "core/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    namespace core = csb::core;
    using core::MessageSizeDistribution;

    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("ext_app_messages", args.json);
    core::SweepRunner runner(args.jobs);
    core::BandwidthSetup setup = muxSetup(6, 64);
    constexpr unsigned kMessages = 48;

    struct Workload
    {
        const char *name;
        std::vector<unsigned> sizes;
    };
    const std::vector<Workload> workloads = {
        {"scientific (19-230B uniform)",
         core::drawSizes(MessageSizeDistribution::scientific(42),
                         kMessages)},
        {"control-heavy bimodal (80% 32B / 20% 512B)",
         core::drawSizes(
             MessageSizeDistribution::bimodal(32, 512, 0.8, 43),
             kMessages)},
        {"fixed 64B", core::drawSizes(MessageSizeDistribution::fixed(64),
                                      kMessages)},
        {"fixed 230B",
         core::drawSizes(MessageSizeDistribution::fixed(230),
                         kMessages)},
    };

    report.print("=== Application message traffic: send overhead per "
                 "message (CPU cycles) ===\n");
    report.print("workload                                     lock+PIO"
                 "    CSB PIO    speedup\n");
    report.beginTable("Application message traffic: send overhead per "
                      "message (CPU cycles)",
                      {"lock+PIO", "CSB PIO", "speedup"});
    struct ModeResults
    {
        core::AppTrafficResult locked;
        core::AppTrafficResult viaCsb;
    };
    // Each workload point runs both send modes in its own pair of
    // Systems and renders its row into a per-point buffer.
    auto rows = runner.mapRendered(
        workloads, [&](const Workload &workload, std::ostream &os) {
            ModeResults r;
            r.locked = core::runMessageWorkload(setup, /*use_csb=*/false,
                                                workload.sizes);
            r.viaCsb = core::runMessageWorkload(setup, /*use_csb=*/true,
                                                workload.sizes);
            char buf[96];
            std::snprintf(buf, sizeof buf, "%-44s %8.1f %10.1f %9.2fx\n",
                          workload.name, r.locked.cyclesPerMessage,
                          r.viaCsb.cyclesPerMessage,
                          r.locked.cyclesPerMessage /
                              r.viaCsb.cyclesPerMessage);
            os << buf;
            return r;
        });
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const ModeResults &r = rows[i].value;
        report.print(rows[i].text);
        report.addRow(workloads[i].name,
                      {r.locked.cyclesPerMessage,
                       r.viaCsb.cyclesPerMessage,
                       r.locked.cyclesPerMessage /
                           r.viaCsb.cyclesPerMessage});
        if (r.locked.delivered != workloads[i].sizes.size() ||
            r.viaCsb.delivered != workloads[i].sizes.size()) {
            std::fprintf(stderr, "message count mismatch!\n");
            return report.finish(1);
        }
    }
    report.print("(48 messages per run; every message delivered by the "
                 "NI in both modes.  The CSB's advantage holds on "
                 "application-like traffic, not just the paper's "
                 "maximum-pressure loops.)\n\n");

    return report.finish();
}
