/**
 * @file
 * Figure 3 (d)-(f): uncached store bandwidth on an 8-byte multiplexed
 * bus while the cache block size varies (32, 64, 128 bytes).
 * Fixed: processor:bus ratio 6, no turnaround cycle.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("fig3_mux_block", args.json);
    csb::core::SweepRunner runner(args.jobs);

    struct Panel
    {
        const char *name;
        unsigned block;
    };
    const Panel panels[] = {
        {"Fig 3(d) block 32B", 32},
        {"Fig 3(e) block 64B", 64},
        {"Fig 3(f) block 128B", 128},
    };

    for (const Panel &panel : panels) {
        printBandwidthPanel(
            report, runner,
            std::string(panel.name) +
                ": 8B multiplexed bus, ratio 6, no turnaround",
            muxSetup(6, panel.block));
    }

    return report.finish();
}
