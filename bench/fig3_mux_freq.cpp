/**
 * @file
 * Figure 3 (a)-(c): uncached store bandwidth on an 8-byte multiplexed
 * bus while the processor:bus frequency ratio varies (2, 6, 10).
 * Fixed: 32-byte block, no turnaround cycle (the combining schemes'
 * asymptote of one cache line per 5 bus cycles identifies the block).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("fig3_mux_freq", args.json);
    csb::core::SweepRunner runner(args.jobs);

    struct Panel
    {
        const char *name;
        unsigned ratio;
    };
    const Panel panels[] = {
        {"Fig 3(a) ratio 2", 2},
        {"Fig 3(b) ratio 6", 6},
        {"Fig 3(c) ratio 10", 10},
    };

    for (const Panel &panel : panels) {
        printBandwidthPanel(
            report, runner,
            std::string(panel.name) +
                ": 8B multiplexed bus, 32B block, no turnaround",
            muxSetup(panel.ratio, 32));
    }

    return report.finish();
}
