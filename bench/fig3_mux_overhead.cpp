/**
 * @file
 * Figure 3 (g)-(i): uncached store bandwidth on an 8-byte multiplexed
 * bus under increasing bus transaction overhead: a mandatory
 * turnaround cycle (g) and fixed-delay acknowledgments of 4 (h) and
 * 8 (i) bus cycles.  Fixed: ratio 6, 64-byte block.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("fig3_mux_overhead", args.json);
    csb::core::SweepRunner runner(args.jobs);

    struct Panel
    {
        const char *name;
        unsigned turnaround;
        unsigned ack;
    };
    const Panel panels[] = {
        {"Fig 3(g) turnaround 1", 1, 0},
        {"Fig 3(h) ack delay 4", 0, 4},
        {"Fig 3(i) ack delay 8", 0, 8},
    };

    for (const Panel &panel : panels) {
        printBandwidthPanel(
            report, runner,
            std::string(panel.name) +
                ": 8B multiplexed bus, ratio 6, 64B block",
            muxSetup(6, 64, panel.turnaround, panel.ack));
    }

    return report.finish();
}
