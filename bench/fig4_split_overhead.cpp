/**
 * @file
 * Figure 4 (c)-(e): uncached store bandwidth on a 16-byte split bus
 * under increasing transaction overhead: a turnaround cycle (c) and
 * fixed-delay acknowledgments of 4 (d) and 8 (e) bus cycles.
 * Fixed: ratio 6, 64-byte block.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("fig4_split_overhead", args.json);
    csb::core::SweepRunner runner(args.jobs);

    struct Panel
    {
        const char *name;
        unsigned turnaround;
        unsigned ack;
    };
    const Panel panels[] = {
        {"Fig 4(c) turnaround 1", 1, 0},
        {"Fig 4(d) ack delay 4", 0, 4},
        {"Fig 4(e) ack delay 8", 0, 8},
    };

    for (const Panel &panel : panels) {
        printBandwidthPanel(
            report, runner,
            std::string(panel.name) + ": 16B split bus, ratio 6, 64B block",
            splitSetup(16, 6, 64, panel.turnaround, panel.ack));
    }

    return report.finish();
}
