/**
 * @file
 * Figure 4 (a)-(b): uncached store bandwidth on a split address/data
 * bus, 128-bit (a) and 256-bit (b) data paths.  Fixed: ratio 6,
 * 64-byte block, no turnaround cycle.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("fig4_split_width", args.json);
    csb::core::SweepRunner runner(args.jobs);

    struct Panel
    {
        const char *name;
        unsigned width;
    };
    const Panel panels[] = {
        {"Fig 4(a) 16B split bus", 16},
        {"Fig 4(b) 32B split bus", 32},
    };

    for (const Panel &panel : panels) {
        printBandwidthPanel(
            report, runner,
            std::string(panel.name) +
                ": ratio 6, 64B block, no turnaround",
            splitSetup(panel.width, 6, 64));
    }

    return report.finish();
}
