/**
 * @file
 * Section 5 extension: quantify the PIO-vs-DMA break-even point the
 * paper argues the CSB shifts towards larger messages.  For each
 * message size, measure send latency (first instruction to last
 * payload byte on the wire) for lock-protected PIO, CSB PIO and
 * descriptor-initiated DMA.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    namespace core = csb::core;

    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("ext_pio_vs_dma", args.json);
    core::SweepRunner runner(args.jobs);
    core::BandwidthSetup setup = muxSetup(6, 64);
    const std::vector<unsigned> sizes = {16,  32,  64,   128, 256,
                                         512, 1024, 2048, 4096};

    report.print("=== PIO vs DMA send latency (CPU cycles) -- "
                 "8B multiplexed bus, ratio 6, 64B line ===\n");
    report.print("bytes       lock+PIO    CSB+PIO        DMA\n");
    report.beginTable("PIO vs DMA send latency (CPU cycles)",
                      {"lock+PIO", "CSB+PIO", "DMA"});
    // One independent simulation per message size; each point renders
    // its row into a private buffer and the main thread splices them
    // back in size order.
    auto rows = runner.mapRendered(
        sizes, [&](unsigned size, std::ostream &os) {
            core::MessageLatency lat =
                core::measureMessageLatency(setup, size);
            char buf[80];
            std::snprintf(buf, sizeof buf, "%-8u %10.0f %10.0f %10.0f\n",
                          size, lat.pioLockedCycles, lat.pioCsbCycles,
                          lat.dmaCycles);
            os << buf;
            return lat;
        });

    unsigned crossover_locked = 0;
    unsigned crossover_csb = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
        const core::MessageLatency &lat = rows[i].value;
        report.print(rows[i].text);
        report.addRow(std::to_string(sizes[i]),
                      {lat.pioLockedCycles, lat.pioCsbCycles,
                       lat.dmaCycles});
        if (crossover_locked == 0 && lat.dmaCycles < lat.pioLockedCycles)
            crossover_locked = sizes[i];
        if (crossover_csb == 0 && lat.dmaCycles < lat.pioCsbCycles)
            crossover_csb = sizes[i];
    }
    report.print("\nDMA overtakes lock-protected PIO at: " +
                 (crossover_locked ? std::to_string(crossover_locked)
                                   : std::string("never (in range)")) +
                 " bytes\n");
    report.print("DMA overtakes CSB PIO at:            " +
                 (crossover_csb ? std::to_string(crossover_csb)
                                : std::string("never (in range)")) +
                 " bytes\n");
    report.print("(the CSB moves the PIO/DMA break-even point towards "
                 "bigger messages -- paper section 5)\n\n");

    return report.finish();
}
