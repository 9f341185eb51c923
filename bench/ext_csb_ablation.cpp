/**
 * @file
 * Ablation studies of the CSB design choices called out in DESIGN.md:
 *
 *  1. one vs. two line buffers (section 3.2's pipelining extension),
 *     measured where the CPU -- not the bus -- is the bottleneck
 *     (low CPU:bus ratio);
 *  2. full-line flush vs. the relaxed partial flush (buses that
 *     support multiple burst sizes), measured on sub-line transfers;
 *  3. conditional-flush latency sensitivity of the figure 5 metric.
 */

#include "bench_common.hh"

#include "core/kernels.hh"
#include "core/system.hh"

namespace {

using namespace csb;

double
csbBandwidth(unsigned ratio, unsigned line_buffers, bool partial_flush,
             unsigned transfer_bytes)
{
    core::SystemConfig cfg;
    cfg.lineBytes = 64;
    cfg.bus.kind = bus::BusKind::Multiplexed;
    cfg.bus.widthBytes = 8;
    cfg.bus.ratio = ratio;
    cfg.enableCsb = true;
    cfg.csb.numLineBuffers = line_buffers;
    cfg.csb.partialFlush = partial_flush;
    cfg.normalize();
    core::System system(cfg);
    isa::Program p =
        core::makeCsbStoreKernel(core::System::ioCsbBase, transfer_bytes,
                                 64);
    system.run(p);
    return static_cast<double>(transfer_bytes) /
           static_cast<double>(system.ioWriteBusCycles());
}

/**
 * CPU-side completion time (mark-to-mark) of a multi-line CSB
 * sequence: with one line buffer the next group's stores stall until
 * the flushed line is handed to the bus, so a second buffer shortens
 * the CPU's critical path even when bus throughput is unchanged.
 */
double
csbCpuCompletion(unsigned ratio, unsigned line_buffers,
                 unsigned transfer_bytes)
{
    core::SystemConfig cfg;
    cfg.lineBytes = 64;
    cfg.bus.kind = bus::BusKind::Multiplexed;
    cfg.bus.widthBytes = 8;
    cfg.bus.ratio = ratio;
    cfg.enableCsb = true;
    cfg.csb.numLineBuffers = line_buffers;
    cfg.normalize();
    core::System system(cfg);
    isa::Program p =
        core::makeCsbStoreKernel(core::System::ioCsbBase, transfer_bytes,
                                 64);
    system.run(p);
    return static_cast<double>(system.core().markTime(1) -
                               system.core().markTime(0));
}

double
csbLatency(Tick flush_latency, unsigned n_dwords)
{
    core::SystemConfig cfg;
    cfg.lineBytes = 64;
    cfg.bus.kind = bus::BusKind::Multiplexed;
    cfg.bus.widthBytes = 8;
    cfg.bus.ratio = 6;
    cfg.enableCsb = true;
    cfg.core.csbFlushLatency = flush_latency;
    cfg.normalize();
    core::System system(cfg);
    isa::Program p =
        core::makeCsbSequenceKernel(core::System::ioCsbBase, n_dwords);
    system.run(p);
    return static_cast<double>(system.core().markTime(1) -
                               system.core().markTime(0));
}

} // namespace

int
main(int argc, char **argv)
{
    csb::bench::BenchArgs args = csb::bench::parseArgs(argc, argv);
    csb::bench::JsonReport report("ext_csb_ablation", args.json);
    core::SweepRunner runner(args.jobs);

    struct GridPoint
    {
        unsigned ratio;
        unsigned bytes;
    };

    report.print("=== Ablation 1a: CSB line buffers -- bus bandwidth "
                 "(8B mux bus) ===\n");
    report.print("ratio   transfer   1-buffer   2-buffer  "
                 "(B/bus-cycle)\n");
    report.beginTable("Ablation 1a: CSB line buffers -- bus bandwidth",
                      {"1-buffer", "2-buffer"});
    {
        std::vector<GridPoint> grid;
        for (unsigned ratio : {1u, 2u, 6u})
            for (unsigned bytes : {256u, 1024u})
                grid.push_back({ratio, bytes});
        auto rows = runner.mapRendered(
            grid, [](const GridPoint &g, std::ostream &os) {
                double one = csbBandwidth(g.ratio, 1, false, g.bytes);
                double two = csbBandwidth(g.ratio, 2, false, g.bytes);
                char buf[64];
                std::snprintf(buf, sizeof buf,
                              "%-7u %-10u %10.2f %10.2f\n", g.ratio,
                              g.bytes, one, two);
                os << buf;
                return std::pair<double, double>{one, two};
            });
        for (std::size_t i = 0; i < grid.size(); ++i) {
            report.print(rows[i].text);
            report.addRow("ratio" + std::to_string(grid[i].ratio) + "/" +
                              std::to_string(grid[i].bytes),
                          {rows[i].value.first, rows[i].value.second});
        }
    }
    report.print("(bus throughput is bus-limited either way)\n\n");

    report.print("=== Ablation 1b: CSB line buffers -- CPU completion "
                 "(8B mux bus) ===\n");
    report.print("ratio   transfer   1-buffer   2-buffer  "
                 "(CPU cycles)\n");
    report.beginTable("Ablation 1b: CSB line buffers -- CPU completion",
                      {"1-buffer", "2-buffer"});
    {
        std::vector<GridPoint> grid;
        for (unsigned ratio : {2u, 6u})
            for (unsigned bytes : {128u, 256u, 512u})
                grid.push_back({ratio, bytes});
        auto rows = runner.mapRendered(
            grid, [](const GridPoint &g, std::ostream &os) {
                double one = csbCpuCompletion(g.ratio, 1, g.bytes);
                double two = csbCpuCompletion(g.ratio, 2, g.bytes);
                char buf[64];
                std::snprintf(buf, sizeof buf,
                              "%-7u %-10u %10.0f %10.0f\n", g.ratio,
                              g.bytes, one, two);
                os << buf;
                return std::pair<double, double>{one, two};
            });
        for (std::size_t i = 0; i < grid.size(); ++i) {
            report.print(rows[i].text);
            report.addRow("ratio" + std::to_string(grid[i].ratio) + "/" +
                              std::to_string(grid[i].bytes),
                          {rows[i].value.first, rows[i].value.second});
        }
    }
    report.print("(the second line buffer removes the stall of the next "
                 "group's stores behind a flushed-but-unsent line -- the "
                 "pipelining extension of section 3.2)\n\n");

    report.print("=== Ablation 2: full-line vs partial flush "
                 "(ratio 6) ===\n");
    report.print("transfer   full-line    partial\n");
    report.beginTable("Ablation 2: full-line vs partial flush",
                      {"full-line", "partial"});
    {
        const std::vector<unsigned> sizes = {8u, 16u, 32u, 64u, 256u};
        auto rows = runner.mapRendered(
            sizes, [](unsigned bytes, std::ostream &os) {
                double full = csbBandwidth(6, 1, false, bytes);
                double partial = csbBandwidth(6, 1, true, bytes);
                char buf[64];
                std::snprintf(buf, sizeof buf, "%-10u %10.2f %10.2f\n",
                              bytes, full, partial);
                os << buf;
                return std::pair<double, double>{full, partial};
            });
        for (std::size_t i = 0; i < sizes.size(); ++i) {
            report.print(rows[i].text);
            report.addRow(std::to_string(sizes[i]),
                          {rows[i].value.first, rows[i].value.second});
        }
    }
    report.print("(partial flush removes the sub-line padding penalty "
                 "when the bus supports multiple burst sizes)\n\n");

    report.print("=== Ablation 3: conditional-flush latency vs figure 5 "
                 "metric (8 dwords) ===\n");
    report.print("flush-latency   cycles\n");
    report.beginTable("Ablation 3: conditional-flush latency vs "
                      "figure 5 metric",
                      {"cycles"});
    {
        const std::vector<csb::Tick> lats = {1u, 2u, 4u, 8u};
        auto rows = runner.mapRendered(
            lats, [](csb::Tick lat, std::ostream &os) {
                double cycles = csbLatency(lat, 8);
                char buf[48];
                std::snprintf(buf, sizeof buf, "%-15llu %7.0f\n",
                              static_cast<unsigned long long>(lat),
                              cycles);
                os << buf;
                return cycles;
            });
        for (std::size_t i = 0; i < lats.size(); ++i) {
            report.print(rows[i].text);
            report.addRow(std::to_string(lats[i]), {rows[i].value});
        }
    }
    report.print("\n");

    return report.finish();
}
