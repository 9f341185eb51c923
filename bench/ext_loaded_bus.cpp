/**
 * @file
 * Extension: uncached store bandwidth under real multi-master bus
 * contention.  The paper approximates a loaded bus with a mandatory
 * turnaround cycle (figure 3(g)); here a TrafficGenerator injects
 * actual competing memory traffic and the schemes fight for the bus
 * through round-robin arbitration.
 *
 * Expectation (and result): under load, burst transactions defend
 * their share of the bus far better than single-beat stores -- the
 * same conclusion as figure 3(g), demonstrated directly.
 */

#include "bench_common.hh"

#include "bus/traffic_generator.hh"
#include "core/kernels.hh"
#include "core/system.hh"

namespace {

using namespace csb;

/**
 * Measure I/O write bandwidth for one scheme under background load.
 * @param interval mean bus cycles between background transactions
 *                 (0 = no load)
 */
double
loadedBandwidth(core::Scheme scheme, double interval,
                unsigned transfer_bytes)
{
    core::SystemConfig cfg;
    cfg.lineBytes = 64;
    cfg.bus.kind = bus::BusKind::Multiplexed;
    cfg.bus.widthBytes = 8;
    cfg.bus.ratio = 6;
    cfg.enableCsb = scheme == core::Scheme::Csb;
    cfg.ubuf.combineBytes = core::schemeCombineBytes(scheme);
    cfg.normalize();
    core::System system(cfg);

    std::unique_ptr<bus::TrafficGenerator> tgen;
    if (interval > 0) {
        bus::TrafficGeneratorParams params;
        params.base = 0x100000;
        params.regionSize = 1 << 20;
        params.txnBytes = 64;
        params.interval = interval;
        tgen = std::make_unique<bus::TrafficGenerator>(
            system.simulator(), system.bus(), params);
        tgen->start();
    }

    isa::Program p =
        scheme == core::Scheme::Csb
            ? core::makeCsbStoreKernel(core::System::ioCsbBase,
                                       transfer_bytes, 64)
            : core::makeStoreKernel(scheme == core::Scheme::NoCombine
                                        ? core::System::ioUncachedBase
                                        : core::System::ioAccelBase,
                                    transfer_bytes);
    system.core().loadProgram(&p, 1);
    system.simulator().run(
        [&] {
            return system.core().halted() &&
                   system.uncachedBuffer().empty() &&
                   (!system.csb() || system.csb()->drained());
        },
        10'000'000);
    if (tgen)
        tgen->stop();
    system.simulator().run([&] { return system.quiescent(); }, 100000);

    return static_cast<double>(transfer_bytes) /
           static_cast<double>(system.ioWriteBusCycles());
}

} // namespace

int
main(int argc, char **argv)
{
    using core::Scheme;
    csb::bench::BenchArgs args = csb::bench::parseArgs(argc, argv);
    csb::bench::JsonReport report("ext_loaded_bus", args.json);
    core::SweepRunner runner(args.jobs);
    const std::vector<Scheme> schemes = {Scheme::NoCombine,
                                         Scheme::Combine64, Scheme::Csb};
    const std::vector<double> loads = {0.0, 8.0, 4.0, 2.0};
    constexpr unsigned transfer = 1024;

    report.print("=== I/O store bandwidth under background bus load "
                 "(1 KiB transfers, 8B mux bus, ratio 6) ===\n");
    report.print("load         no-comb    comb-64        CSB\n");
    report.beginTable("I/O store bandwidth under background bus load",
                      {"no-comb", "comb-64", "CSB"});
    // The load x scheme grid flattens into independent points; rows
    // reassemble by index, so the table is identical for any --jobs.
    std::vector<double> flat = runner.mapIndex(
        loads.size() * schemes.size(), [&](std::size_t point) {
            double load = loads[point / schemes.size()];
            Scheme scheme = schemes[point % schemes.size()];
            return loadedBandwidth(scheme, load, transfer);
        });
    for (std::size_t i = 0; i < loads.size(); ++i) {
        double load = loads[i];
        std::string label =
            load == 0 ? "idle"
                      : "1/" + std::to_string(static_cast<int>(load)) +
                            " cyc";
        report.printf("%-10s", label.c_str());
        std::vector<double> row(flat.begin() + i * schemes.size(),
                                flat.begin() + (i + 1) * schemes.size());
        for (double bw : row)
            report.printf(" %10.2f", bw);
        report.print("\n");
        report.addRow(label, row);
    }
    report.print("(bytes per bus cycle across the transfer window; "
                 "bursts defend their share, single-beat stores "
                 "lose theirs)\n\n");

    return report.finish();
}
