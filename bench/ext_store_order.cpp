/**
 * @file
 * Extension: sensitivity to store ORDER -- the CSB's real edge over
 * hardware pattern detection.
 *
 * The paper's related-work section notes the R10000's accelerated
 * buffer "is limited to strictly sequential access patterns" and that
 * hardware-transparent schemes "fail if the sequence of stores is
 * interrupted".  This bench streams the same bytes in ascending vs
 * shuffled per-line order through three mechanisms:
 *
 *   - seq-only:  R10000-style pattern-detecting combining
 *   - block:     idealized any-order block combining
 *   - CSB:       software-controlled combining
 *
 * The CSB is order-blind by construction ("combining stores can be
 * issued in any order", section 3.2); the pattern detector collapses
 * to single-beat transfers on shuffled code.
 */

#include "bench_common.hh"

#include "core/kernels.hh"
#include "core/system.hh"
#include "mem/uncached_buffer.hh"

namespace {

using namespace csb;

enum class Mechanism { SeqOnly, Block, Csb };

double
orderBandwidth(Mechanism mechanism, bool shuffled,
               unsigned transfer_bytes)
{
    core::SystemConfig cfg;
    cfg.lineBytes = 64;
    cfg.bus.kind = bus::BusKind::Multiplexed;
    cfg.bus.widthBytes = 8;
    cfg.bus.ratio = 6;
    cfg.enableCsb = mechanism == Mechanism::Csb;
    if (mechanism != Mechanism::Csb) {
        cfg.ubuf.combineBytes = 64;
        cfg.ubuf.policy = mechanism == Mechanism::SeqOnly
                              ? mem::CombinePolicy::SequentialOnly
                              : mem::CombinePolicy::Block;
    }
    cfg.normalize();
    core::System system(cfg);

    constexpr std::uint64_t seed = 2026;
    isa::Program p;
    if (mechanism == Mechanism::Csb) {
        p = shuffled
                ? core::makeShuffledCsbStoreKernel(
                      core::System::ioCsbBase, transfer_bytes, 64, seed)
                : core::makeCsbStoreKernel(core::System::ioCsbBase,
                                           transfer_bytes, 64);
    } else {
        p = shuffled
                ? core::makeShuffledStoreKernel(
                      core::System::ioAccelBase, transfer_bytes, 64,
                      seed)
                : core::makeStoreKernel(core::System::ioAccelBase,
                                        transfer_bytes);
    }
    system.run(p);
    return static_cast<double>(transfer_bytes) /
           static_cast<double>(system.ioWriteBusCycles());
}

const char *
mechanismName(Mechanism mechanism)
{
    switch (mechanism) {
      case Mechanism::SeqOnly: return "seq-only";
      case Mechanism::Block: return "block";
      case Mechanism::Csb: return "CSB";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    csb::bench::BenchArgs args = csb::bench::parseArgs(argc, argv);
    csb::bench::JsonReport report("ext_store_order", args.json);
    core::SweepRunner runner(args.jobs);
    constexpr unsigned transfer = 1024;
    const std::vector<Mechanism> mechanisms = {
        Mechanism::SeqOnly, Mechanism::Block, Mechanism::Csb};

    report.print("=== Store-order sensitivity (1 KiB, 8B mux bus, "
                 "ratio 6, 64B line) ===\n");
    report.print("mechanism   ascending   shuffled   order penalty\n");
    report.beginTable("Store-order sensitivity",
                      {"ascending", "shuffled", "order penalty %"});
    struct OrderPoint
    {
        double seq = 0;
        double shuf = 0;
        double penalty = 0;
    };
    auto rows = runner.mapRendered(
        mechanisms, [&](Mechanism mechanism, std::ostream &os) {
            OrderPoint point;
            point.seq = orderBandwidth(mechanism, false, transfer);
            point.shuf = orderBandwidth(mechanism, true, transfer);
            point.penalty = 100.0 * (1.0 - point.shuf / point.seq);
            char buf[80];
            std::snprintf(buf, sizeof buf, "%-11s %9.2f %10.2f %12.0f%%\n",
                          mechanismName(mechanism), point.seq, point.shuf,
                          point.penalty);
            os << buf;
            return point;
        });
    for (std::size_t i = 0; i < mechanisms.size(); ++i) {
        const OrderPoint &point = rows[i].value;
        report.print(rows[i].text);
        report.addRow(mechanismName(mechanisms[i]),
                      {point.seq, point.shuf, point.penalty});
    }
    report.print("(bytes per bus cycle.  Pattern-detecting hardware "
                 "loses its combining on shuffled stores; the "
                 "software-controlled CSB is order-blind.)\n\n");

    return report.finish();
}
