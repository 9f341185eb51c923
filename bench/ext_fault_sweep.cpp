/**
 * @file
 * Extension: message traffic under injected faults.
 *
 * The paper's microbenchmarks assume a perfect bus and wire.  This
 * sweep subjects the application message workload to a seeded fault
 * plan -- bus write NACKs plus wire drops, corruptions and lost acks
 * -- and measures what the retry/retransmit machinery costs.  The
 * reliable wire protocol (sequence numbers, checksum, ack + timeout
 * retransmit, duplicate suppression) must deliver every accepted
 * message exactly once at every fault rate, or the binary fails.
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
    JsonReport report("ext_fault_sweep", args.json);
    core::SweepRunner runner(args.jobs);
    core::BandwidthSetup setup = muxSetup(6, 64);
    constexpr unsigned kMessages = 48;
    const std::vector<unsigned> sizes = core::drawSizes(
        MessageSizeDistribution::scientific(42), kMessages);

    const std::vector<double> rates = {0.0, 0.01, 0.02, 0.05, 0.10};

    report.print("=== Fault sweep: scientific message traffic under "
                 "injected bus/wire faults ===\n");
    report.print("(rate applies to bus write NACKs, wire drops, wire "
                 "corruptions and ack drops alike)\n");
    report.print("fault rate   lock+PIO   CSB PIO   bus retries   "
                 "retransmits   dups+bad-csum   exactly-once\n");
    report.beginTable("Fault sweep: send overhead per message (CPU "
                      "cycles) and recovery work vs fault rate",
                      {"lock+PIO", "CSB PIO", "bus retries",
                       "retransmits", "dups+bad-csum", "exactly-once"});

    struct RatePoint
    {
        std::string label;
        std::vector<double> values;
        bool exactlyOnce = false;
    };
    // Each fault rate is an independent pair of simulations (seeded
    // injector per System), dispatched across the runner's workers
    // and rendered into per-point buffers.
    auto rows = runner.mapRendered(
        rates, [&](double rate, std::ostream &os) {
            csb::sim::FaultPlan plan;
            plan.seed = 7;
            plan.busWriteNackRate = rate;
            plan.wireDropRate = rate;
            plan.wireCorruptRate = rate;
            plan.ackDropRate = rate;

            core::AppTrafficResult locked = core::runMessageWorkload(
                setup, /*use_csb=*/false, sizes, &plan);
            core::AppTrafficResult via_csb = core::runMessageWorkload(
                setup, /*use_csb=*/true, sizes, &plan);

            double retries = static_cast<double>(locked.busRetries +
                                                 via_csb.busRetries);
            double retrans = static_cast<double>(locked.retransmits +
                                                 via_csb.retransmits);
            double discards = static_cast<double>(
                locked.duplicatesSuppressed + locked.checksumDiscards +
                via_csb.duplicatesSuppressed + via_csb.checksumDiscards);

            RatePoint point;
            point.exactlyOnce =
                locked.exactlyOnce && via_csb.exactlyOnce;
            char label[16];
            std::snprintf(label, sizeof label, "%.2f", rate);
            point.label = label;
            point.values = {locked.cyclesPerMessage,
                            via_csb.cyclesPerMessage,
                            retries,
                            retrans,
                            discards,
                            point.exactlyOnce ? 1.0 : 0.0};
            char buf[128];
            std::snprintf(buf, sizeof buf,
                          "%9s %10.1f %9.1f %13.0f %13.0f %15.0f %14s\n",
                          label, locked.cyclesPerMessage,
                          via_csb.cyclesPerMessage, retries, retrans,
                          discards, point.exactlyOnce ? "yes" : "NO");
            os << buf;
            return point;
        });

    bool all_exactly_once = true;
    for (const auto &row : rows) {
        report.print(row.text);
        report.addRow(row.value.label, row.value.values);
        all_exactly_once = all_exactly_once && row.value.exactlyOnce;
    }
    report.print("(48 messages per run per mode; each message is "
                 "delivered exactly once at every fault rate -- the "
                 "wire protocol absorbs drops, corruptions and lost "
                 "acks, and NACKed bus writes are replayed in order.)"
                 "\n\n");

    if (!all_exactly_once) {
        std::fprintf(stderr,
                     "exactly-once delivery violated under faults!\n");
        return report.finish(1);
    }

    return report.finish();
}
