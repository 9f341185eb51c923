/**
 * @file
 * Figure 5 (b): CPU cycles of a lock/access/unlock sequence versus
 * the CSB atomic access, when the lock misses the caches (~100-cycle
 * memory latency).  8-byte multiplexed bus, ratio 6, 64-byte block.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    namespace core = csb::core;

    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("fig5_lock_miss", args.json);
    core::SweepRunner runner(args.jobs);

    printLatencyPanel(
        report, runner,
        "Fig 5(b): lock misses all caches -- 8B multiplexed bus, ratio 6",
        muxSetup(6, 64), /*lock_miss=*/true);

    return report.finish();
}
