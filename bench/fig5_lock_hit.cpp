/**
 * @file
 * Figure 5 (a): CPU cycles of a lock/access/unlock sequence versus
 * the CSB atomic access, when the lock hits in the L1 cache.
 * 8-byte multiplexed bus, ratio 6, 64-byte block.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace csb::bench;
    namespace core = csb::core;

    BenchArgs args = parseArgs(argc, argv);
    JsonReport report("fig5_lock_hit", args.json);
    core::SweepRunner runner(args.jobs);

    printLatencyPanel(
        report, runner,
        "Fig 5(a): lock hits in L1 -- 8B multiplexed bus, ratio 6",
        muxSetup(6, 64), /*lock_miss=*/false);

    return report.finish();
}
