/**
 * @file
 * Sweep-engine microbenchmark: wall-clock throughput of the same
 * bandwidth-sweep grid run serially (--jobs 1 path) and through the
 * SweepRunner worker pool, plus a byte-level determinism check that
 * the two produce identical results.
 *
 * The printed tables contain only deterministic quantities (grid
 * shape, point counts, the identical-results verdict), so the
 * EXPERIMENTS.md splice stays byte-identical across machines and
 * --jobs values.  Wall-clock seconds, the measured speedup and the
 * worker count go to the JSON artifact's tables and to stderr.
 *
 * The speedup doubles as the parallel-sweep regression gate:
 * `--min-sweep-speedup N` makes the binary exit non-zero unless the
 * pool beats the serial path by at least N x.  Hosts with fewer than
 * 4 hardware threads skip the gate (a 1-core CI box cannot show a
 * parallel speedup); the determinism check always runs.
 */

#include "bench_common.hh"

#include <chrono>

#include "sim/thread_pool.hh"

namespace {

using namespace csb;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** The grid: every scheme x transfer size at three CPU:bus ratios. */
struct GridPoint
{
    core::BandwidthSetup setup;
    core::Scheme scheme;
    unsigned size;
};

std::vector<GridPoint>
buildGrid()
{
    std::vector<GridPoint> grid;
    for (unsigned ratio : {2u, 6u, 10u}) {
        core::BandwidthSetup setup = bench::muxSetup(ratio, 64);
        for (core::Scheme scheme :
             core::schemesForLine(setup.lineBytes)) {
            for (unsigned size : core::defaultTransferSizes())
                grid.push_back({setup, scheme, size});
        }
    }
    return grid;
}

std::vector<double>
runGrid(core::SweepRunner &runner, const std::vector<GridPoint> &grid,
        double &seconds)
{
    auto t0 = std::chrono::steady_clock::now();
    std::vector<double> results =
        runner.map(grid, [](const GridPoint &point) {
            return core::measureStoreBandwidth(point.setup, point.scheme,
                                               point.size);
        });
    seconds = secondsSince(t0);
    return results;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace csb::bench;

    BenchArgs args =
        parseArgs(argc, argv, {.speedupGate = "--min-sweep-speedup"});
    JsonReport report("perf_sweep", args.json);
    unsigned jobs = core::resolveJobs(args.jobs);

    const std::vector<GridPoint> grid = buildGrid();

    double serial_s = 0, parallel_s = 0;
    core::SweepRunner serial(1);
    std::vector<double> serial_results = runGrid(serial, grid, serial_s);

    core::SweepRunner pool(jobs);
    std::vector<double> pool_results = runGrid(pool, grid, parallel_s);

    bool identical = serial_results == pool_results;
    double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;

    // Deterministic text only: the grid shape and the determinism
    // verdict, never wall-clock or the machine's thread count.
    report.print("=== Parallel sweep engine ===\n");
    report.printf("grid: %zu independent simulations (3 ratios x %zu "
                  "schemes x %zu transfer sizes), one System each\n",
                  grid.size(),
                  core::schemesForLine(64).size(),
                  core::defaultTransferSizes().size());
    report.printf("serial vs pooled results identical: %s\n",
                  identical ? "yes" : "NO");
    report.print("(results are collected by point index, never by "
                 "completion order, so artifacts are byte-identical "
                 "for any --jobs value.  Wall-clock seconds and the "
                 "measured speedup are machine-dependent and live in "
                 "the JSON artifact's tables and on stderr.)\n\n");

    // Machine-dependent numbers: stderr for humans, artifact tables
    // for the perf trajectory.
    std::fprintf(stderr,
                 "sweep: %zu points, serial %.3f s, %u-worker pool "
                 "%.3f s -> speedup %.2fx\n",
                 grid.size(), serial_s, jobs, parallel_s, speedup);

    report.beginTable("Sweep wall-clock on this machine (varies by "
                      "host and --jobs; the speedup is the "
                      "bench_sweep_smoke gate on >= 4-thread hosts)",
                      {"seconds", "points_per_sec"});
    report.addRow("serial", {serial_s,
                             serial_s > 0 ? grid.size() / serial_s : 0});
    report.addRow("pooled", {parallel_s,
                             parallel_s > 0 ? grid.size() / parallel_s
                                            : 0});
    report.beginTable("Sweep speedup vs serial (workers = --jobs, "
                      "default one per hardware thread)",
                      {"speedup", "workers"});
    report.addRow("sweep", {speedup, double(jobs)});

    if (!identical) {
        std::fprintf(stderr,
                     "FAIL: pooled sweep diverged from serial sweep\n");
        return report.finish(1);
    }

    if (args.minSpeedup > 0) {
        if (sim::ThreadPool::defaultThreads() < 4) {
            std::fprintf(stderr,
                         "SKIP: sweep-speedup gate needs >= 4 hardware "
                         "threads (this host has %u)\n",
                         sim::ThreadPool::defaultThreads());
        } else if (speedup < args.minSpeedup) {
            std::fprintf(stderr,
                         "FAIL: sweep speedup %.2fx below required "
                         "%.2fx\n",
                         speedup, args.minSpeedup);
            return report.finish(1);
        }
    }
    return report.finish();
}
