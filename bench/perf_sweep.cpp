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
 * pool beats the serial path by at least N x.  One grid takes only a
 * few milliseconds, too little for pool start-up and scheduling noise
 * not to dominate a wall-clock ratio, so each timed pass runs the
 * grid kRepeats times over and each side keeps its fastest of
 * kPasses interleaved passes (about 0.2 s of serial work in all).  Hosts with fewer than
 * 4 hardware threads skip the gate (a 1-core CI box cannot show a
 * parallel speedup); the determinism check always runs.
 */

#include "bench_common.hh"

#include <algorithm>
#include <chrono>

#include "sim/thread_pool.hh"

namespace {

using namespace csb;

/** Grid repetitions per timed pass. */
constexpr unsigned kRepeats = 16;
/** Timed passes per side; the fastest one counts. */
constexpr unsigned kPasses = 3;

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

/** One timed pass: the grid kRepeats times over, as one sweep. */
std::vector<double>
runPass(core::SweepRunner &runner, const std::vector<GridPoint> &grid,
        double &seconds)
{
    auto t0 = std::chrono::steady_clock::now();
    std::vector<double> results =
        runner.mapIndex(kRepeats * grid.size(), [&](std::size_t i) {
            const GridPoint &point = grid[i % grid.size()];
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

    BenchArgs args = parseArgs(argc, argv, "--min-sweep-speedup");
    JsonReport report("perf_sweep", args.json);
    unsigned jobs = core::resolveJobs(args.jobs);

    const std::vector<GridPoint> grid = buildGrid();

    // Interleave the sides so a slow phase of the host hits both.
    core::SweepRunner serial(1);
    core::SweepRunner pool(jobs);
    double serial_s = 0, parallel_s = 0;
    std::vector<double> serial_results;
    bool identical = true;
    for (unsigned pass = 0; pass < kPasses; ++pass) {
        double s = 0, p = 0;
        std::vector<double> serial_pass = runPass(serial, grid, s);
        std::vector<double> pool_pass = runPass(pool, grid, p);
        if (pass == 0)
            serial_results = serial_pass;
        identical = identical && serial_pass == serial_results &&
                    pool_pass == serial_results;
        serial_s = pass == 0 ? s : std::min(serial_s, s);
        parallel_s = pass == 0 ? p : std::min(parallel_s, p);
    }
    double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
    const std::size_t timed_points = kRepeats * grid.size();

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
                 "sweep: %zu points per pass (grid x %u), best of %u "
                 "passes: serial %.3f s, %u-worker pool %.3f s -> "
                 "speedup %.2fx\n",
                 timed_points, kRepeats, kPasses, serial_s, jobs,
                 parallel_s, speedup);

    report.beginTable("Sweep wall-clock on this machine (varies by "
                      "host and --jobs; the speedup is the "
                      "bench_sweep_smoke gate on >= 4-thread hosts)",
                      {"seconds", "points_per_sec"});
    report.addRow("serial", {serial_s,
                             serial_s > 0 ? timed_points / serial_s : 0});
    report.addRow("pooled", {parallel_s,
                             parallel_s > 0 ? timed_points / parallel_s
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
