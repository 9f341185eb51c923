/**
 * @file
 * Trace replay vs core-driven execution: record the reference stream
 * of a store-bandwidth grid (fig3-style multiplexed bus), replay every
 * point against a coreless replay-mode system, prove the tick-identity
 * contract, and measure the wall-clock speedup of skipping the core.
 *
 * The printed tables contain only deterministic quantities (bandwidth,
 * quiescence ticks, bus cycles, trace record counts and the identity
 * verdict), so the EXPERIMENTS.md splice stays byte-identical across
 * machines.  Wall-clock numbers go to the JSON artifact's tables and
 * to stderr.
 *
 * The identity check doubles as the replay regression gate:
 * `--min-replay-speedup N` makes the binary exit non-zero unless
 * replay beats live execution by at least N x over the grid (and any
 * per-point divergence fails the binary unconditionally).
 *
 * `--trace-record PREFIX` additionally writes every point's stream to
 * `PREFIX.<i>.csbt`; `--trace-replay PREFIX` feeds the replay phase
 * from those files instead of memory, exercising the on-disk CSBT
 * round trip (docs/TRACE_FORMAT.md) end to end.
 */

#include "bench_common.hh"

#include <algorithm>
#include <chrono>

#include "sim/trace_recorder.hh"

namespace {

using namespace csb::bench;
namespace core = csb::core;
namespace sim = csb::sim;
using csb::Tick;
using core::Scheme;

struct GridPoint
{
    Scheme scheme;
    unsigned bytes;
    /** Dependent ALU instructions between stores (see makeStoreKernel). */
    unsigned aluPerStore;
};

/** Record + replay result of one grid point. */
struct PointResult
{
    core::TracedRun live;
    core::TracedRun replayed;
    sim::MemTrace trace;
    bool identical = false;
};

std::vector<GridPoint>
makeGrid()
{
    // Two workload shapes per scheme: the paper's pure store-pressure
    // microbenchmark (pad 0), and its application-reality counterpart
    // with 32 dependent compute instructions per store.  Replay
    // fast-forwards across the compute, which is where trace-driven
    // simulation earns its keep.
    std::vector<GridPoint> grid;
    for (Scheme scheme :
         {Scheme::NoCombine, Scheme::Combine64, Scheme::Csb}) {
        grid.push_back({scheme, 16384u, 0u});
        grid.push_back({scheme, 16384u, 32u});
    }
    return grid;
}

std::string
pointName(const GridPoint &point)
{
    return core::schemeName(point.scheme) + "/" +
           std::to_string(point.bytes) + "B" +
           (point.aluPerStore
                ? "/pad" + std::to_string(point.aluPerStore)
                : "");
}

bool
sameRun(const core::TracedRun &a, const core::TracedRun &b)
{
    return a.endTick == b.endTick &&
           a.ioWriteBusCycles == b.ioWriteBusCycles &&
           a.ioWriteTxns == b.ioWriteTxns &&
           a.bytesPerBusCycle == b.bytesPerBusCycle &&
           a.memStatsJson == b.memStatsJson;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    BenchArgs args = parseArgs(
        argc, argv,
        {.speedupGate = "--min-replay-speedup", .traceFiles = true});
    JsonReport report("perf_replay", args.json);
    core::SweepRunner runner(args.jobs);

    // The fig3/fig5 reference machine: 8-byte multiplexed bus at
    // ratio 6, 64-byte lines.
    core::BandwidthSetup setup = muxSetup(6, 64);
    std::vector<GridPoint> grid = makeGrid();

    // Phase 1 -- record each point live, replay it, and compare the
    // determinism surfaces.  Points are independent; they dispatch
    // through the SweepRunner's workers and come back in grid order.
    std::vector<PointResult> results = runner.mapIndex(
        grid.size(), [&](std::size_t index) {
            const GridPoint &point = grid[index];
            PointResult res;
            sim::TraceRecorder recorder(1, setup.lineBytes);
            res.live = core::recordStoreBandwidth(
                setup, point.scheme, point.bytes, &recorder,
                point.aluPerStore);
            if (!args.traceRecord.empty()) {
                recorder.writeFile(args.traceRecord + "." +
                                   std::to_string(index) + ".csbt");
            }
            res.trace =
                args.traceReplay.empty()
                    ? sim::MemTrace::fromRecorder(recorder)
                    : sim::MemTrace::loadFile(args.traceReplay + "." +
                                              std::to_string(index) +
                                              ".csbt");
            res.replayed = core::replayStoreBandwidth(
                setup, point.scheme, point.bytes, res.trace);
            res.identical = sameRun(res.live, res.replayed);
            return res;
        });

    bool all_identical = true;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (results[i].identical)
            continue;
        all_identical = false;
        std::fprintf(stderr,
                     "FAIL: replay of %s diverged from live execution "
                     "(live tick %llu / %llu bus cycles, replay tick "
                     "%llu / %llu bus cycles, stats %s)\n",
                     pointName(grid[i]).c_str(),
                     static_cast<unsigned long long>(
                         results[i].live.endTick),
                     static_cast<unsigned long long>(
                         results[i].live.ioWriteBusCycles),
                     static_cast<unsigned long long>(
                         results[i].replayed.endTick),
                     static_cast<unsigned long long>(
                         results[i].replayed.ioWriteBusCycles),
                     results[i].live.memStatsJson ==
                             results[i].replayed.memStatsJson
                         ? "identical"
                         : "DIFFER");
    }

    // Phase 2 -- wall-clock.  Serial regardless of --jobs (concurrent
    // workloads would time each other's noise); best of kRepeats full
    // grid passes per mode.
    constexpr int kRepeats = 3;
    double live_s = 1e30, replay_s = 1e30;
    for (int r = 0; r < kRepeats; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        for (const GridPoint &point : grid) {
            sink(core::recordStoreBandwidth(setup, point.scheme,
                                            point.bytes, nullptr,
                                            point.aluPerStore)
                     .endTick);
        }
        live_s = std::min(live_s, secondsSince(t0));

        t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            sink(core::replayStoreBandwidth(setup, grid[i].scheme,
                                            grid[i].bytes,
                                            results[i].trace)
                     .endTick);
        }
        replay_s = std::min(replay_s, secondsSince(t0));
    }
    double speedup = replay_s > 0 ? live_s / replay_s : 0.0;

    // Deterministic text only: the per-point surfaces and the identity
    // verdict, never wall-clock.
    report.print("=== Trace replay vs live execution -- 8B multiplexed "
                 "bus, ratio 6, 64B lines ===\n");
    report.printf("%-22s%12s%12s%12s%12s%10s\n", "point", "B/cycle",
                  "end-tick", "bus-cycles", "records", "replay");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        report.printf("%-22s%12.2f%12llu%12llu%12llu%10s\n",
                      pointName(grid[i]).c_str(),
                      results[i].live.bytesPerBusCycle,
                      static_cast<unsigned long long>(
                          results[i].live.endTick),
                      static_cast<unsigned long long>(
                          results[i].live.ioWriteBusCycles),
                      static_cast<unsigned long long>(
                          results[i].trace.records().size()),
                      results[i].identical ? "exact" : "DIVERGED");
    }
    report.printf("replay identity: %s (%zu/%zu points tick-identical, "
                  "stats JSON byte-identical)\n",
                  all_identical ? "PASS" : "FAIL",
                  static_cast<std::size_t>(
                      std::count_if(results.begin(), results.end(),
                                    [](const PointResult &r) {
                                        return r.identical;
                                    })),
                  grid.size());
    report.print("(wall-clock speedup is machine-dependent and lives "
                 "in the JSON artifact's tables and on stderr, not in "
                 "this reproducible text.)\n\n");

    std::fprintf(stderr,
                 "replay: live %.4f s, replay %.4f s over %zu points "
                 "-> speedup %.1fx\n",
                 live_s, replay_s, grid.size(), speedup);

    report.beginTable("Replay wall-clock on this machine (varies by "
                      "host; the speedup is the regression gate)",
                      {"seconds"});
    report.addRow("live-grid", {live_s});
    report.addRow("replay-grid", {replay_s});
    report.beginTable("Replay speedup vs core-driven execution "
                      "(acceptance: >= 5x)",
                      {"speedup"});
    report.addRow("grid", {speedup});

    if (!all_identical)
        return report.finish(1);
    if (args.minSpeedup > 0 && speedup < args.minSpeedup) {
        std::fprintf(stderr,
                     "FAIL: replay speedup %.2fx below required %.2fx\n",
                     speedup, args.minSpeedup);
        return report.finish(1);
    }
    return report.finish();
}
