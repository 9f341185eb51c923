/**
 * @file
 * Host-speed benchmark program (built and run by run.py).
 *
 *   hostbench --workload paper_figs|nic_messages|litmus_sweep
 *             (--seconds S | --ops N) [--seed N] [--trace 0|1]
 *             [--drop-flush RATE] [--spans-out PATH]
 *   hostbench --print-panels
 *
 * One process, one thread, closed loop: op k+1 starts when op k ends.
 * Set-up (inputs, output references, warm-up) runs once before the
 * timed loop and kSetupReps - 1 more times spread through it, outside
 * its clock; setup_s is the median.  The loop runs for --seconds of
 * wall time (or exactly --ops ops, with every set-up done first).
 *
 * --trace 0 reports the end-to-end metrics.  Their times are
 * normalized by the host-speed reference (hostspeed.hh): slices of a
 * fixed kernel run between ops and around every set-up, outside the
 * clocks, and each op and set-up time is scaled by the reference's
 * speed at that moment.  --trace 1 runs every op
 * twice, untraced and traced (alternating which goes first), checks
 * the two agree on every simulated count, and reports the per-layer
 * metrics: span self times per op, simulated counts per op, and the
 * tracing overhead (traced over untraced op time).
 *
 * Every metric is printed as "name value unit"; the last stdout line
 * is one JSON object {correct, attempted, failed, metrics}.
 * --print-panels writes the expected-panels file of paper_figs to
 * stdout instead (see printPanels).  The exit
 * code is 1 when any op failed its output check, 2 on a usage error.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hostspeed.hh"
#include "spans.hh"
#include "workloads.hh"

namespace {

using namespace hostbench;

/** Set-ups per run; setup_s is their median. */
constexpr unsigned kSetupReps = 15;
/** Untraced loop: a reference slice after an op once this much wall
 *  time has passed since the last one. */
constexpr double kSliceEverySec = 0.02;
/** Reference slices just before and just after every set-up. */
constexpr unsigned kSlicesAroundSetup = 5;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 0; ///< with ops == 0: required
    bool trace = false;
    std::uint64_t ops = 0; ///< 0: run for `seconds`
    double dropFlush = 0;
    std::string spansOut;
    bool printPanels = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hostbench: " << why << "\n"
              << "usage: hostbench --workload NAME (--seconds S | --ops N) "
                 "[--seed N] [--trace 0|1] [--drop-flush RATE] "
                 "[--spans-out PATH]\n"
                 "       hostbench --print-panels\n"
              << "workloads:";
    for (const std::string &name : workloadNames())
        std::cerr << " " << name;
    std::cerr << "\n";
    std::exit(2);
}

template <class T>
T
parseNumber(const std::string &flag, const std::string &text)
{
    std::istringstream is(text);
    T value{};
    if (!(is >> value) || !is.eof())
        usage("bad value '" + text + "' for " + flag);
    return value;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--print-panels") {
            opt.printPanels = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = parseNumber<std::uint64_t>(flag, value);
        else if (flag == "--seconds")
            opt.seconds = parseNumber<double>(flag, value);
        else if (flag == "--trace")
            opt.trace = parseNumber<int>(flag, value) != 0;
        else if (flag == "--ops")
            opt.ops = parseNumber<std::uint64_t>(flag, value);
        else if (flag == "--drop-flush")
            opt.dropFlush = parseNumber<double>(flag, value);
        else if (flag == "--spans-out")
            opt.spansOut = value;
        else
            usage("unknown flag " + flag);
    }
    if (opt.printPanels)
        return opt;
    if (opt.workload.empty())
        usage("--workload is required");
    if (opt.ops == 0 && !(opt.seconds > 0))
        usage("--seconds (positive) or --ops is required");
    return opt;
}

/** Linear-interpolated quantile @p q of @p v (sorted in place). */
double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

/** A timed interval: its midpoint on the HostSpeed clock and length. */
struct Timed
{
    double mid;
    double sec;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Run op @p op, turning an exception into a failed check. */
bool
runChecked(Workload &wl, std::uint64_t op, SimCounts &counts)
{
    try {
        return wl.runOp(op, counts);
    } catch (const std::exception &err) {
        std::cerr << "hostbench: op " << op << " threw: " << err.what()
                  << "\n";
        return false;
    }
}

/**
 * Peak resident set of this process in MiB: VmHWM, which execve
 * resets (getrusage's ru_maxrss would carry over the parent's peak).
 */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.printPanels) {
        printPanels(std::cout);
        return 0;
    }
    SpanRecorder spans;
    HostSpeed speed;
    WorkloadOptions wopts;
    wopts.seed = opt.seed;
    wopts.dropFlushRate = opt.dropFlush;

    // --- Set-up.  The first instance is the one the loop times; the
    // other kSetupReps - 1 are built and dropped at even intervals
    // through the loop (outside its clock), so the reported median
    // samples the whole run rather than one moment of host speed.
    std::vector<Timed> setups;
    auto sampleAroundSetUp = [&] {
        for (unsigned i = 0; !opt.trace && i < kSlicesAroundSetup; ++i)
            speed.sample();
    };
    auto setUp = [&] {
        sampleAroundSetUp();
        double start = speed.now();
        std::unique_ptr<Workload> w =
            makeWorkload(opt.workload, wopts, spans);
        if (!w)
            usage("unknown workload '" + opt.workload + "'");
        try {
            w->setup();
        } catch (const std::exception &err) {
            std::cerr << "hostbench: set-up threw: " << err.what() << "\n";
            std::exit(1);
        }
        double sec = speed.now() - start;
        setups.push_back({start + sec / 2, sec});
        sampleAroundSetUp();
        return w;
    };
    std::unique_ptr<Workload> wl = setUp();
    if (opt.ops) {
        while (setups.size() < kSetupReps)
            setUp();
    }

    // --- Timed closed loop.
    std::vector<Timed> opTimes;
    SimCounts total;
    std::uint64_t attempted = 0, failed = 0;
    double tracedSec = 0, untracedSec = 0, pausedSec = 0;
    Clock::time_point loopStart = Clock::now();
    auto loopSec = [&] { return secondsSince(loopStart) - pausedSec; };
    for (std::uint64_t op = 0;; ++op) {
        if (opt.ops ? op >= opt.ops
                    : op > 0 && loopSec() >= opt.seconds)
            break;
        if (setups.size() < kSetupReps &&
            loopSec() >= opt.seconds * static_cast<double>(setups.size()) /
                             kSetupReps) {
            Clock::time_point t0 = Clock::now();
            setUp();
            pausedSec += secondsSince(t0);
        }
        bool ok = true;
        if (!opt.trace) {
            SimCounts counts;
            double start = speed.now();
            ok = runChecked(*wl, op, counts);
            double sec = speed.now() - start;
            opTimes.push_back({start + sec / 2, sec});
            total += counts; // per op, as in the traced loop below
            if (speed.sinceLastSample() >= kSliceEverySec)
                speed.sample();
        } else {
            SimCounts plain, traced;
            bool plainOk = true, tracedOk = true;
            auto runPlain = [&] {
                Clock::time_point t0 = Clock::now();
                plainOk = runChecked(*wl, op, plain);
                untracedSec += secondsSince(t0);
            };
            auto runTraced = [&] {
                spans.setEnabled(true);
                spans.setOp(op);
                Clock::time_point t0 = Clock::now();
                {
                    SpanRecorder::Scope root(spans, "op");
                    tracedOk = runChecked(*wl, op, traced);
                }
                tracedSec += secondsSince(t0);
                spans.setEnabled(false);
            };
            if (op % 2) {
                runTraced();
                runPlain();
            } else {
                runPlain();
                runTraced();
            }
            if (!(plain == traced)) {
                std::cerr << "hostbench: op " << op
                          << ": traced and untraced simulated counts "
                             "differ\n";
            }
            ok = plainOk && tracedOk && plain == traced;
            total += traced;
        }
        ++attempted;
        if (!ok)
            ++failed;
    }
    double wallSec = loopSec();
    auto ops = static_cast<double>(attempted);

    // --- Metrics.
    std::vector<Metric> metrics;
    if (!opt.trace) {
        // Every time scaled by the host speed around it (hostspeed.hh).
        double opSec = 0, rawOpSec = 0;
        std::vector<double> opMs, setupSec;
        for (const Timed &t : opTimes) {
            double f = speed.factorAt(t.mid);
            opMs.push_back(t.sec * f * 1e3);
            opSec += t.sec * f;
            rawOpSec += t.sec;
        }
        for (const Timed &t : setups)
            setupSec.push_back(t.sec * speed.factorAt(t.mid));
        std::cout << "host_speed median_factor " << speed.medianFactor()
                  << " slices " << speed.samples() << " wall_ops_per_s "
                  << ops / rawOpSec << "\n";
        metrics = {
            {"ops_per_s", ops / opSec, "1/s"},
            {"op_p50_ms", quantile(opMs, 0.5), "ms"},
            {"op_p90_ms", quantile(opMs, 0.9), "ms"},
            {"sim_ticks_per_s", static_cast<double>(total.ticks) / opSec,
             "1/s"},
            {"setup_s", quantile(setupSec, 0.5), "s"},
            {"peak_rss_mb", peakRssMiB(), "MiB"},
            {"pass_ratio", (ops - static_cast<double>(failed)) / ops,
             "ratio"},
        };
    } else {
        std::map<std::string, double> self = spans.selfTimeNs();
        auto perOpMs = [&](const char *layer) {
            return self[layer] / 1e6 / ops;
        };
        double opMsMean = tracedSec * 1e3 / ops;
        double runNs = self["core.run"] + self["litmus.case"];
        auto ticks = static_cast<double>(total.ticks);
        auto perOp = [&](double v) { return v / ops; };
        metrics = {
            {"op.ms", opMsMean, "ms"},
            {"trace.overhead_ratio", ratio(tracedSec, untracedSec) - 1,
             "ratio"},
            {"bench.unaccounted_ms", perOpMs("op"), "ms"},
            {"bench.check_ms", perOpMs("bench.check"), "ms"},
            {"core.build_ms", perOpMs("core.build"), "ms"},
            {"core.teardown_ms", perOpMs("core.teardown"), "ms"},
            {"core.build_teardown_share",
             ratio(perOpMs("core.build") + perOpMs("core.teardown"),
                   opMsMean),
             "ratio"},
            {"core.systems", perOp(double(total.systems)), "count/op"},
            {"core.run_ms", perOpMs("core.run"), "ms"},
            {"sim.ns_per_tick", ratio(runNs, ticks), "ns"},
            {"sim.events", perOp(double(total.events)), "count/op"},
            {"sim.ticks", perOp(ticks), "count/op"},
            {"sim.ff_tick_share", ratio(double(total.ffTicks), ticks),
             "ratio"},
            {"isa.assemble_ms", perOpMs("isa.assemble"), "ms"},
            {"isa.insts", perOp(double(total.instsAssembled)), "count/op"},
            {"sim.ckpt_save_ms", perOpMs("sim.ckpt_save"), "ms"},
            {"sim.ckpt_restore_ms", perOpMs("sim.ckpt_restore"), "ms"},
            {"sim.ckpt_bytes", perOp(double(total.ckptBytes)), "B/op"},
            {"litmus.generate_ms", perOpMs("litmus.generate"), "ms"},
            {"litmus.case_ms", perOpMs("litmus.case"), "ms"},
            {"litmus.specs", perOp(double(total.litmusSpecs)), "count/op"},
            {"litmus.contexts", perOp(double(total.litmusContexts)),
             "count/op"},
            {"litmus.discrepancies",
             perOp(double(total.litmusDiscrepancies)), "count/op"},
            {"cpu.insts_retired", perOp(double(total.instsRetired)),
             "count/op"},
            {"cpu.ipc",
             ratio(double(total.instsRetired), double(total.cpuCycles)),
             "ratio"},
            {"cpu.io_stall_share",
             ratio(double(total.ioStallCycles), double(total.cpuCycles)),
             "ratio"},
            {"mem.ubuf_coalesce_ratio",
             ratio(double(total.ubufCoalesced), double(total.ubufStores)),
             "ratio"},
            {"mem.csb_flush_ok_ratio",
             ratio(double(total.csbFlushesOk), double(total.csbFlushes)),
             "ratio"},
            {"mem.csb_lines", perOp(double(total.csbLines)), "count/op"},
            {"mem.cache_miss_ratio",
             ratio(double(total.cacheMisses), double(total.cacheAccesses)),
             "ratio"},
            {"bus.txns", perOp(double(total.busTxns)), "count/op"},
            {"bus.bytes", perOp(double(total.busBytes)), "B/op"},
            {"bus.utilization", ratio(total.busUtilTicks, ticks), "ratio"},
            {"bus.nacks", perOp(double(total.busNacks)), "count/op"},
            {"bus.txn_latency_p50",
             ratio(total.txnLatencyP50Sum, double(total.txnLatencySystems)),
             "cycles"},
            {"io.delivered", perOp(double(total.delivered)), "count/op"},
            {"io.device_bytes", perOp(double(total.deviceBytes)), "B/op"},
        };
        if (!opt.spansOut.empty()) {
            if (spans.writeJson(opt.spansOut))
                std::cout << "spans " << spans.spans().size()
                          << " written to " << opt.spansOut << "\n";
            else
                std::cerr << "hostbench: cannot write " << opt.spansOut
                          << "\n";
        }
    }

    std::cout.precision(17);
    std::cout << "workload " << opt.workload << " seed " << opt.seed
              << " trace " << opt.trace << " ops " << attempted
              << " failed " << failed << " wall_s " << wallSec << "\n";
    std::cout << "sim_counts " << total.toJson() << "\n";
    for (const Metric &m : metrics)
        std::cout << m.name << " " << m.value << " " << m.unit << "\n";

    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << v << ", \"unit\": \""
                  << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return failed == 0 ? 0 : 1;
}
