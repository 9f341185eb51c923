/**
 * @file
 * Shared plumbing of the figure-regeneration benchmark binaries: the
 * one command-line parser every main() calls (parseArgs), the
 * JsonReport that prints the paper-style tables and records them for
 * the `--json` artifact, and the sweep-panel helpers.
 *
 * Each binary runs every data point of its figure panel group once
 * -- the simulations are deterministic -- and prints the tables; the
 * artifact carries the same numbers in machine-readable form.
 */

#ifndef CSB_BENCH_COMMON_HH
#define CSB_BENCH_COMMON_HH

#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hh"
#include "core/sweep.hh"
#include "sim/json.hh"
#include "sim/parse_number.hh"

namespace csb::bench {

/** A bench binary's command line, as parsed by parseArgs(). */
struct BenchArgs
{
    /**
     * `--jobs N`: worker count of the binary's SweepRunner.  0 means
     * auto (one per hardware thread) and is the default, 1 is the
     * exact serial path.  Results are byte-identical for every value
     * -- the runner collects by point index -- so the flag only
     * changes wall-clock.
     */
    unsigned jobs = 0;
    /** `--json PATH`: also write a csbsim-bench-1 artifact there. */
    std::string json;
    /** The bench's `--min-*-speedup X` wall-clock gate; 0 = off. */
    double minSpeedup = 0;
};

/**
 * Parse a bench binary's command line: `--jobs`, `--json` and, when
 * @p speedup_gate names one (e.g. "--min-churn-speedup"), the bench's
 * wall-clock gate, each as `--flag VALUE` or `--flag=VALUE`.  Any other
 * argument, a missing value or a malformed number prints what is
 * wrong plus the usage to stderr and exits 2, so a typo can neither
 * drop an artifact nor switch a gate off.
 */
inline BenchArgs
parseArgs(int argc, char **argv, const char *speedup_gate = nullptr)
{
    std::string prog = argc > 0 ? argv[0] : "bench";
    prog.erase(0, prog.find_last_of('/') + 1);
    auto fail = [&](const std::string &why) {
        std::fprintf(stderr,
                     "%s: %s\n"
                     "usage: %s [--flag VALUE | --flag=VALUE]...\n"
                     "  --jobs N               sweep workers; 0 = one "
                     "per hardware thread (default), 1 = serial\n"
                     "  --json PATH            also write a "
                     "csbsim-bench-1 artifact\n",
                     prog.c_str(), why.c_str(), prog.c_str());
        if (speedup_gate) {
            std::fprintf(stderr,
                         "  %-22s exit 1 below a wall-clock speedup "
                         "of X\n",
                         (std::string(speedup_gate) + " X").c_str());
        }
        std::exit(2);
    };

    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::size_t eq = arg.find('=');
        std::string name = arg.substr(0, eq);
        bool gate = speedup_gate && name == speedup_gate;
        if (name != "--jobs" && name != "--json" && !gate)
            fail("unknown argument '" + arg + "'");

        std::string value;
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (i + 1 < argc)
            value = argv[++i];
        if (value.empty())
            fail(name + " needs a value");

        if (name == "--jobs") {
            if (!sim::parseNumber(value, args.jobs))
                fail("--jobs needs a worker count, got '" + value + "'");
        } else if (gate) {
            if (!sim::parseNumber(value, args.minSpeedup) ||
                !std::isfinite(args.minSpeedup) || args.minSpeedup < 0) {
                fail(name + " needs a non-negative number, got '" +
                     value + "'");
            }
        } else {
            args.json = value;
        }
    }
    return args;
}

/**
 * Machine-readable companion to the printed tables.
 *
 * Every bench binary owns one JsonReport.  Given a `--json` path it
 * opens the file at construction, so a bad path fails before any
 * simulation runs, and finish() writes a `BENCH_<name>.json`-style
 * artifact with the structured series (`tables`) plus the exact text
 * the binary printed (`rendered`), which tools/regen_experiments
 * splices back into EXPERIMENTS.md.  With an empty path the report
 * only forwards text to stdout.
 */
class JsonReport
{
  public:
    /** Exits 1 if @p path is set but cannot be opened for writing. */
    JsonReport(std::string name, const std::string &path)
        : name_(std::move(name)), path_(path)
    {
        if (path_.empty())
            return;
        os_.open(path_);
        if (!os_.is_open()) {
            std::fprintf(stderr, "%s: cannot open --json file '%s'\n",
                         name_.c_str(), path_.c_str());
            std::exit(1);
        }
    }

    JsonReport(const JsonReport &) = delete;
    JsonReport &operator=(const JsonReport &) = delete;

    /**
     * Emit @p text to stdout and record it for the artifact.
     *
     * Main thread only: rendered_ and std::cout are unsynchronized by
     * design.  Sweep workers render into per-point buffers
     * (core::SweepRunner::mapRendered) and the main thread splices
     * them here in point order, which is what keeps artifacts
     * byte-identical for any --jobs value.
     */
    void
    print(const std::string &text)
    {
        std::cout << text;
        rendered_ += text;
    }

    /** printf-style print(). */
    void
    printf(const char *fmt, ...)
    {
        va_list ap;
        va_start(ap, fmt);
        va_list ap2;
        va_copy(ap2, ap);
        int n = std::vsnprintf(nullptr, 0, fmt, ap);
        va_end(ap);
        std::string buf(n > 0 ? n : 0, '\0');
        if (n > 0)
            std::vsnprintf(buf.data(), buf.size() + 1, fmt, ap2);
        va_end(ap2);
        print(buf);
    }

    /** Start a structured table; rows are appended with addRow(). */
    void
    beginTable(std::string title, std::vector<std::string> columns)
    {
        tables_.push_back(
            Table{std::move(title), std::move(columns), {}});
    }

    /** Append one row (label + one value per column) to the last table. */
    void
    addRow(std::string label, std::vector<double> values)
    {
        tables_.back().rows.push_back(
            Row{std::move(label), std::move(values)});
    }

    /** Record a bandwidth sweep as a structured table. */
    void
    addSweep(const core::BandwidthSweep &sweep)
    {
        std::vector<std::string> columns;
        for (core::Scheme scheme : sweep.schemes)
            columns.push_back(core::schemeName(scheme));
        beginTable(sweep.title, std::move(columns));
        for (std::size_t j = 0; j < sweep.sizes.size(); ++j) {
            std::vector<double> values;
            for (std::size_t i = 0; i < sweep.schemes.size(); ++i)
                values.push_back(sweep.bandwidth[i][j]);
            addRow(std::to_string(sweep.sizes[j]), std::move(values));
        }
    }

    /** Record a latency sweep as a structured table. */
    void
    addLatencySweep(const core::LatencySweep &sweep)
    {
        std::vector<std::string> columns;
        for (core::Scheme scheme : sweep.schemes) {
            columns.push_back(scheme == core::Scheme::Csb
                                  ? core::schemeName(scheme)
                                  : "lock+" + core::schemeName(scheme));
        }
        beginTable(sweep.title, std::move(columns));
        for (std::size_t j = 0; j < sweep.dwords.size(); ++j) {
            std::vector<double> values;
            for (std::size_t i = 0; i < sweep.schemes.size(); ++i)
                values.push_back(sweep.cycles[i][j]);
            addRow(std::to_string(sweep.dwords[j] * 8),
                   std::move(values));
        }
    }

    /**
     * Attach a flat name -> number scorecard to the artifact,
     * emitted as a top-level "scorecard" object (used by the
     * robustness benches; see tools/bench_schema.json).
     */
    void
    setScorecard(std::vector<std::pair<std::string, double>> entries)
    {
        scorecard_ = std::move(entries);
    }

    /**
     * Write the artifact, if there is one, and return the bench's
     * exit status: @p rc, or 1 when the artifact could not be
     * written.  Every main() ends with `return report.finish(...)`.
     */
    int
    finish(int rc = 0)
    {
        if (path_.empty())
            return rc;
        write();
        os_.close();
        if (os_.fail()) {
            std::fprintf(stderr, "%s: cannot write --json file '%s'\n",
                         name_.c_str(), path_.c_str());
            return 1;
        }
        return rc;
    }

  private:
    struct Row
    {
        std::string label;
        std::vector<double> values;
    };

    struct Table
    {
        std::string title;
        std::vector<std::string> columns;
        std::vector<Row> rows;
    };

    void
    write()
    {
        sim::JsonWriter jw(os_, 2);
        jw.beginObject();
        jw.kv("schema", "csbsim-bench-1");
        jw.kv("name", name_);
        jw.key("tables");
        jw.beginArray();
        for (const Table &table : tables_) {
            jw.beginObject();
            jw.kv("title", table.title);
            jw.key("columns");
            jw.beginArray();
            for (const std::string &column : table.columns)
                jw.value(column);
            jw.endArray();
            jw.key("rows");
            jw.beginArray();
            for (const Row &row : table.rows) {
                jw.beginObject();
                jw.kv("label", row.label);
                jw.key("values");
                jw.beginArray();
                for (double v : row.values)
                    jw.value(v);
                jw.endArray();
                jw.endObject();
            }
            jw.endArray();
            jw.endObject();
        }
        jw.endArray();
        if (!scorecard_.empty()) {
            jw.key("scorecard");
            jw.beginObject();
            for (const auto &[key, value] : scorecard_) {
                jw.key(key);
                jw.value(value);
            }
            jw.endObject();
        }
        jw.kv("rendered", rendered_);
        jw.endObject();
        os_ << "\n";
    }

    std::string name_;
    std::string path_;
    std::ofstream os_;
    std::string rendered_;
    std::vector<Table> tables_;
    std::vector<std::pair<std::string, double>> scorecard_;
};

namespace detail {

/** Written by sink(); volatile, so no store to it can be elided. */
inline volatile std::uint64_t sinkSlot = 0;

} // namespace detail

/**
 * Consume a value a timed loop computed, so the compiler must do the
 * loop's work even though nothing else reads the result.  Not for
 * concurrent callers: the timed loops run on the main thread.
 */
inline void
sink(std::uint64_t value)
{
    detail::sinkSlot = value;
}

/**
 * Run, print and record the full sweep table for one panel.  The grid
 * points execute through @p runner's workers; rendering and the
 * JsonReport stay on the calling thread.
 */
inline void
printBandwidthPanel(JsonReport &report, core::SweepRunner &runner,
                    const std::string &title,
                    const core::BandwidthSetup &setup)
{
    core::BandwidthSweep sweep = core::runBandwidthSweep(
        runner, title, setup, core::schemesForLine(setup.lineBytes),
        core::defaultTransferSizes());
    std::ostringstream os;
    core::printSweep(sweep, os);
    report.print(os.str());
    report.addSweep(sweep);
}

/** Run, print and record one figure-5 latency panel. */
inline void
printLatencyPanel(JsonReport &report, core::SweepRunner &runner,
                  const std::string &title,
                  const core::BandwidthSetup &setup, bool lock_miss)
{
    core::LatencySweep sweep =
        core::runLatencySweep(runner, title, setup, lock_miss);
    std::ostringstream os;
    core::printLatencySweep(sweep, os);
    report.print(os.str());
    report.addLatencySweep(sweep);
}

/** Multiplexed-bus setup shorthand. */
inline core::BandwidthSetup
muxSetup(unsigned ratio, unsigned line_bytes, unsigned turnaround = 0,
         unsigned ack_delay = 0)
{
    core::BandwidthSetup setup;
    setup.bus.kind = bus::BusKind::Multiplexed;
    setup.bus.widthBytes = 8;
    setup.bus.ratio = ratio;
    setup.bus.turnaround = turnaround;
    setup.bus.ackDelay = ack_delay;
    setup.lineBytes = line_bytes;
    return setup;
}

/** Split-bus setup shorthand. */
inline core::BandwidthSetup
splitSetup(unsigned width, unsigned ratio, unsigned line_bytes,
           unsigned turnaround = 0, unsigned ack_delay = 0)
{
    core::BandwidthSetup setup;
    setup.bus.kind = bus::BusKind::Split;
    setup.bus.widthBytes = width;
    setup.bus.ratio = ratio;
    setup.bus.turnaround = turnaround;
    setup.bus.ackDelay = ack_delay;
    setup.lineBytes = line_bytes;
    return setup;
}

} // namespace csb::bench

#endif // CSB_BENCH_COMMON_HH
