#include "harness.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/sweep.hh"
#include "generator.hh"
#include "shrink.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace csb::litmus {

namespace {

namespace fs = std::filesystem;

/** Seeds per SweepRunner batch; the budget is polled between batches. */
constexpr std::uint64_t kBatchSeeds = 64;

unsigned
recorderCpus(const TestCase &tc, const RunSpec &spec)
{
    return spec.mode == CtxMode::Smp ? unsigned(tc.contexts.size()) : 1u;
}

/** Render a RunSpec as the `run ...` corpus directive. */
std::string
runDirective(const RunSpec &spec)
{
    std::ostringstream os;
    os << "run scheme=" << schemeName(spec.scheme)
       << " mode=" << ctxModeName(spec.mode)
       << " quantum=" << spec.quantum
       << " faults=" << (spec.faults ? 1 : 0)
       << " fault-seed=" << spec.faultSeed
       << " drop-flush=" << spec.dropFlushRate;
    // Schedule specs contain no whitespace, so key=value parsing
    // round-trips; omitted entirely when empty so pre-schedule corpus
    // entries render unchanged.
    if (!spec.schedule.empty())
        os << " schedule=" << spec.schedule;
    // Likewise omitted when unset so pre-coherence entries round-trip
    // byte-for-byte.
    if (spec.coherent)
        os << " coherent=1";
    if (spec.smallCaches)
        os << " tiny-caches=1";
    return os.str();
}

/** Parse one "key=value" field of a directive line. */
bool
splitField(const std::string &field, std::string &key, std::string &val)
{
    auto eq = field.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    key = field.substr(0, eq);
    val = field.substr(eq + 1);
    return true;
}

/** Parse a `run ...` line back into a RunSpec. */
RunSpec
parseRunDirective(const std::string &line)
{
    RunSpec spec;
    std::istringstream is(line);
    std::string word;
    is >> word; // "run"
    while (is >> word) {
        std::string key, val;
        if (!splitField(word, key, val))
            csb_fatal("litmus corpus: malformed run field '", word, "'");
        if (key == "scheme") {
            if (val == "pio")
                spec.scheme = Scheme::Pio;
            else if (val == "dma")
                spec.scheme = Scheme::Dma;
            else if (val == "csb")
                spec.scheme = Scheme::Csb;
            else
                csb_fatal("litmus corpus: unknown scheme '", val, "'");
        } else if (key == "mode") {
            if (val == "smp")
                spec.mode = CtxMode::Smp;
            else if (val == "sched")
                spec.mode = CtxMode::Sched;
            else
                csb_fatal("litmus corpus: unknown mode '", val, "'");
        } else if (key == "quantum") {
            spec.quantum = Tick(std::stoull(val, nullptr, 0));
        } else if (key == "faults") {
            spec.faults = std::stoull(val, nullptr, 0) != 0;
        } else if (key == "fault-seed") {
            spec.faultSeed = std::stoull(val, nullptr, 0);
        } else if (key == "drop-flush") {
            spec.dropFlushRate = std::stod(val);
        } else if (key == "schedule") {
            spec.schedule = val;
        } else if (key == "coherent") {
            spec.coherent = std::stoull(val, nullptr, 0) != 0;
        } else if (key == "tiny-caches") {
            spec.smallCaches = std::stoull(val, nullptr, 0) != 0;
        } else {
            csb_fatal("litmus corpus: unknown run field '", key, "'");
        }
    }
    return spec;
}

/** The harness-owned directives of one corpus entry. */
struct CorpusDirectives
{
    std::vector<RunSpec> specs;
    bool expectFail = false;
    bool haveExpect = false;
    std::string traceFile; ///< relative to the entry's directory
};

CorpusDirectives
parseDirectives(const std::string &text)
{
    CorpusDirectives dir;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        std::string word;
        if (!(ls >> word))
            continue;
        if (word == "run") {
            dir.specs.push_back(parseRunDirective(line));
        } else if (word == "expect") {
            dir.haveExpect = true;
            while (ls >> word) {
                if (word == "pass") {
                    dir.expectFail = false;
                } else if (word == "fail") {
                    dir.expectFail = true;
                } else {
                    std::string key, val;
                    if (splitField(word, key, val) && key == "trace")
                        dir.traceFile = val;
                    else
                        csb_fatal("litmus corpus: bad expect field '",
                                  word, "'");
                }
            }
        }
    }
    return dir;
}

/** Record the cycle-model run of (tc, spec) and return the CSBT bytes. */
std::string
recordTraceBytes(const TestCase &tc, const RunSpec &spec)
{
    sim::TraceRecorder recorder(recorderCpus(tc, spec), 64);
    runCase(tc, spec, &recorder);
    std::ostringstream os(std::ios::binary);
    recorder.writeTo(os);
    return os.str();
}

/** Write seed_<N>.litmus + .csbt into the repro directory. */
void
writeRepro(const std::string &dir, std::uint64_t seed,
           const TestCase &minimal, const RunSpec &spec,
           std::ostream &report)
{
    fs::create_directories(dir);
    std::string stem = "seed_" + std::to_string(seed);
    std::string trace_name = stem + ".csbt";

    std::string bytes = recordTraceBytes(minimal, spec);
    std::ofstream trace(fs::path(dir) / trace_name, std::ios::binary);
    trace.write(bytes.data(), std::streamsize(bytes.size()));
    if (!trace)
        csb_fatal("litmus: cannot write ", dir, "/", trace_name);

    std::ofstream entry(fs::path(dir) / (stem + ".litmus"));
    entry << "# litmus repro, shrunk from generator seed " << seed
          << "\n";
    entry << "# replay: tools/litmus --corpus <this directory>\n";
    entry << runDirective(spec) << "\n";
    entry << "expect fail trace=" << trace_name << "\n";
    entry << minimal.toText();
    if (!entry)
        csb_fatal("litmus: cannot write ", dir, "/", stem, ".litmus");

    report << "  repro written: " << stem << ".litmus + " << trace_name
           << "\n";
}

/** Everything one seed contributes to the final report. */
struct SeedOutcome
{
    std::uint64_t seed = 0;
    bool failed = false;
    /** Lowered size of the shrunk case (0 without shrinking). */
    std::size_t shrunkInstructions = 0;
    std::string block; ///< rendered failure detail; empty on pass
};

SeedOutcome
checkSeed(std::uint64_t seed, const HarnessOptions &opts)
{
    SeedOutcome out;
    out.seed = seed;

    GeneratorOptions gen;
    gen.tokensPerContext = opts.tokensPerContext;
    TestCase tc = generate(seed, gen);

    std::vector<RunSpec> specs =
        specsForSeed(seed, opts.fullMatrix, opts.dropFlushRate,
                     opts.faultSchedule);

    std::ostringstream os;
    const RunSpec *first_fail = nullptr;
    for (const RunSpec &spec : specs) {
        RunResult result = runCase(tc, spec);
        if (result.passed())
            continue;
        out.failed = true;
        if (!first_fail)
            first_fail = &spec;
        os << "seed " << seed << ": FAIL [" << spec.name() << "]\n";
        for (const Discrepancy &d : result.discrepancies)
            os << "  - " << d.what << "\n";
    }
    if (!out.failed)
        return out;

    // Shrink against the first failing spec: deterministic, and one
    // spec is all a repro needs.
    RunSpec spec = *first_fail;
    TestCase minimal = tc;
    if (opts.shrinkFailures) {
        ShrinkStats stats;
        minimal = shrink(
            tc,
            [&](const TestCase &cand) {
                return !runCase(cand, spec).passed();
            },
            &stats);
        out.shrunkInstructions = minimal.loweredInstructionCount();
        os << "  shrunk [" << spec.name() << "] to "
           << minimal.contexts.size() << " context(s), "
           << minimal.loweredInstructionCount()
           << " lowered instructions (" << stats.evaluations
           << " oracle runs)\n";
    }
    {
        std::istringstream body(minimal.toText());
        std::string line;
        while (std::getline(body, line))
            os << "    " << line << "\n";
    }
    if (!opts.reproDir.empty())
        writeRepro(opts.reproDir, seed, minimal, spec, os);

    out.block = os.str();
    return out;
}

} // namespace

std::vector<RunSpec>
specsForSeed(std::uint64_t seed, bool full_matrix, double drop_flush_rate,
             const std::string &fault_schedule)
{
    unsigned contexts = contextsForSeed(seed);
    constexpr Scheme kSchemes[] = {Scheme::Pio, Scheme::Dma, Scheme::Csb};

    std::vector<RunSpec> specs;
    if (full_matrix) {
        // Fault flavors: clean, uniform 1% NACKs, scheduled burst
        // (the third axis collapses when no schedule is configured).
        int fault_modes = fault_schedule.empty() ? 2 : 3;
        Tick quantum = 120 + Tick(seed % 280);
        for (Scheme scheme : kSchemes) {
            for (int sched = 0; sched < (contexts > 1 ? 2 : 1);
                 ++sched) {
                for (int fmode = 0; fmode < fault_modes; ++fmode) {
                    RunSpec spec;
                    spec.scheme = scheme;
                    spec.mode = sched ? CtxMode::Sched : CtxMode::Smp;
                    spec.quantum = quantum;
                    spec.faults = fmode == 1;
                    if (fmode == 2)
                        spec.schedule = fault_schedule;
                    spec.faultSeed = (seed ^ 0x7a017a01u) | 1;
                    spec.dropFlushRate = drop_flush_rate;
                    specs.push_back(spec);
                    // Coherent SMP flavor: the same point with
                    // snooping MESI attached and tiny caches so dirty
                    // lines actually spill and get snooped mid-run.
                    // Every differential observable must stay
                    // invariant -- coherence is timing/state only.
                    if (!sched && contexts > 1) {
                        spec.coherent = true;
                        spec.smallCaches = true;
                        specs.push_back(spec);
                    }
                }
            }
        }
        return specs;
    }

    // Sampled matrix: one concurrency/fault shape per seed, every
    // scheme.  Drawn from a private stream so the generator's own
    // draws stay untouched.  The schedule draw comes last so seeds
    // keep their pre-schedule concurrency/fault shapes.
    sim::Random rng(seed ^ 0x5bec5bec5bec5becULL);
    bool sched = contexts > 1 && rng.chance(0.5);
    Tick quantum = 120 + Tick(rng.uniform(0, 280));
    bool faults = rng.uniform(0, 3) == 0;
    bool scheduled = !fault_schedule.empty() && rng.uniform(0, 3) == 0;
    // New axes draw LAST (and unconditionally) so earlier seeds keep
    // their historical shapes and every seed consumes the same stream.
    bool coherent_draw = rng.chance(0.5);
    bool tiny = rng.uniform(0, 3) == 0;
    bool coherent = coherent_draw && contexts > 1 && !sched;
    for (Scheme scheme : kSchemes) {
        RunSpec spec;
        spec.scheme = scheme;
        spec.mode = sched ? CtxMode::Sched : CtxMode::Smp;
        spec.quantum = quantum;
        spec.faults = faults;
        if (scheduled)
            spec.schedule = fault_schedule;
        spec.faultSeed = (seed ^ 0x7a017a01u) | 1;
        spec.dropFlushRate = drop_flush_rate;
        spec.coherent = coherent;
        spec.smallCaches = tiny;
        specs.push_back(spec);
    }
    return specs;
}

HarnessResult
runHarness(const HarnessOptions &opts)
{
    HarnessResult result;
    std::ostringstream report;

    report << "litmus: seeds " << opts.firstSeed << ".."
           << (opts.firstSeed + opts.numSeeds - 1) << " ("
           << opts.numSeeds << "), matrix="
           << (opts.fullMatrix ? "full" : "sampled");
    if (opts.dropFlushRate > 0)
        report << ", drop-flush=" << opts.dropFlushRate;
    report << "\n";

    core::SweepRunner runner(opts.jobs);
    auto start = std::chrono::steady_clock::now();

    std::uint64_t done = 0;
    while (done < opts.numSeeds) {
        if (opts.timeBudgetSec > 0) {
            std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            if (elapsed.count() >= opts.timeBudgetSec) {
                result.stoppedEarly = true;
                break;
            }
        }
        std::uint64_t batch =
            std::min<std::uint64_t>(kBatchSeeds, opts.numSeeds - done);
        std::uint64_t base = opts.firstSeed + done;
        std::vector<SeedOutcome> outcomes = runner.mapIndex(
            std::size_t(batch), [&](std::size_t i) {
                return checkSeed(base + i, opts);
            });
        for (const SeedOutcome &outcome : outcomes) {
            ++result.seedsRun;
            if (outcome.failed) {
                ++result.seedsFailed;
                result.maxShrunkInstructions =
                    std::max(result.maxShrunkInstructions,
                             outcome.shrunkInstructions);
                report << outcome.block;
            }
        }
        done += batch;
    }

    if (result.stoppedEarly)
        report << "litmus: time budget expired\n";
    report << "litmus: " << result.seedsRun << " seeds run, "
           << result.seedsFailed << " failed\n";
    result.report = report.str();
    return result;
}

CorpusResult
replayCorpus(const std::string &dir)
{
    CorpusResult result;
    std::ostringstream report;

    if (!fs::is_directory(dir)) {
        result.failures = 1;
        result.report = "litmus: corpus directory missing: " + dir + "\n";
        return result;
    }

    std::vector<fs::path> entries;
    for (const fs::directory_entry &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".litmus")
            entries.push_back(entry.path());
    }
    std::sort(entries.begin(), entries.end());

    for (const fs::path &path : entries) {
        ++result.entries;
        std::ifstream in(path);
        std::ostringstream buf;
        buf << in.rdbuf();
        if (!in) {
            ++result.failures;
            report << path.filename().string() << ": FAIL (unreadable)\n";
            continue;
        }
        std::string text = buf.str();

        bool ok = true;
        std::ostringstream detail;
        try {
            CorpusDirectives directives = parseDirectives(text);
            if (directives.specs.empty() || !directives.haveExpect)
                csb_fatal("litmus corpus: entry needs `run` and "
                          "`expect` directives");
            TestCase tc = TestCase::fromText(text);

            for (const RunSpec &spec : directives.specs) {
                RunResult run = runCase(tc, spec);
                if (!directives.expectFail && !run.passed()) {
                    ok = false;
                    detail << "  [" << spec.name()
                           << "] expected pass:\n";
                    for (const Discrepancy &d : run.discrepancies)
                        detail << "    - " << d.what << "\n";
                } else if (directives.expectFail && run.passed()) {
                    ok = false;
                    detail << "  [" << spec.name()
                           << "] expected failure did not reproduce\n";
                }
            }

            if (!directives.traceFile.empty()) {
                fs::path trace_path =
                    path.parent_path() / directives.traceFile;
                std::ifstream tf(trace_path, std::ios::binary);
                std::ostringstream tbuf;
                tbuf << tf.rdbuf();
                if (!tf) {
                    ok = false;
                    detail << "  trace file unreadable: "
                           << trace_path.string() << "\n";
                } else {
                    std::string want = tbuf.str();
                    std::string got =
                        recordTraceBytes(tc, directives.specs.front());
                    if (got != want) {
                        ok = false;
                        detail << "  trace mismatch: re-recorded "
                               << got.size() << " bytes, checked in "
                               << want.size() << " ("
                               << directives.traceFile << ")\n";
                    }
                }
            }
        } catch (const FatalError &err) {
            ok = false;
            detail << "  fatal: " << err.what() << "\n";
        }

        if (ok) {
            report << path.filename().string() << ": ok\n";
        } else {
            ++result.failures;
            report << path.filename().string() << ": FAIL\n"
                   << detail.str();
        }
    }

    report << "litmus: corpus " << result.entries << " entries, "
           << result.failures << " failed\n";
    result.report = report.str();
    return result;
}

} // namespace csb::litmus
