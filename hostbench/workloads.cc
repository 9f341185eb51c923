#include "workloads.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>

#include "core/experiments.hh"
#include "core/kernels.hh"
#include "core/system.hh"
#include "core/workloads.hh"
#include "litmus/generator.hh"
#include "litmus/harness.hh"
#include "litmus/oracle.hh"
#include "sim/checkpoint.hh"
#include "sim/random.hh"
#include "sim/trace_recorder.hh"

namespace hostbench {

namespace core = csb::core;
namespace isa = csb::isa;
namespace sim = csb::sim;
using Scope = SpanRecorder::Scope;

// The field list, once, for += and toJson.
#define HOSTBENCH_SIM_COUNTS(X)                                         \
    X(systems) X(ticks) X(events) X(ffTicks) X(instsAssembled)          \
    X(cpuCycles) X(instsRetired) X(ioStallCycles) X(ubufStores)         \
    X(ubufCoalesced) X(csbFlushes) X(csbFlushesOk) X(csbLines)          \
    X(cacheAccesses) X(cacheMisses) X(busTxns) X(busBytes) X(busNacks)  \
    X(busUtilTicks) X(txnLatencyP50Sum) X(txnLatencySystems)            \
    X(delivered) X(deviceBytes) X(ckptBytes) X(litmusSpecs)             \
    X(litmusContexts) X(litmusDiscrepancies)

SimCounts &
SimCounts::operator+=(const SimCounts &o)
{
#define HOSTBENCH_ADD(f) f += o.f;
    HOSTBENCH_SIM_COUNTS(HOSTBENCH_ADD)
#undef HOSTBENCH_ADD
    return *this;
}

std::string
SimCounts::toJson() const
{
    std::ostringstream os;
    os.precision(17);
    const char *sep = "{";
#define HOSTBENCH_JSON(f)                                               \
    os << sep << "\"" #f "\": " << f;                                   \
    sep = ", ";
    HOSTBENCH_SIM_COUNTS(HOSTBENCH_JSON)
#undef HOSTBENCH_JSON
    os << "}";
    return os.str();
}

namespace {

std::uint64_t
u64(double v)
{
    return static_cast<std::uint64_t>(v);
}

/** Add the public stat counters of a System that has finished running. */
void
addSystem(SimCounts &c, core::System &sys)
{
    std::uint64_t ticks = sys.simulator().curTick();
    c.systems += 1;
    c.ticks += ticks;
    c.events += sys.simulator().eventQueue().numProcessed();
    c.ffTicks += sys.simulator().fastForwardedTicks();
    for (unsigned cpu = 0; cpu < sys.numCores(); ++cpu) {
        csb::cpu::Core &core = sys.core(cpu);
        c.cpuCycles += u64(core.numCycles.value());
        c.instsRetired += u64(core.instsRetired.value());
        c.ioStallCycles += u64(core.uncachedRetireStallCycles.value() +
                               core.membarStallCycles.value() +
                               core.csbStoreStallCycles.value());
        const csb::mem::UncachedBuffer &ubuf = sys.uncachedBuffer(cpu);
        c.ubufStores += u64(ubuf.storesPushed.value());
        c.ubufCoalesced += u64(ubuf.storesCoalesced.value());
        if (const csb::mem::ConditionalStoreBuffer *csb = sys.csb(cpu)) {
            c.csbFlushes += u64(csb->flushesAttempted.value());
            c.csbFlushesOk += u64(csb->flushesSucceeded.value());
            c.csbLines += u64(csb->linesIssued.value());
        }
        const csb::mem::Cache &l1 = sys.caches(cpu).l1();
        c.cacheAccesses += u64(l1.hits.value() + l1.misses.value());
        c.cacheMisses += u64(l1.misses.value());
    }
    const csb::bus::SystemBus &bus = sys.bus();
    c.busTxns += u64(bus.numWrites.value() + bus.numReads.value());
    c.busBytes += u64(bus.bytesWritten.value() + bus.bytesRead.value());
    c.busNacks += u64(bus.numNacks.value());
    c.busUtilTicks += bus.utilization.value() * static_cast<double>(ticks);
    if (bus.txnLatencyCycles.totalSamples() > 0) {
        c.txnLatencyP50Sum += bus.txnLatencyCycles.percentile(0.5);
        c.txnLatencySystems += 1;
    }
    c.deviceBytes += u64(sys.device().bytesReceived.value());
    if (const csb::io::NetworkInterface *ni = sys.ni()) {
        c.delivered += ni->delivered().size();
        c.deviceBytes += u64(ni->bytesSent.value());
    }
}

/** Seed of op @p op of a workload seeded with @p seed. */
std::uint64_t
opSeed(std::uint64_t seed, std::uint64_t op)
{
    sim::Random rng(seed * 0x9e3779b97f4a7c15ULL + op);
    return rng.next();
}

// --- Timed calls into the layers -----------------------------------
//
// Each helper brackets exactly one public call with its span, so the
// span names below are the layer names of the per-layer metrics.

template <class Build>
isa::Program
assemble(SpanRecorder &spans, SimCounts &counts, Build build)
{
    Scope span(spans, "isa.assemble");
    isa::Program program = build();
    counts.instsAssembled += program.size();
    return program;
}

std::unique_ptr<core::System>
buildSystem(SpanRecorder &spans, const core::SystemConfig &cfg)
{
    Scope span(spans, "core.build");
    return std::make_unique<core::System>(cfg);
}

void
runSystem(SpanRecorder &spans, core::System &sys,
          const isa::Program &program)
{
    Scope span(spans, "core.run");
    sys.run(program);
}

void
teardown(SpanRecorder &spans, std::unique_ptr<core::System> &sys)
{
    Scope span(spans, "core.teardown");
    sys.reset();
}

// --- paper_figs ------------------------------------------------------

/** One panel of figures 3-5 as the fig* benches define it. */
struct Panel
{
    enum class Kind { Bandwidth, LockHit, LockMiss };

    const char *title;
    core::BandwidthSetup setup;
    Kind kind = Kind::Bandwidth;
};

core::BandwidthSetup
busSetup(csb::bus::BusKind kind, unsigned width, unsigned ratio,
         unsigned line_bytes, unsigned turnaround = 0, unsigned ack = 0)
{
    core::BandwidthSetup setup;
    setup.bus.kind = kind;
    setup.bus.widthBytes = width;
    setup.bus.ratio = ratio;
    setup.bus.turnaround = turnaround;
    setup.bus.ackDelay = ack;
    setup.lineBytes = line_bytes;
    return setup;
}

std::vector<Panel>
figurePanels()
{
    using csb::bus::BusKind;
    auto mux = [](unsigned ratio, unsigned line, unsigned ta = 0,
                  unsigned ack = 0) {
        return busSetup(BusKind::Multiplexed, 8, ratio, line, ta, ack);
    };
    auto split = [](unsigned width, unsigned ta = 0, unsigned ack = 0) {
        return busSetup(BusKind::Split, width, 6, 64, ta, ack);
    };
    using K = Panel::Kind;
    return {
        {"Fig 3(a) ratio 2", mux(2, 32)},
        {"Fig 3(b) ratio 6", mux(6, 32)},
        {"Fig 3(c) ratio 10", mux(10, 32)},
        {"Fig 3(d) block 32B", mux(6, 32)},
        {"Fig 3(e) block 64B", mux(6, 64)},
        {"Fig 3(f) block 128B", mux(6, 128)},
        {"Fig 3(g) turnaround 1", mux(6, 64, 1, 0)},
        {"Fig 3(h) ack delay 4", mux(6, 64, 0, 4)},
        {"Fig 3(i) ack delay 8", mux(6, 64, 0, 8)},
        {"Fig 4(a) 16B split bus", split(16)},
        {"Fig 4(b) 32B split bus", split(32)},
        {"Fig 4(c) turnaround 1", split(16, 1, 0)},
        {"Fig 4(d) ack delay 4", split(16, 0, 4)},
        {"Fig 4(e) ack delay 8", split(16, 0, 8)},
        {"Fig 5 lock hit", mux(6, 64), K::LockHit},
        {"Fig 5 lock miss", mux(6, 64), K::LockMiss},
    };
}

/** What runBandwidthSweep / runLatencySweep return for one panel. */
struct Reference
{
    std::vector<core::Scheme> schemes;
    /** Transfer bytes (bandwidth) or doublewords (latency). */
    std::vector<unsigned> xs;
    std::vector<std::vector<double>> values;
};

Reference
panelReference(const Panel &panel)
{
    core::SweepRunner serial(1);
    if (panel.kind == Panel::Kind::Bandwidth) {
        core::BandwidthSweep sweep = core::runBandwidthSweep(
            serial, panel.title, panel.setup,
            core::schemesForLine(panel.setup.lineBytes),
            core::defaultTransferSizes());
        return {sweep.schemes, sweep.sizes, sweep.bandwidth};
    }
    core::LatencySweep sweep = core::runLatencySweep(
        serial, panel.title, panel.setup,
        panel.kind == Panel::Kind::LockMiss);
    return {sweep.schemes, sweep.dwords, sweep.cycles};
}

/**
 * @p ref as lines of the expected-panels file: "title | label | values"
 * for the x values, then for each scheme.  17 significant digits make
 * equal lines mean bit-identical values.
 */
std::vector<std::string>
panelLines(const Panel &panel, const Reference &ref)
{
    auto line = [&](const std::string &label, const auto &values) {
        std::ostringstream os;
        os.precision(17);
        os << panel.title << " | " << label << " |";
        for (auto v : values)
            os << " " << v;
        return os.str();
    };
    std::vector<std::string> lines{line(
        panel.kind == Panel::Kind::Bandwidth ? "bytes" : "dwords", ref.xs)};
    for (std::size_t i = 0; i < ref.schemes.size(); ++i)
        lines.push_back(
            line(core::schemeName(ref.schemes[i]), ref.values[i]));
    return lines;
}

/** The expected-panels file, as its lines grouped by panel title. */
std::map<std::string, std::vector<std::string>>
readExpectedPanels()
{
    std::map<std::string, std::vector<std::string>> panels;
    std::ifstream in(HOSTBENCH_EXPECTED_PANELS);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            panels[line.substr(0, line.find(" | "))].push_back(line);
    }
    return panels;
}

/**
 * An op is one panel, every grid point on a fresh System.  It passes
 * when every value equals what runBandwidthSweep / runLatencySweep
 * return for the panel in this build and the panel also equals its
 * lines in expected/paper_figs_panels.txt, so a change of simulated
 * results fails until that file is regenerated with --print-panels.
 * The seed only picks the order in which the fixed panel list is
 * cycled, so every seed runs the same mix.
 */
class PaperFigs : public Workload
{
  public:
    PaperFigs(const WorkloadOptions &opts, SpanRecorder &spans)
        : seed_(opts.seed), spans_(spans)
    {}

    void
    setup() override
    {
        panels_ = figurePanels();
        order_.resize(panels_.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = i;
        sim::Random rng(seed_);
        for (std::size_t i = order_.size() - 1; i > 0; --i)
            std::swap(order_[i], order_[rng.uniform(0, i)]);

        std::map<std::string, std::vector<std::string>> expected =
            readExpectedPanels();
        for (const Panel &panel : panels_) {
            refs_.push_back(panelReference(panel));
            bool same =
                panelLines(panel, refs_.back()) == expected[panel.title];
            if (!same) {
                std::cerr << "hostbench: " << panel.title << " differs from "
                          << HOSTBENCH_EXPECTED_PANELS << "\n";
            }
            asExpected_.push_back(same);
        }

        SimCounts warm;
        for (std::size_t op = 0; op < panels_.size(); ++op)
            runOp(op, warm);
    }

    bool
    runOp(std::uint64_t op, SimCounts &counts) override
    {
        std::size_t p = order_[op % order_.size()];
        const Panel &panel = panels_[p];
        const Reference &ref = refs_[p];
        bool ok = asExpected_[p];
        for (std::size_t i = 0; i < ref.schemes.size(); ++i) {
            for (std::size_t j = 0; j < ref.xs.size(); ++j) {
                double got =
                    runPoint(panel, ref.schemes[i], ref.xs[j], counts);
                ok = ok && got == ref.values[i][j];
            }
        }
        return ok;
    }

  private:
    /** One grid point, as measureStoreBandwidth / measureLockedSequence
     *  / measureCsbSequence compute it. */
    double
    runPoint(const Panel &panel, core::Scheme scheme, unsigned x,
             SimCounts &counts)
    {
        using core::System;
        constexpr csb::Addr lock_addr = 0x4000;
        const core::BandwidthSetup &setup = panel.setup;
        bool csb = scheme == core::Scheme::Csb;
        csb::Addr io_base = scheme == core::Scheme::NoCombine
                           ? System::ioUncachedBase
                           : System::ioAccelBase;

        isa::Program program = assemble(spans_, counts, [&] {
            if (panel.kind == Panel::Kind::Bandwidth) {
                return csb ? core::makeCsbStoreKernel(System::ioCsbBase, x,
                                                      setup.lineBytes)
                           : core::makeStoreKernel(io_base, x);
            }
            return csb ? core::makeCsbSequenceKernel(System::ioCsbBase, x)
                       : core::makeLockedStoreKernel(lock_addr, io_base, x);
        });

        std::unique_ptr<System> sys =
            buildSystem(spans_, core::bandwidthConfig(setup, scheme));
        if (panel.kind == Panel::Kind::LockHit && !csb)
            sys->caches().touch(lock_addr);
        runSystem(spans_, *sys, program);

        double value = 0;
        if (panel.kind == Panel::Kind::Bandwidth) {
            std::uint64_t cycles = sys->ioWriteBusCycles();
            value = cycles ? static_cast<double>(x) /
                                 static_cast<double>(cycles)
                           : -1.0;
        } else {
            value = static_cast<double>(sys->core().markTime(1) -
                                        sys->core().markTime(0));
        }
        addSystem(counts, *sys);
        teardown(spans_, sys);
        return value;
    }

    std::uint64_t seed_;
    SpanRecorder &spans_;
    std::vector<Panel> panels_;
    std::vector<Reference> refs_;
    /** Per panel: the reference equals the expected-panels file. */
    std::vector<bool> asExpected_;
    std::vector<std::size_t> order_;
};

// --- nic_messages ----------------------------------------------------

/**
 * An op is one seeded batch of scientific-mix messages (19-230 B),
 * sent through the NI by CSB PIO and by lock-protected PIO, each on
 * its own System (runMessageWorkload's configuration, fault-free).
 * The CSB System is then checkpointed and restored into a fresh one.
 * Checks: exactly-once delivery on both Systems, and the restored
 * System's memory-stats JSON equals the saved one's.
 */
class NicMessages : public Workload
{
  public:
    /**
     * Messages per op and System, drawn uniformly per op.  A spread of
     * batch sizes keeps the op-latency distribution continuous: with
     * one fixed size it is two narrow peaks (the host's fast and slow
     * phases), and its median flips between them from run to run.
     */
    static constexpr unsigned kMinMessages = 80;
    static constexpr unsigned kMaxMessages = 240;

    NicMessages(const WorkloadOptions &opts, SpanRecorder &spans)
        : seed_(opts.seed), spans_(spans)
    {}

    void
    setup() override
    {
        // Warm up on batches of a fixed seed, so set-up is the same work
        // whatever the run's seed.
        SimCounts warm;
        for (std::uint64_t op = 0; op < 8; ++op)
            runBatch(opSeed(0, op), warm);
    }

    bool
    runOp(std::uint64_t op, SimCounts &counts) override
    {
        return runBatch(opSeed(seed_, op), counts);
    }

  private:
    bool
    runBatch(std::uint64_t batch_seed, SimCounts &counts)
    {
        sim::Random rng(batch_seed);
        auto count = static_cast<unsigned>(
            rng.uniform(kMinMessages, kMaxMessages));
        std::vector<unsigned> sizes = core::drawSizes(
            core::MessageSizeDistribution::scientific(rng.next()), count);
        bool ok = true;
        for (bool use_csb : {true, false}) {
            core::SystemConfig cfg = config(use_csb);
            core::MessageProgramSpec pspec;
            pspec.useCsb = use_csb;
            pspec.lineBytes = cfg.lineBytes;
            isa::Program program = assemble(spans_, counts, [&] {
                return core::makeMessageProgram(pspec, sizes);
            });
            std::unique_ptr<core::System> sys = buildSystem(spans_, cfg);
            sys->caches().touch(pspec.lockAddr);
            runSystem(spans_, *sys, program);
            {
                Scope span(spans_, "bench.check");
                ok = ok && exactlyOnce(*sys, sizes.size());
            }
            addSystem(counts, *sys);
            if (use_csb)
                ok = checkpointRoundTrip(*sys, cfg, counts) && ok;
            teardown(spans_, sys);
        }
        return ok;
    }

    static core::SystemConfig
    config(bool use_csb)
    {
        core::SystemConfig cfg;
        cfg.lineBytes = 64;
        cfg.bus = busSetup(csb::bus::BusKind::Multiplexed, 8, 6, 64).bus;
        cfg.enableCsb = use_csb;
        cfg.ubuf.combineBytes = 0; // conventional PIO baseline
        cfg.enableNi = true;
        cfg.normalize();
        return cfg;
    }

    static bool
    exactlyOnce(core::System &sys, std::size_t messages)
    {
        const auto &delivered = sys.ni()->delivered();
        std::set<std::uint64_t> seqs;
        for (const csb::io::DeliveredMessage &msg : delivered)
            seqs.insert(msg.seq);
        return delivered.size() == messages && seqs.size() == messages;
    }

    static std::string
    memStats(core::System &sys)
    {
        std::ostringstream os;
        sys.dumpMemStatsJson(os);
        return os.str();
    }

    bool
    checkpointRoundTrip(core::System &saved, const core::SystemConfig &cfg,
                        SimCounts &counts)
    {
        std::string blob;
        {
            Scope span(spans_, "sim.ckpt_save");
            sim::CheckpointWriter cw;
            saved.saveCheckpoint(cw);
            std::ostringstream os;
            cw.writeTo(os);
            blob = os.str();
        }
        counts.ckptBytes += blob.size();

        std::unique_ptr<core::System> restored = buildSystem(spans_, cfg);
        counts.systems += 1;
        {
            Scope span(spans_, "sim.ckpt_restore");
            std::istringstream is(blob);
            sim::CheckpointReader cr = sim::CheckpointReader::readFrom(is);
            restored->restoreCheckpoint(cr);
        }
        bool same = false;
        {
            Scope span(spans_, "bench.check");
            same = memStats(*restored) == memStats(saved);
        }
        teardown(spans_, restored);
        return same;
    }

    std::uint64_t seed_;
    SpanRecorder &spans_;
};

// --- litmus_sweep ----------------------------------------------------

/**
 * An op is a batch of consecutive generator seeds, each generated and
 * checked against its full hardware matrix; the check is zero
 * discrepancies.  runCase builds its Systems internally, so their
 * counters are out of reach: a passive TraceRecorder on every case
 * supplies the simulated ticks instead (up to each run's last data
 * reference), and core.systems counts one System per spec.
 */
class LitmusSweep : public Workload
{
  public:
    /** Generator seeds per op: one seed's cost depends on its context
     *  count (1, 2 or 4), a batch of four evens that out. */
    static constexpr unsigned kSeedsPerOp = 4;

    LitmusSweep(const WorkloadOptions &opts, SpanRecorder &spans)
        : firstSeed_(1 + opts.seed * 1'000'000),
          dropFlushRate_(opts.dropFlushRate), spans_(spans)
    {}

    void
    setup() override
    {
        // Warm up on fixed generator seeds, so set-up is the same work
        // whatever the run's seed.
        SimCounts warm;
        for (std::uint64_t seed = 1; seed <= 2 * kSeedsPerOp; ++seed)
            runSeed(seed, warm);
    }

    bool
    runOp(std::uint64_t op, SimCounts &counts) override
    {
        std::uint64_t before = counts.litmusDiscrepancies;
        for (unsigned i = 0; i < kSeedsPerOp; ++i)
            runSeed(firstSeed_ + op * kSeedsPerOp + i, counts);
        return counts.litmusDiscrepancies == before;
    }

  private:
    void
    runSeed(std::uint64_t seed, SimCounts &counts)
    {
        csb::litmus::TestCase tc;
        std::vector<csb::litmus::RunSpec> specs;
        {
            Scope span(spans_, "litmus.generate");
            tc = csb::litmus::generate(seed);
            specs = csb::litmus::specsForSeed(seed, /*full_matrix=*/true,
                                              dropFlushRate_);
        }
        counts.litmusContexts += tc.contexts.size();
        for (const csb::litmus::RunSpec &spec : specs) {
            auto cpus = static_cast<std::uint32_t>(
                spec.mode == csb::litmus::CtxMode::Smp ? tc.contexts.size()
                                                       : 1);
            sim::TraceRecorder recorder(cpus);
            csb::litmus::RunResult result;
            {
                Scope span(spans_, "litmus.case");
                result = csb::litmus::runCase(tc, spec, &recorder);
            }
            csb::Tick last = 0;
            for (const sim::TraceRecord &rec : recorder.records())
                last = std::max(last, rec.tick);
            counts.ticks += last + 1;
            counts.systems += 1;
            counts.litmusSpecs += 1;
            counts.litmusDiscrepancies += result.discrepancies.size();
        }
    }

    std::uint64_t firstSeed_;
    double dropFlushRate_;
    SpanRecorder &spans_;
};

} // namespace

void
printPanels(std::ostream &os)
{
    os << "# Expected paper_figs panel values: what runBandwidthSweep "
          "(bytes per bus\n"
          "# cycle) and runLatencySweep (cycles) return for each panel "
          "of Figs 3-5.\n"
          "# Every paper_figs op checks its panel against these lines. "
          "After an\n"
          "# intended change of simulated results, regenerate with\n"
          "#   .bench_build/hostbench --print-panels > "
          "hostbench/expected/paper_figs_panels.txt\n";
    for (const Panel &panel : figurePanels()) {
        for (const std::string &line :
             panelLines(panel, panelReference(panel)))
            os << line << "\n";
    }
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{"paper_figs", "nic_messages",
                                                "litmus_sweep"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadOptions &opts,
             SpanRecorder &spans)
{
    if (name == "paper_figs")
        return std::make_unique<PaperFigs>(opts, spans);
    if (name == "nic_messages")
        return std::make_unique<NicMessages>(opts, spans);
    if (name == "litmus_sweep")
        return std::make_unique<LitmusSweep>(opts, spans);
    return nullptr;
}

} // namespace hostbench
