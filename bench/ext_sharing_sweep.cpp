/**
 * @file
 * Extension: cached-line sharing patterns under snooping MESI.
 *
 * The fig5 lock studies assume lock lines ping-pong between caches;
 * until ROADMAP item 2 the SMP mode had no coherence protocol, so
 * nothing ping-ponged and nothing invalidated.  This bench drives the
 * canonical sharing patterns -- private (control), producer/consumer
 * (the SPSC-queue shape from Torquati, PAPERS.md), migratory
 * (lock-style read-modify-write ownership handoff), and false sharing
 * (disjoint data in one line) -- on two cores, with coherence off and
 * with snooping MESI attached, and reports completion time plus the
 * full snoop counter set (probes, hits, interventions, invalidations,
 * writebacks-on-snoop, cache-to-cache fills, upgrades).
 *
 * Coherence off is the pre-PR-8 bus: every counter must read zero and
 * the timing must match the legacy model exactly (the byte-identity
 * contract).  With MESI on, private traffic must stay snoop-silent
 * after warm-up misses while the sharing patterns pay for ownership
 * movement -- false sharing as much as true sharing, which is the
 * classic motivation for line-aligned SPSC queue slots.
 */

#include "bench_common.hh"

#include "core/system.hh"
#include "isa/program.hh"

namespace {

using namespace csb;

enum class Pattern { Private, ProducerConsumer, Migratory, FalseSharing };

const char *
patternName(Pattern pattern)
{
    switch (pattern) {
      case Pattern::Private: return "private";
      case Pattern::ProducerConsumer: return "prod/cons";
      case Pattern::Migratory: return "migratory";
      case Pattern::FalseSharing: return "false-share";
    }
    return "?";
}

/** Shared cacheable region; line-aligned, well inside RAM. */
constexpr Addr sharedBase = 0x9000;
/** Private region of core @p c (distinct cache sets from shared). */
constexpr Addr
privateBase(unsigned c)
{
    return 0xa000 + c * 0x1000;
}
constexpr unsigned numLines = 4;
constexpr unsigned rounds = 24;

/** Emit @p rounds passes over @p numLines lines for one core. */
isa::Program
patternProgram(Pattern pattern, unsigned core)
{
    isa::Program p;
    Addr base = pattern == Pattern::Private ? privateBase(core)
                                            : sharedBase;
    p.li(isa::ir(1), static_cast<std::int64_t>(base));
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned l = 0; l < numLines; ++l) {
            std::int64_t off = std::int64_t(l) * 64;
            switch (pattern) {
              case Pattern::Private:
                // Control: each core read-modify-writes its own lines;
                // after the warm-up misses this must be snoop-silent.
                p.ldd(isa::ir(4), isa::ir(1), off);
                p.li(isa::ir(5), std::int64_t(r + 1));
                p.std_(isa::ir(5), isa::ir(1), off);
                break;
              case Pattern::ProducerConsumer:
                // Core 0 publishes, core 1 polls: every producer store
                // invalidates the consumer's copy, every consumer load
                // pulls the line back Shared (cache-to-cache).
                if (core == 0) {
                    p.li(isa::ir(5), std::int64_t(r + 1));
                    p.std_(isa::ir(5), isa::ir(1), off);
                } else {
                    p.ldd(isa::ir(4), isa::ir(1), off);
                }
                break;
              case Pattern::Migratory:
                // Lock-style handoff: both cores read-modify-write the
                // same lines, so exclusive ownership migrates with a
                // demand writeback on every snoop of a Modified line.
                p.ldd(isa::ir(4), isa::ir(1), off);
                p.li(isa::ir(5), std::int64_t(r + 1));
                p.std_(isa::ir(5), isa::ir(1), off);
                break;
              case Pattern::FalseSharing:
                // Disjoint dwords of the SAME line: no data is shared,
                // yet the line ping-pongs exactly like migratory.
                p.li(isa::ir(5), std::int64_t(r + 1));
                p.std_(isa::ir(5), isa::ir(1),
                       off + std::int64_t(core) * 8);
                break;
            }
        }
    }
    p.halt();
    p.finalize();
    return p;
}

struct SharingPoint
{
    double ticks = 0;
    double snoopProbes = 0;
    double snoopHits = 0;
    double interventions = 0;
    double invalidations = 0;
    double snoopWritebacks = 0;
    double c2cFills = 0;
    double upgrades = 0;
};

SharingPoint
measure(Pattern pattern, bool coherent)
{
    core::SystemConfig cfg;
    cfg.numCores = 2;
    cfg.lineBytes = 64;
    cfg.routeMissesOverBus = true;
    if (coherent)
        cfg.coherence.kind = mem::CoherenceKind::Mesi;
    cfg.normalize();
    core::System system(cfg);

    std::vector<isa::Program> programs;
    for (unsigned c = 0; c < 2; ++c)
        programs.push_back(patternProgram(pattern, c));
    for (unsigned c = 0; c < 2; ++c) {
        system.core(c).loadProgram(&programs[c],
                                   static_cast<ProcId>(c + 1));
    }
    system.simulator().run(
        [&] {
            return system.core(0).halted() && system.core(1).halted() &&
                   system.quiescent();
        },
        10'000'000);

    SharingPoint point;
    point.ticks = static_cast<double>(system.simulator().curTick());
    point.snoopProbes = system.bus().snoopProbes.value();
    point.snoopHits = system.bus().snoopHits.value();
    point.interventions = system.bus().snoopInterventions.value();
    point.invalidations = system.bus().snoopInvalidations.value();
    point.snoopWritebacks = system.bus().snoopWritebacks.value();
    for (unsigned c = 0; c < 2; ++c) {
        point.c2cFills += system.caches(c).cacheToCacheFills.value();
        point.upgrades += system.caches(c).upgrades.value();
    }
    return point;
}

} // namespace

int
main(int argc, char **argv)
{
    csb::bench::BenchArgs args = csb::bench::parseArgs(argc, argv);
    csb::bench::JsonReport report("ext_sharing_sweep", args.json);
    core::SweepRunner runner(args.jobs);
    const std::vector<Pattern> patterns = {
        Pattern::Private, Pattern::ProducerConsumer, Pattern::Migratory,
        Pattern::FalseSharing};

    report.print("=== Cached-line sharing patterns, 2 cores (4 lines x "
                 "24 rounds, 64B lines, snooping MESI) ===\n");
    report.print("pattern      base ticks  mesi ticks  probes  hits  "
                 "c2c  upgrades  invals  snoop-wb\n");
    report.beginTable("Sharing patterns under MESI",
                      {"base ticks", "mesi ticks", "snoop probes",
                       "snoop hits", "c2c fills", "upgrades",
                       "invalidations", "snoop writebacks"});
    struct PatternPoint
    {
        SharingPoint base;
        SharingPoint mesi;
    };
    auto rows = runner.mapRendered(
        patterns, [&](Pattern pattern, std::ostream &os) {
            PatternPoint point{measure(pattern, false),
                               measure(pattern, true)};
            char buf[120];
            std::snprintf(buf, sizeof buf,
                          "%-12s %10.0f %11.0f %7.0f %5.0f %4.0f %9.0f "
                          "%7.0f %9.0f\n",
                          patternName(pattern), point.base.ticks,
                          point.mesi.ticks, point.mesi.snoopProbes,
                          point.mesi.snoopHits, point.mesi.c2cFills,
                          point.mesi.upgrades, point.mesi.invalidations,
                          point.mesi.snoopWritebacks);
            os << buf;
            return point;
        });
    for (std::size_t i = 0; i < patterns.size(); ++i) {
        const PatternPoint &point = rows[i].value;
        report.print(rows[i].text);
        report.addRow(patternName(patterns[i]),
                      {point.base.ticks, point.mesi.ticks,
                       point.mesi.snoopProbes, point.mesi.snoopHits,
                       point.mesi.c2cFills, point.mesi.upgrades,
                       point.mesi.invalidations,
                       point.mesi.snoopWritebacks});
    }
    report.print("(base = coherence off, the pre-coherence bus: all "
                 "snoop counters are structurally zero there and are "
                 "shown for the MESI run only.  Private traffic snoops "
                 "only on its warm-up misses and never hits; the "
                 "sharing patterns pay per round -- producer/consumer "
                 "alternates invalidation and cache-to-cache supply, "
                 "migratory adds a demand writeback each handoff, and "
                 "false sharing ping-pongs identically despite sharing "
                 "no data, the classic argument for line-aligned queue "
                 "slots.)\n\n");

    return report.finish();
}
