#include "oracle.hh"

#include <cstring>
#include <memory>
#include <sstream>

#include "core/system.hh"
#include "cpu/reference_executor.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace csb::litmus {

using core::System;
using core::SystemConfig;

const char *
schemeName(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Pio: return "pio";
      case Scheme::Dma: return "dma";
      case Scheme::Csb: return "csb";
    }
    return "?";
}

const char *
ctxModeName(CtxMode mode)
{
    switch (mode) {
      case CtxMode::Smp: return "smp";
      case CtxMode::Sched: return "sched";
    }
    return "?";
}

std::string
RunSpec::name() const
{
    std::ostringstream os;
    os << schemeName(scheme) << "/" << ctxModeName(mode);
    if (mode == CtxMode::Sched)
        os << "(q=" << quantum << ")";
    if (faults)
        os << "/faults";
    if (!schedule.empty())
        os << "/scheduled";
    if (dropFlushRate > 0)
        os << "/drop-flush";
    if (coherent)
        os << "/mesi";
    if (smallCaches)
        os << "/tiny";
    return os.str();
}

namespace {

constexpr Tick kMaxTicks = 5'000'000;

SystemConfig
configFor(const RunSpec &spec, unsigned contexts)
{
    SystemConfig cfg;
    cfg.numCores = spec.mode == CtxMode::Smp ? contexts : 1;
    // The CSB stays enabled under every scheme: litmus programs
    // contain combining bursts whose retry loops would never exit
    // without it.  The scheme varies the *other* uncached path.
    cfg.enableCsb = true;
    switch (spec.scheme) {
      case Scheme::Pio:
        cfg.ubuf.combineBytes = 0;
        break;
      case Scheme::Dma:
        cfg.ubuf.combineBytes = cfg.lineBytes;
        cfg.ubuf.policy = mem::CombinePolicy::Block;
        cfg.routeMissesOverBus = true;
        break;
      case Scheme::Csb:
        cfg.ubuf.combineBytes = cfg.lineBytes;
        cfg.ubuf.policy = mem::CombinePolicy::SequentialOnly;
        cfg.csb.partialFlush = true;
        cfg.csb.numLineBuffers = 2;
        break;
    }
    if (spec.faults) {
        cfg.faults.seed = spec.faultSeed;
        cfg.faults.busWriteNackRate = 0.01;
        cfg.faults.busReadNackRate = 0.01;
    }
    if (!spec.schedule.empty()) {
        cfg.faults.seed = spec.faultSeed;
        cfg.faults.schedule = sim::parseFaultSchedule(spec.schedule);
    }
    if (spec.dropFlushRate > 0) {
        cfg.faults.seed = spec.faultSeed;
        cfg.faults.csbFlushDropRate = spec.dropFlushRate;
    }
    if (spec.coherent)
        cfg.coherence.kind = mem::CoherenceKind::Mesi;
    if (spec.smallCaches) {
        // Two direct-mapped sets per level: consecutive arena lines
        // collide, so dirty evictions (and, under Dma, bus writebacks
        // of in-flight lines) happen constantly instead of never.
        cfg.l1 = mem::CacheParams{128, 1, cfg.lineBytes, /*hitLatency=*/2};
        cfg.l2 = mem::CacheParams{128, 1, cfg.lineBytes, /*hitLatency=*/8};
    }
    // Livelock (e.g. a retry loop that never converges) must surface
    // as a diagnosable failure, not a hung harness.
    cfg.watchdogTicks = 200'000;
    cfg.normalize();
    return cfg;
}

std::string
hex(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

void
compareArchState(const cpu::ArchState &got, const cpu::ArchState &ref,
                 std::size_t ctx, std::vector<Discrepancy> &out)
{
    for (int r = 0; r < isa::numIntRegs; ++r) {
        if (got.intRegs[r] != ref.intRegs[r]) {
            out.push_back({"ctx " + std::to_string(ctx) + ": %r" +
                           std::to_string(r) + " = " +
                           hex(got.intRegs[r]) + ", reference " +
                           hex(ref.intRegs[r])});
        }
    }
    for (int f = 0; f < isa::numFpRegs; ++f) {
        if (got.fpRegs[f] != ref.fpRegs[f]) {
            out.push_back({"ctx " + std::to_string(ctx) + ": %f" +
                           std::to_string(f) + " = " +
                           hex(got.fpRegs[f]) + ", reference " +
                           hex(ref.fpRegs[f])});
        }
    }
    if (got.pc != ref.pc) {
        out.push_back({"ctx " + std::to_string(ctx) + ": final pc " +
                       std::to_string(got.pc) + ", reference " +
                       std::to_string(ref.pc)});
    }
}

} // namespace

RunResult
runCase(const TestCase &tc, const RunSpec &spec,
        sim::TraceRecorder *recorder)
{
    RunResult result;
    auto &out = result.discrepancies;

    std::size_t contexts = tc.contexts.size();
    csb_assert(contexts > 0, "litmus: empty case");
    // The sequential reference is only an oracle because contexts
    // touch disjoint arenas/windows; reject (loudly, with the exact
    // token) any case that breaks that assumption instead of letting
    // it silently invalidate every verdict.
    tc.validateDisjointness();

    std::vector<isa::Program> programs;
    programs.reserve(contexts);
    for (std::size_t c = 0; c < contexts; ++c)
        programs.push_back(lowerContext(tc, c));

    // --- Sequential reference.
    SystemConfig cfg = configFor(spec, unsigned(contexts));
    cpu::RefCsbModel ref_csb;
    ref_csb.lineBytes = cfg.csb.lineBytes;
    ref_csb.checkAddress = cfg.csb.checkAddress;
    ref_csb.partialFlush = cfg.csb.partialFlush;
    cpu::ReferenceExecutor reference(ref_csb);
    System::mapIoPages(reference.pageTable(), cfg);
    for (std::size_t c = 0; c < contexts; ++c) {
        unsigned unit =
            spec.mode == CtxMode::Smp ? unsigned(c) : 0u;
        reference.addContext(&programs[c], tc.contexts[c].pid, unit);
    }
    reference.run();

    // --- Cycle model.
    try {
        System system(cfg);
        if (recorder)
            system.attachTraceRecorder(recorder);

        std::unique_ptr<cpu::ContextScheduler> sched;
        bool done = false;
        if (spec.mode == CtxMode::Smp) {
            for (std::size_t c = 0; c < contexts; ++c)
                system.core(unsigned(c))
                    .loadProgram(&programs[c], tc.contexts[c].pid);
            system.simulator().run(
                [&] {
                    for (unsigned c = 0; c < system.numCores(); ++c) {
                        if (!system.core(c).halted())
                            return false;
                    }
                    return system.quiescent();
                },
                kMaxTicks);
            done = system.quiescent();
            for (unsigned c = 0; c < system.numCores(); ++c)
                done = done && system.core(c).halted();
        } else {
            sched = std::make_unique<cpu::ContextScheduler>(
                system.simulator(), system.core(), spec.quantum);
            for (std::size_t c = 0; c < contexts; ++c)
                sched->addProcess(&programs[c], tc.contexts[c].pid);
            sched->start();
            system.simulator().run(
                [&] {
                    return sched->allFinished() && system.quiescent();
                },
                kMaxTicks);
            done = sched->allFinished() && system.quiescent();
        }
        if (!done) {
            out.push_back({"run did not reach quiescence within " +
                           std::to_string(kMaxTicks) + " ticks"});
            return result;
        }

        // Architectural state, per context.
        for (std::size_t c = 0; c < contexts; ++c) {
            const cpu::ArchState &got =
                spec.mode == CtxMode::Smp
                    ? system.core(unsigned(c)).archState()
                    : sched->finalState(c);
            compareArchState(got, reference.state(c), c, out);
        }

        // Cached arenas, byte for byte.
        for (std::size_t c = 0; c < contexts; ++c) {
            std::vector<std::uint8_t> ref_arena(arenaBytes);
            std::vector<std::uint8_t> got_arena(arenaBytes);
            reference.memory().read(arenaBase(c), ref_arena.data(),
                                    arenaBytes);
            system.memory().read(arenaBase(c), got_arena.data(),
                                 arenaBytes);
            for (unsigned i = 0; i < arenaBytes; ++i) {
                if (got_arena[i] != ref_arena[i]) {
                    out.push_back(
                        {"ctx " + std::to_string(c) + ": arena byte " +
                         hex(arenaBase(c) + i) + " = " +
                         std::to_string(got_arena[i]) + ", reference " +
                         std::to_string(ref_arena[i])});
                    break; // one per arena keeps reports readable
                }
            }
        }

        // Device image: replay the device's write log over the
        // reference image's addresses (the last write of a byte wins)
        // and name the first difference in either direction.  Of the
        // bytes the reference never wrote, the lowest is reported.
        const cpu::IoImage &ref_image = reference.ioImage();
        constexpr int unwritten = -1;
        std::vector<int> got(ref_image.size(), unwritten);
        const cpu::IoImage::value_type *unexpected = nullptr;
        cpu::IoImage::value_type unexpected_byte;
        for (const io::DeviceWrite &w : system.device().writeLog()) {
            auto ref = cpu::ioLowerBound(ref_image, w.addr);
            for (std::size_t i = 0; i < w.data.size(); ++i) {
                Addr addr = w.addr + Addr(i);
                while (ref != ref_image.end() && ref->first < addr)
                    ++ref;
                if (ref != ref_image.end() && ref->first == addr) {
                    got[std::size_t(ref - ref_image.begin())] = w.data[i];
                } else if (!unexpected || addr <= unexpected->first) {
                    unexpected_byte = {addr, w.data[i]};
                    unexpected = &unexpected_byte;
                }
            }
        }
        std::string detail;
        for (std::size_t k = 0; k < ref_image.size() && detail.empty();
             ++k) {
            const auto &[addr, byte] = ref_image[k];
            if (got[k] == unwritten) {
                detail = "device byte " + hex(addr) +
                         " missing (reference " + std::to_string(byte) +
                         ")";
            } else if (got[k] != byte) {
                detail = "device byte " + hex(addr) + " = " +
                         std::to_string(got[k]) + ", reference " +
                         std::to_string(byte);
            }
        }
        if (detail.empty() && unexpected) {
            detail = "unexpected device byte " + hex(unexpected->first) +
                     " = " + std::to_string(unexpected->second);
        }
        if (!detail.empty())
            out.push_back({detail});

        // CSB exactly-once accounting, per unit.
        unsigned units = spec.mode == CtxMode::Smp
                             ? system.numCores()
                             : 1;
        for (unsigned u = 0; u < units; ++u) {
            const mem::ConditionalStoreBuffer *unit = system.csb(u);
            if (!unit)
                continue;
            auto succeeded =
                std::uint64_t(unit->flushesSucceeded.value());
            auto failed = std::uint64_t(unit->flushesFailed.value());
            auto attempted =
                std::uint64_t(unit->flushesAttempted.value());
            auto issued = std::uint64_t(unit->linesIssued.value());
            std::uint64_t want = reference.csbFlushesSucceeded(u);
            if (succeeded != want) {
                out.push_back(
                    {"csb" + std::to_string(u) + ": " +
                     std::to_string(succeeded) +
                     " successful flushes, reference " +
                     std::to_string(want)});
            }
            if (issued != succeeded) {
                out.push_back(
                    {"csb" + std::to_string(u) +
                     ": exactly-once violated: " +
                     std::to_string(issued) + " lines issued for " +
                     std::to_string(succeeded) +
                     " successful flushes"});
            }
            if (attempted != succeeded + failed) {
                out.push_back(
                    {"csb" + std::to_string(u) +
                     ": flush accounting broken: " +
                     std::to_string(attempted) + " attempted != " +
                     std::to_string(succeeded) + " + " +
                     std::to_string(failed)});
            }
        }

        // Strong-ordering check: under PIO every uncached store is its
        // own device write, so each context's window must receive
        // exactly the reference's transaction sequence, in order.
        // Combining schemes merge legally; fault injection reorders
        // nothing (the retry queue preserves per-master order) but
        // keep the check on clean runs only, where the claim is exact.
        if (spec.scheme == Scheme::Pio && !spec.faults &&
            spec.schedule.empty()) {
            for (std::size_t c = 0; c < contexts; ++c) {
                Addr lo = uncachedWindow(c);
                Addr hi = lo + 0x1000;
                std::vector<cpu::RefIoWrite> got_writes;
                for (const io::DeviceWrite &w :
                     system.device().writeLog()) {
                    if (w.addr < lo || w.addr >= hi)
                        continue;
                    std::uint64_t bits = 0;
                    std::memcpy(&bits, w.data.data(),
                                std::min<std::size_t>(w.data.size(),
                                                      8));
                    got_writes.push_back(
                        {w.addr, unsigned(w.data.size()), bits});
                }
                const auto &want_writes = reference.ioWrites(c);
                if (got_writes != want_writes) {
                    out.push_back(
                        {"ctx " + std::to_string(c) +
                         ": uncached write stream diverged (" +
                         std::to_string(got_writes.size()) +
                         " writes, reference " +
                         std::to_string(want_writes.size()) + ")"});
                }
            }
        }
    } catch (const FatalError &err) {
        out.push_back({std::string("fatal error: ") + err.what()});
    }
    return result;
}

} // namespace csb::litmus
