#include "cache.hh"

#include <algorithm>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace csb::mem {

void
CacheParams::validate() const
{
    if (!isPowerOf2(lineBytes) || lineBytes < 8)
        csb_fatal("cache line must be a power of two >= 8, got ",
                  lineBytes);
    if (assoc == 0)
        csb_fatal("cache assoc must be non-zero");
    if (sizeBytes == 0)
        csb_fatal("cache sizeBytes must be non-zero");
    // 64-bit: a 32-bit assoc * lineBytes can wrap to 0.
    const std::uint64_t set_bytes = std::uint64_t(assoc) * lineBytes;
    if (set_bytes > sizeBytes)
        csb_fatal("cache assoc ", assoc, " x lineBytes ", lineBytes,
                  " exceeds sizeBytes ", sizeBytes);
    if (sizeBytes % set_bytes != 0)
        csb_fatal("cache sizeBytes ", sizeBytes,
                  " not divisible by assoc*lineBytes ", set_bytes);
}

Cache::Cache(const CacheParams &params, std::string name,
             sim::stats::StatGroup *stat_parent)
    : sim::stats::StatGroup(std::move(name), stat_parent),
      hits(this, "hits", "cache hits"),
      misses(this, "misses", "cache misses"),
      writebacks(this, "writebacks", "dirty lines evicted"),
      params_(params)
{
    params_.validate();
    numSets_ = params_.sizeBytes / (params_.assoc * params_.lineBytes);
    slot_.assign(numSets_, 0);
}

unsigned
Cache::setIndex(Addr addr) const
{
    return static_cast<unsigned>((addr / params_.lineBytes) % numSets_);
}

Cache::Line *
Cache::liveSet(unsigned set)
{
    const std::uint32_t slot = slot_[set];
    return slot ? &pool_[std::size_t(slot - 1) * params_.assoc] : nullptr;
}

Cache::Line *
Cache::makeLive(unsigned set)
{
    if (Line *ways = liveSet(set))
        return ways;
    // Value-initialized: all zero, the invalid lines a set holds
    // before its first fill.
    pool_.resize(pool_.size() + params_.assoc);
    slot_[set] = static_cast<std::uint32_t>(pool_.size() / params_.assoc);
    return &pool_[pool_.size() - params_.assoc];
}

Cache::Line *
Cache::findLine(Addr addr)
{
    Line *ways = liveSet(setIndex(addr));
    if (!ways)
        return nullptr;
    Addr tag = addr / params_.lineBytes;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (ways[w].valid && ways[w].tag == tag)
            return &ways[w];
    }
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

Cache::AccessResult
Cache::access(Addr addr, bool is_write)
{
    ++useClock_;
    AccessResult result;

    if (Line *line = findLine(addr)) {
        line->lastUse = useClock_;
        line->dirty = line->dirty || is_write;
        if (is_write)
            line->shared = false; // S -> M; the hierarchy upgrades first
        result.hit = true;
        ++hits;
        return result;
    }

    ++misses;

    // Fill over the LRU way, bringing the set to life on its first fill.
    Addr tag = addr / params_.lineBytes;
    Line *ways = makeLive(setIndex(addr));
    Line *victim = ways;
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Line &line = ways[w];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lastUse < victim->lastUse)
            victim = &line;
    }
    if (victim->valid && victim->dirty) {
        result.writeback = true;
        result.writebackAddr = victim->tag * params_.lineBytes;
        ++writebacks;
    }
    victim->tag = tag;
    victim->valid = true;
    victim->dirty = is_write;
    victim->shared = false; // fills land E/M; Shared is overlaid after
    victim->lastUse = useClock_;
    return result;
}

LineState
Cache::lineState(Addr addr) const
{
    const Line *line = findLine(addr);
    return line ? line->state() : LineState::Invalid;
}

void
Cache::setLineState(Addr addr, LineState state)
{
    if (Line *line = findLine(addr))
        line->setState(state);
}

void
Cache::checkpointSave(sim::CheckpointWriter &cw) const
{
    cw.putU64(useClock_);
    cw.putU64(numLines());
    // Only live sets, in index order: a set that never came alive
    // holds nothing but invalid lines.
    cw.putU32(static_cast<std::uint32_t>(pool_.size() / params_.assoc));
    for (unsigned set = 0; set < numSets_; ++set) {
        const Line *ways = const_cast<Cache *>(this)->liveSet(set);
        if (!ways)
            continue;
        cw.putU32(set);
        for (unsigned w = 0; w < params_.assoc; ++w) {
            const Line &line = ways[w];
            cw.putU64(line.tag);
            // One flags byte: bit0 valid, bit1 dirty, bit2 shared.
            std::uint8_t flags = (line.valid ? 1u : 0u) |
                                 (line.dirty ? 2u : 0u) |
                                 (line.shared ? 4u : 0u);
            cw.putU8(flags);
            cw.putU64(line.lastUse);
        }
    }
}

void
Cache::checkpointRestore(sim::CheckpointReader &cr)
{
    useClock_ = cr.getU64();
    const std::uint64_t count = cr.getU64();
    if (count != numLines())
        csb_fatal("checkpoint cache '", statName(), "' has ", count,
                  " lines, this cache has ", numLines(),
                  " -- geometry mismatch");
    const std::uint32_t live = cr.getU32();
    if (live > numSets_)
        csb_fatal("checkpoint cache '", statName(), "' lists ", live,
                  " live sets, this cache has ", numSets_, " sets");
    // Sets live here but absent from the image become invalid lines,
    // keeping their storage, so restoring never orphans pool lines.
    std::fill(pool_.begin(), pool_.end(), Line{});
    for (std::uint32_t i = 0, prev = 0; i < live; ++i) {
        const std::uint32_t set = cr.getU32();
        if (set >= numSets_)
            csb_fatal("checkpoint cache '", statName(), "' lists set ",
                      set, ", this cache has ", numSets_, " sets");
        if (i > 0 && set <= prev)
            csb_fatal("checkpoint cache '", statName(), "' lists set ",
                      set, " after set ", prev,
                      " -- set indices must strictly increase");
        prev = set;
        Line *ways = makeLive(set);
        for (unsigned w = 0; w < params_.assoc; ++w) {
            Line &line = ways[w];
            line.tag = cr.getU64();
            std::uint8_t flags = cr.getU8();
            line.valid = (flags & 1) != 0;
            line.dirty = (flags & 2) != 0;
            line.shared = (flags & 4) != 0;
            line.lastUse = cr.getU64();
        }
    }
}

CacheHierarchy::CacheHierarchy(const CacheParams &l1, const CacheParams &l2,
                               Tick mem_latency, std::string name,
                               sim::stats::StatGroup *stat_parent)
    : sim::stats::StatGroup(std::move(name), stat_parent),
      upgrades(this, "upgrades",
               "S->M upgrade broadcasts issued"),
      cacheToCacheFills(this, "cacheToCacheFills",
                        "fills supplied by another cache"),
      snoopHits(this, "snoopHits",
                "snoop probes answered with a valid copy"),
      snoopInvalidations(this, "snoopInvalidations",
                         "local copies invalidated by remote probes"),
      snoopWritebacks(this, "snoopWritebacks",
                      "dirty copies demand-written-back on probes"),
      l1_(l1, "l1", this), l2_(l2, "l2", this), memLatency_(mem_latency)
{
}

void
CacheHierarchy::setCoherence(const CoherencePolicy *policy,
                             const CoherenceParams &params,
                             SnoopBroadcast broadcast)
{
    csb_assert(policy && broadcast,
               "setCoherence needs a policy and a broadcast hook");
    cohPolicy_ = policy;
    cohParams_ = params;
    snoopBroadcast_ = std::move(broadcast);
}

LineState
CacheHierarchy::lineState(Addr addr) const
{
    LineState a = l1_.lineState(addr);
    LineState b = l2_.lineState(addr);
    return static_cast<unsigned>(a) >= static_cast<unsigned>(b) ? a : b;
}

CacheHierarchy::CohOutcome
CacheHierarchy::coherentPre(Addr addr, bool is_write)
{
    CohOutcome o;
    if (!cohPolicy_)
        return o;

    Addr line = roundDown(addr, l2_.params().lineBytes);
    LineState st = lineState(line);
    if (st == LineState::Invalid) {
        // Full-hierarchy miss: announce the fill so owners downgrade
        // (Read) or every copy dies (ReadExclusive) before we fill.
        bus::SnoopSummary sum = snoopBroadcast_(
            line, is_write ? bus::SnoopKind::ReadExclusive
                           : bus::SnoopKind::Read);
        o.isFill = true;
        o.supplied = sum.supplied;
        LineState fill = cohPolicy_->fillState(is_write, sum.hadCopy);
        o.fillShared = fill == LineState::Shared;
        if (o.supplied)
            ++cacheToCacheFills;
        return o;
    }
    if (is_write && cohPolicy_->writeNeedsUpgrade(st)) {
        snoopBroadcast_(line, bus::SnoopKind::Upgrade);
        ++upgrades;
        o.extra = cohParams_.upgradeLatency;
    }
    return o;
}

void
CacheHierarchy::applyFill(Addr addr, const CohOutcome &o)
{
    if (!cohPolicy_)
        return;
    Addr line = roundDown(addr, l2_.params().lineBytes);
    if (o.isFill) {
        if (o.fillShared) {
            l1_.setLineState(line, LineState::Shared);
            l2_.setLineState(line, LineState::Shared);
        }
        return;
    }
    // An L1 refill from a Shared L2 copy must stay Shared, or a later
    // write to the seemingly-Exclusive L1 line would skip the upgrade
    // broadcast and leave stale remote copies behind.
    if (l2_.lineState(line) == LineState::Shared &&
        l1_.lineState(line) == LineState::Exclusive) {
        l1_.setLineState(line, LineState::Shared);
    }
}

bus::SnoopReply
CacheHierarchy::snoopProbe(Addr line_addr, bus::SnoopKind kind)
{
    csb_assert(cohPolicy_, "snoopProbe on a non-coherent hierarchy");
    bus::SnoopReply reply;
    LineState st = lineState(line_addr);
    if (st == LineState::Invalid)
        return reply;

    SnoopAction act = cohPolicy_->snoop(st, kind);
    reply.hadCopy = true;
    reply.supplied = act.supply;
    reply.wroteBack = act.writeback;
    reply.invalidated = act.next == LineState::Invalid;

    ++snoopHits;
    if (act.writeback) {
        ++snoopWritebacks;
        // Demand write-back: memory stops being behind the owner.  The
        // payload is a snapshot of an image stores keep current, so
        // this is pure bus traffic (BusTransaction::snapshotPayload).
        if (lineWriteback_)
            lineWriteback_(line_addr);
    }
    if (reply.invalidated)
        ++snoopInvalidations;

    l1_.setLineState(line_addr, act.next);
    l2_.setLineState(line_addr, act.next);
    return reply;
}

Tick
CacheHierarchy::accessLatency(Addr addr, bool is_write)
{
    CohOutcome coh = coherentPre(addr, is_write);
    Tick latency = coh.extra + l1_.params().hitLatency;
    Cache::AccessResult r1 = l1_.access(addr, is_write);
    if (r1.hit) {
        applyFill(addr, coh);
        return latency;
    }

    // The L1 is write-back; a dirty victim moves into the L2.
    if (r1.writeback)
        l2_.access(r1.writebackAddr, /*is_write=*/true);

    latency += l2_.params().hitLatency;
    Cache::AccessResult r2 = l2_.access(addr, /*is_write=*/false);
    if (r2.hit) {
        applyFill(addr, coh);
        return latency;
    }

    if (r2.writeback && lineWriteback_)
        lineWriteback_(roundDown(r2.writebackAddr, l2_.params().lineBytes));

    applyFill(addr, coh);
    // A cache-to-cache intervention beats DRAM on the fixed-latency
    // path; bus-routed fetches keep the bus's own timing.
    Tick fill = coh.supplied ? cohParams_.cacheToCacheLatency
                             : memLatency_;
    return latency + fill;
}

void
CacheHierarchy::access(Addr addr, bool is_write, Tick now,
                       const std::function<void(Tick)> &done)
{
    csb_assert(deferredCall, "CacheHierarchy::access needs deferredCall");

    CohOutcome coh = coherentPre(addr, is_write);
    Tick latency = coh.extra + l1_.params().hitLatency;
    Cache::AccessResult r1 = l1_.access(addr, is_write);
    if (r1.hit) {
        applyFill(addr, coh);
        deferredCall(now + latency, [done, t = now + latency] { done(t); });
        return;
    }
    if (r1.writeback)
        l2_.access(r1.writebackAddr, /*is_write=*/true);

    latency += l2_.params().hitLatency;
    Cache::AccessResult r2 = l2_.access(addr, /*is_write=*/false);
    if (r2.hit) {
        applyFill(addr, coh);
        deferredCall(now + latency, [done, t = now + latency] { done(t); });
        return;
    }
    if (r2.writeback && lineWriteback_)
        lineWriteback_(roundDown(r2.writebackAddr, l2_.params().lineBytes));

    applyFill(addr, coh);
    if (lineFetch_) {
        // Route the fill over the bus: completion when the line read
        // returns, plus the lookup latencies already charged.
        Addr line_addr = roundDown(addr, l2_.params().lineBytes);
        Tick lookup_done = now + latency;
        lineFetch_(line_addr, [done, lookup_done](Tick fill_done) {
            done(fill_done > lookup_done ? fill_done : lookup_done);
        });
    } else {
        Tick fill = coh.supplied ? cohParams_.cacheToCacheLatency
                                 : memLatency_;
        Tick t = now + latency + fill;
        deferredCall(t, [done, t] { done(t); });
    }
}

void
CacheHierarchy::checkpointSave(sim::CheckpointWriter &cw) const
{
    l1_.checkpointSave(cw);
    l2_.checkpointSave(cw);
}

void
CacheHierarchy::checkpointRestore(sim::CheckpointReader &cr)
{
    l1_.checkpointRestore(cr);
    l2_.checkpointRestore(cr);
}

void
CacheHierarchy::touch(Addr addr)
{
    l2_.access(addr, /*is_write=*/false);
    l1_.access(addr, /*is_write=*/false);
}

} // namespace csb::mem
