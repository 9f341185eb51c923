/**
 * @file
 * Write-back caches and the two-level hierarchy used by the core.
 *
 * The paper's experiments need caches for exactly one reason: the
 * lock variable of the locking microbenchmark either hits in the L1
 * or misses all the way to memory (~100 CPU cycles).  The model is a
 * tag-state-plus-latency cache: tags, LRU and dirty bits are tracked
 * precisely, while a miss costs the level's fill latency.  Misses may
 * optionally be routed over the system bus as line reads so that they
 * compete with uncached traffic.
 *
 * Multi-core systems may attach a snooping CoherencePolicy (MESI by
 * default, docs/ARCHITECTURE.md).  Each line then carries a full
 * MESI state, encoded as the legacy valid/dirty pair plus a `shared`
 * overlay bit: Invalid = !valid, Modified = dirty, Shared = clean +
 * shared, Exclusive = clean + !shared.  Without a policy the shared
 * bit is never set and every code path below is bit-identical to the
 * pre-coherence caches -- that is what keeps single-core artifacts
 * byte-stable (DESIGN.md).
 */

#ifndef CSB_MEM_CACHE_HH
#define CSB_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bus/snoop.hh"
#include "mem/coherence.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace csb::sim {
class CheckpointWriter;
class CheckpointReader;
} // namespace csb::sim

namespace csb::mem {

/** Geometry and timing of one cache level. */
struct CacheParams
{
    unsigned sizeBytes = 32 * 1024;
    unsigned assoc = 2;
    unsigned lineBytes = 64;
    /** Latency of a hit in this level, in CPU ticks. */
    Tick hitLatency = 1;

    void validate() const;
};

/**
 * One cache level: tags + replacement state, no data (the functional
 * image lives in PhysicalMemory).
 */
class Cache : public sim::stats::StatGroup
{
  public:
    Cache(const CacheParams &params, std::string name,
          sim::stats::StatGroup *stat_parent = nullptr);

    /** Result of a lookup+fill. */
    struct AccessResult
    {
        bool hit = false;
        /** Valid when a dirty victim was evicted by the fill. */
        bool writeback = false;
        Addr writebackAddr = 0;
    };

    /**
     * Look up @p addr; on a miss, allocate (filling over LRU).
     * @param is_write marks the line dirty
     */
    AccessResult access(Addr addr, bool is_write);

    /** Coherence state of the line holding @p addr (no LRU update). */
    LineState lineState(Addr addr) const;

    /**
     * Force the line holding @p addr into @p state (snoop/fill
     * transitions; no LRU update, no stats).  A miss is a no-op
     * unless @p state is Invalid, which is always a no-op on a miss.
     */
    void setLineState(Addr addr, LineState state);

    const CacheParams &params() const { return params_; }

    /**
     * Serialize tag/state/LRU per line of each live set (not stats --
     * those travel with the stats tree).  Restore verifies identical
     * geometry and the set list, fills the listed sets and leaves
     * every other set invalid.
     */
    void checkpointSave(sim::CheckpointWriter &cw) const;
    void checkpointRestore(sim::CheckpointReader &cr);

    sim::stats::Scalar hits;
    sim::stats::Scalar misses;
    sim::stats::Scalar writebacks;

    /** Lines allocated so far: assoc per set that ever came alive. */
    std::size_t allocatedLines() const { return pool_.size(); }

  private:
    /** Value-initialized (all zero) means invalid. */
    struct Line
    {
        Addr tag;
        bool valid;
        bool dirty;
        /** Coherence overlay: another cache also holds this line. */
        bool shared;
        std::uint64_t lastUse;

        LineState
        state() const
        {
            if (!valid)
                return LineState::Invalid;
            if (dirty)
                return LineState::Modified;
            return shared ? LineState::Shared : LineState::Exclusive;
        }

        void
        setState(LineState s)
        {
            valid = s != LineState::Invalid;
            dirty = s == LineState::Modified;
            shared = s == LineState::Shared;
        }
    };

    unsigned numSets_ = 0;
    CacheParams params_;

    /**
     * Per set: 1 + its slot in pool_, or 0 while the set is not live.
     * A set that is not live reads as all invalid.
     */
    std::vector<std::uint32_t> slot_;
    /**
     * assoc lines per slot, in the order sets came alive.  Growing it
     * moves every line, so no Line* is held across a fill.
     */
    std::vector<Line> pool_;
    std::uint64_t useClock_ = 0;

    std::size_t
    numLines() const
    {
        return std::size_t(numSets_) * params_.assoc;
    }

    /** First line of @p set, or null while the set is not live. */
    Line *liveSet(unsigned set);
    /** First line of @p set, bringing it alive (all invalid) first. */
    Line *makeLive(unsigned set);
    Line *findLine(Addr addr);
    const Line *findLine(Addr addr) const;
    unsigned setIndex(Addr addr) const;
};

/**
 * L1 + L2 hierarchy with asynchronous completion.
 *
 * Miss handling beyond the L2 goes through a pluggable line-fetch
 * function so the owning System can route it over the system bus; by
 * default a fixed memory latency is charged.
 *
 * With a coherence policy attached (setCoherence) the hierarchy is
 * one snoopable coherence unit: probes from other masters transition
 * both levels, misses broadcast Read/ReadExclusive probes before
 * filling, and a write hit on a Shared line broadcasts an Upgrade.
 */
class CacheHierarchy : public sim::stats::StatGroup, public bus::Snooper
{
  public:
    /** fetch(line_addr, done): read a line; call done when complete. */
    using LineFetch =
        std::function<void(Addr line_addr, std::function<void(Tick)> done)>;
    /** writeback(line_addr): fire-and-forget dirty eviction. */
    using LineWriteback = std::function<void(Addr line_addr)>;
    /** Broadcast a snoop probe to every other cached master. */
    using SnoopBroadcast =
        std::function<bus::SnoopSummary(Addr line_addr, bus::SnoopKind)>;

    CacheHierarchy(const CacheParams &l1, const CacheParams &l2,
                   Tick mem_latency, std::string name = "caches",
                   sim::stats::StatGroup *stat_parent = nullptr);

    /**
     * Access the hierarchy.
     * @param addr     byte address (access must not cross an L1 line)
     * @param is_write marks lines dirty on the way
     * @param now      current tick
     * @param done     invoked with the completion tick
     */
    void access(Addr addr, bool is_write, Tick now,
                const std::function<void(Tick)> &done);

    /**
     * Pure latency variant used by callers that schedule their own
     * events: @return total latency in ticks for this access.
     * Only usable when no bus-routed fetch is installed.
     */
    Tick accessLatency(Addr addr, bool is_write);

    /** Route L2 misses through @p fetch (e.g. over the system bus). */
    void setLineFetch(LineFetch fetch) { lineFetch_ = std::move(fetch); }

    /** Route dirty evictions through @p writeback. */
    void
    setLineWriteback(LineWriteback writeback)
    {
        lineWriteback_ = std::move(writeback);
    }

    /**
     * Attach a snooping coherence policy.  @p broadcast is invoked
     * synchronously on misses and upgrades and must probe every other
     * coherent hierarchy (the SystemBus provides it).  @p policy is
     * borrowed and must outlive the hierarchy.
     */
    void setCoherence(const CoherencePolicy *policy,
                      const CoherenceParams &params,
                      SnoopBroadcast broadcast);

    bool coherent() const { return cohPolicy_ != nullptr; }

    /** Strongest coherence state either level holds for @p addr. */
    LineState lineState(Addr addr) const;

    /** bus::Snooper: apply @p kind to both levels, report what
     *  happened.  A Modified copy demand-writes-back via the
     *  line-writeback hook before downgrading. */
    bus::SnoopReply snoopProbe(Addr line_addr, bus::SnoopKind kind) override;

    /** Warm both levels so a subsequent access to @p addr hits in L1.
     *  Test/bench helper; bypasses the snoop path. */
    void touch(Addr addr);

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Tick memLatency() const { return memLatency_; }

    /** Serialize both levels (see Cache::checkpointSave). */
    void checkpointSave(sim::CheckpointWriter &cw) const;
    void checkpointRestore(sim::CheckpointReader &cr);

    // Coherence statistics (zero and inert without a policy).
    /** Upgrade broadcasts issued (local write hit on a Shared line). */
    sim::stats::Scalar upgrades;
    /** Fills supplied cache-to-cache by another hierarchy. */
    sim::stats::Scalar cacheToCacheFills;
    /** Probes this hierarchy answered with a valid copy. */
    sim::stats::Scalar snoopHits;
    /** Local copies invalidated by remote probes. */
    sim::stats::Scalar snoopInvalidations;
    /** Dirty copies demand-written-back on remote probes. */
    sim::stats::Scalar snoopWritebacks;

  private:
    /** Outcome of the coherence pre-check of one access. */
    struct CohOutcome
    {
        /** Extra ticks (upgrade broadcast round-trip). */
        Tick extra = 0;
        /** The access is a full-hierarchy fill. */
        bool isFill = false;
        /** Another cache supplies the fill (intervention). */
        bool supplied = false;
        /** The fill lands Shared (another cache keeps a copy). */
        bool fillShared = false;
    };

    /** Broadcast probes / decide fill state before touching tags. */
    CohOutcome coherentPre(Addr addr, bool is_write);
    /** Overlay the Shared fill state after the tags were filled. */
    void applyFill(Addr addr, const CohOutcome &o);

    Cache l1_;
    Cache l2_;
    Tick memLatency_;
    LineFetch lineFetch_;
    LineWriteback lineWriteback_;
    const CoherencePolicy *cohPolicy_ = nullptr;
    CoherenceParams cohParams_;
    SnoopBroadcast snoopBroadcast_;
    /** Pending completions are scheduled via this hook (set by System). */
  public:
    /** Scheduler used for delayed completions; set by the System. */
    std::function<void(Tick when, std::function<void()>)> deferredCall;
};

} // namespace csb::mem

#endif // CSB_MEM_CACHE_HH
