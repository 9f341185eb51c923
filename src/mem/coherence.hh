/**
 * @file
 * Cache-coherence policies for the snooping bus (docs/ARCHITECTURE.md,
 * "Cache coherence").
 *
 * The caches are tag-state-plus-latency models: the functional image
 * lives in PhysicalMemory and stores commit to it in program order,
 * so a coherence protocol here governs two things --
 *
 *  1. timing: whether a cached access hits silently, needs an
 *     upgrade broadcast, or misses to memory / another cache; and
 *  2. the one functional hazard the tag model does have: a dirty
 *     line's write-back payload going stale in flight (see
 *     BusTransaction::snapshotPayload).
 *
 * A CoherencePolicy is a pure transition table over per-line states.
 * MESI is the default; the interface is small enough that MOESI or an
 * update protocol (Dragon) can slot in without touching the caches or
 * the bus.
 */

#ifndef CSB_MEM_COHERENCE_HH
#define CSB_MEM_COHERENCE_HH

#include <cstdint>
#include <memory>

#include "bus/snoop.hh"
#include "sim/types.hh"

namespace csb::mem {

/**
 * Per-line coherence state.  Without a coherence policy only
 * Invalid/Exclusive/Modified occur (plain valid/dirty); Shared exists
 * only when a snooping policy is attached.
 */
enum class LineState : std::uint8_t {
    Invalid = 0,
    Shared = 1,
    Exclusive = 2,
    Modified = 3,
};

/** Which protocol a system runs. */
enum class CoherenceKind : std::uint8_t {
    None = 0, ///< private caches, no snooping (single-core semantics)
    Mesi = 1,
};

/** Coherence knobs of a SystemConfig. */
struct CoherenceParams
{
    CoherenceKind kind = CoherenceKind::None;
    /**
     * Ticks charged for an upgrade broadcast (write hit on a Shared
     * line): the invalidation round-trip on the snoop path, cheaper
     * than a full miss.
     */
    Tick upgradeLatency = 12;
    /**
     * Fill latency when another cache supplies the line
     * (cache-to-cache intervention) on the fixed-latency miss path;
     * bus-routed misses keep the bus's own timing (the demand
     * write-back models the owner's extra traffic there).
     */
    Tick cacheToCacheLatency = 30;

    void validate() const;
};

/** What a snooped cache holding a line must do about a probe. */
struct SnoopAction
{
    LineState next = LineState::Invalid;
    /** Supply the line cache-to-cache (owner intervention). */
    bool supply = false;
    /** Demand-write-back the dirty copy before downgrading. */
    bool writeback = false;
};

/**
 * A snooping coherence protocol as a pure transition table.
 * Implementations must be stateless and thread-compatible: one
 * instance may serve every hierarchy of a system.
 */
class CoherencePolicy
{
  public:
    virtual ~CoherencePolicy() = default;

    virtual const char *name() const = 0;

    /**
     * State a line fills to after a miss, given whether the probe
     * found a copy in another cache (@p others_had_copy reflects the
     * state *after* the probe: a ReadExclusive probe invalidates the
     * copies it finds).
     */
    virtual LineState fillState(bool is_write,
                                bool others_had_copy) const = 0;

    /** A local write hit on @p cur needs an upgrade broadcast first. */
    virtual bool writeNeedsUpgrade(LineState cur) const = 0;

    /**
     * Reaction of a cache holding @p cur to an observed probe.  Must
     * be total: even cells an invariant-respecting run never reaches
     * (e.g. Modified observing an Upgrade) get a safe reaction, so a
     * protocol bug degrades instead of corrupting.
     */
    virtual SnoopAction snoop(LineState cur,
                              bus::SnoopKind kind) const = 0;
};

/** The default protocol: Modified / Exclusive / Shared / Invalid. */
class MesiPolicy final : public CoherencePolicy
{
  public:
    const char *name() const override { return "mesi"; }
    LineState fillState(bool is_write,
                        bool others_had_copy) const override;
    bool writeNeedsUpgrade(LineState cur) const override;
    SnoopAction snoop(LineState cur, bus::SnoopKind kind) const override;
};

/** Build the policy for @p kind; null for CoherenceKind::None. */
std::unique_ptr<CoherencePolicy> makeCoherencePolicy(CoherenceKind kind);

} // namespace csb::mem

#endif // CSB_MEM_COHERENCE_HH
