#include "coherence.hh"

#include "sim/logging.hh"

namespace csb::mem {

void
CoherenceParams::validate() const
{
    if (kind == CoherenceKind::None)
        return;
    if (upgradeLatency == 0)
        csb_fatal("coherence upgradeLatency must be positive");
    if (cacheToCacheLatency == 0)
        csb_fatal("coherence cacheToCacheLatency must be positive");
}

LineState
MesiPolicy::fillState(bool is_write, bool others_had_copy) const
{
    if (is_write)
        return LineState::Modified; // read-exclusive invalidated the rest
    return others_had_copy ? LineState::Shared : LineState::Exclusive;
}

bool
MesiPolicy::writeNeedsUpgrade(LineState cur) const
{
    // E -> M and M -> M are silent; only a Shared copy must announce
    // the write so the other holders invalidate.
    return cur == LineState::Shared;
}

SnoopAction
MesiPolicy::snoop(LineState cur, bus::SnoopKind kind) const
{
    SnoopAction act;
    if (cur == LineState::Invalid)
        return act; // no copy, nothing to do

    switch (kind) {
      case bus::SnoopKind::Read:
        // Readers join a Shared set.  An owner (M or E) supplies the
        // line; a Modified owner also demand-writes-back so memory is
        // no longer behind.
        act.next = LineState::Shared;
        act.supply = cur != LineState::Shared;
        act.writeback = cur == LineState::Modified;
        return act;
      case bus::SnoopKind::ReadExclusive:
        // A writer takes the line; every copy dies.  The owner still
        // supplies (and cleans) it on the way out.
        act.next = LineState::Invalid;
        act.supply = cur != LineState::Shared;
        act.writeback = cur == LineState::Modified;
        return act;
      case bus::SnoopKind::Upgrade:
        // The requester already holds a Shared copy, so a well-formed
        // run only reaches this cell from Shared.  M/E observing an
        // upgrade means the invariant was already broken; react like a
        // ReadExclusive minus the supply (nobody asked for data) so
        // the damage stays bounded.
        act.next = LineState::Invalid;
        act.supply = false;
        act.writeback = cur == LineState::Modified;
        return act;
    }
    return act;
}

std::unique_ptr<CoherencePolicy>
makeCoherencePolicy(CoherenceKind kind)
{
    switch (kind) {
      case CoherenceKind::None: return nullptr;
      case CoherenceKind::Mesi: return std::make_unique<MesiPolicy>();
    }
    csb_fatal("unknown coherence kind ", unsigned(kind));
}

} // namespace csb::mem
