#include "page_table.hh"

#include <algorithm>
#include <array>
#include <ios>
#include <iterator>

#include "sim/checkpoint.hh"
#include "sim/logging.hh"

namespace csb::mem {

void
PageTable::setAttr(Addr base, Addr size, PageAttr attr)
{
    csb_assert(size > 0, "empty attribute range");
    const Addr last_byte = base + (size - 1);
    if (last_byte < base)
        csb_fatal("page attribute range base=0x", std::hex, base,
                  " size=0x", size, std::dec,
                  " wraps past the end of the address space");
    const Addr first = roundDown(base, pageSize);
    const Addr last = roundDown(last_byte, pageSize);
    if (ranges_.capacity() == 0)
        ranges_.reserve(8); // a System's six I/O ranges, one allocation

    // [lo, hi) are the ranges sharing at least one page with the new
    // one.  Parts of the outer two that stick out survive with their
    // old attribute; everything inside is replaced.
    auto lo = std::partition_point(
        ranges_.begin(), ranges_.end(),
        [first](const Range &r) { return r.last < first; });
    auto hi = std::partition_point(
        lo, ranges_.end(),
        [last](const Range &r) { return r.first <= last; });

    std::array<Range, 3> pieces{};
    std::size_t count = 0;
    if (lo != hi && lo->first < first)
        pieces[count++] = {lo->first, first - pageSize, lo->attr};
    pieces[count++] = {first, last, attr};
    if (lo != hi && std::prev(hi)->last > last)
        pieces[count++] = {last + pageSize, std::prev(hi)->last,
                           std::prev(hi)->attr};

    auto at = ranges_.erase(lo, hi);
    ranges_.insert(at, pieces.begin(), pieces.begin() + count);
}

PageAttr
PageTable::attrOf(Addr addr) const
{
    const Addr page = roundDown(addr, pageSize);
    auto it = std::partition_point(
        ranges_.begin(), ranges_.end(),
        [page](const Range &r) { return r.last < page; });
    return it != ranges_.end() && it->first <= page ? it->attr
                                                    : PageAttr::Cached;
}

Tlb::Tlb(const PageTable &page_table, unsigned entries, Tick miss_penalty,
         std::string name, sim::stats::StatGroup *stat_parent)
    : sim::stats::StatGroup(std::move(name), stat_parent),
      hits(this, "hits", "TLB hits"),
      misses(this, "misses", "TLB misses"),
      pageTable_(page_table), entries_(entries),
      missPenalty_(miss_penalty)
{
    csb_assert(entries > 0, "TLB needs at least one entry");
}

PageAttr
Tlb::translate(Addr addr, ProcId asid, Tick &penalty)
{
    Addr vpn = addr / PageTable::pageSize;
    ++useClock_;

    for (Entry &entry : entries_) {
        if (entry.valid && entry.vpn == vpn && entry.asid == asid) {
            entry.lastUse = useClock_;
            ++hits;
            penalty = 0;
            return entry.attr;
        }
    }

    // Miss: refill over the LRU (or first invalid) entry.
    ++misses;
    Entry *victim = &entries_[0];
    for (Entry &entry : entries_) {
        if (!entry.valid) {
            victim = &entry;
            break;
        }
        if (entry.lastUse < victim->lastUse)
            victim = &entry;
    }
    victim->vpn = vpn;
    victim->asid = asid;
    victim->attr = pageTable_.attrOf(addr);
    victim->lastUse = useClock_;
    victim->valid = true;
    penalty = missPenalty_;
    return victim->attr;
}

void
Tlb::checkpointSave(sim::CheckpointWriter &cw) const
{
    cw.putU64(useClock_);
    cw.putU64(entries_.size());
    for (const Entry &entry : entries_) {
        cw.putU64(entry.vpn);
        cw.putU32(entry.asid);
        cw.putU8(static_cast<std::uint8_t>(entry.attr));
        cw.putU64(entry.lastUse);
        cw.putU8(entry.valid ? 1 : 0);
    }
}

void
Tlb::checkpointRestore(sim::CheckpointReader &cr)
{
    useClock_ = cr.getU64();
    const std::uint64_t count = cr.getU64();
    if (count != entries_.size())
        csb_fatal("checkpoint TLB has ", count, " entries, this TLB has ",
                  entries_.size());
    for (Entry &entry : entries_) {
        entry.vpn = cr.getU64();
        entry.asid = static_cast<ProcId>(cr.getU32());
        entry.attr = static_cast<PageAttr>(cr.getU8());
        entry.lastUse = cr.getU64();
        entry.valid = cr.getU8() != 0;
    }
}

} // namespace csb::mem
