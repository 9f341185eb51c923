/**
 * @file
 * Page attributes, page table and a small TLB.
 *
 * Following the paper's section 3.1, the choice of which stores
 * combine is encoded as a page attribute rather than as new opcodes:
 * the R10000 enables its accelerated uncached buffer with a page
 * table bit; we add one more attribute value for CSB (uncached
 * combining) space.  The simulator uses an identity virtual-to-
 * physical mapping; the page table carries attributes and ASIDs.
 */

#ifndef CSB_MEM_PAGE_TABLE_HH
#define CSB_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace csb::sim {
class CheckpointWriter;
class CheckpointReader;
} // namespace csb::sim

namespace csb::mem {

/** Memory attribute of a page (TLB-resident, per section 3.1). */
enum class PageAttr : std::uint8_t {
    /** Ordinary write-back cacheable memory. */
    Cached,
    /** Uncached: every access is a single-beat bus transaction. */
    Uncached,
    /**
     * Uncached accelerated: stores may be combined by the hardware-
     * transparent uncached buffer (R10000-style).
     */
    UncachedAccelerated,
    /**
     * Uncached combining: stores accumulate in the conditional store
     * buffer until an explicit conditional flush (the CSB space).
     */
    UncachedCombining,
};

/** @return true when accesses bypass the cache hierarchy. */
inline bool
isUncachedAttr(PageAttr attr)
{
    return attr != PageAttr::Cached;
}

/**
 * Flat page table: maps page-aligned ranges to attributes.
 * Unmapped addresses default to Cached.
 *
 * Stored as a sorted vector of disjoint page ranges, so a System's
 * few megabyte-sized I/O regions cost a handful of entries rather
 * than one per page, and a lookup is a binary search.
 */
class PageTable
{
  public:
    static constexpr Addr pageSize = 4096;

    /**
     * Set the attribute of all pages covering [base, base+size).
     * Later calls win page by page over earlier ones.  A range that
     * wraps past the end of the address space is fatal.
     */
    void setAttr(Addr base, Addr size, PageAttr attr);

    /** Attribute of the page containing @p addr. */
    PageAttr attrOf(Addr addr) const;

  private:
    /**
     * Pages first..last, both inclusive page bases (an exclusive end
     * would wrap to 0 for the top page of the address space).
     */
    struct Range
    {
        Addr first;
        Addr last;
        PageAttr attr;
    };

    /** Sorted by address, non-overlapping. */
    std::vector<Range> ranges_;
};

/**
 * A small fully-associative TLB with true-LRU replacement and ASIDs.
 * Misses refill from the PageTable after a configurable penalty; the
 * CPU model charges the penalty on the access latency.
 */
class Tlb : public sim::stats::StatGroup
{
  public:
    Tlb(const PageTable &page_table, unsigned entries,
        Tick miss_penalty, std::string name = "tlb",
        sim::stats::StatGroup *stat_parent = nullptr);

    /**
     * Translate @p addr for address space @p asid.
     * @param penalty out: extra latency in CPU ticks (0 on a hit)
     * @return page attribute
     */
    PageAttr translate(Addr addr, ProcId asid, Tick &penalty);

    /**
     * Serialize entry array + LRU clock (not stats; not the page
     * table, which is configuration).  Restore verifies entry count.
     */
    void checkpointSave(sim::CheckpointWriter &cw) const;
    void checkpointRestore(sim::CheckpointReader &cr);

    sim::stats::Scalar hits;
    sim::stats::Scalar misses;

  private:
    struct Entry
    {
        Addr vpn = 0;
        ProcId asid = 0;
        PageAttr attr = PageAttr::Cached;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    const PageTable &pageTable_;
    std::vector<Entry> entries_;
    Tick missPenalty_;
    std::uint64_t useClock_ = 0;
};

} // namespace csb::mem

#endif // CSB_MEM_PAGE_TABLE_HH
