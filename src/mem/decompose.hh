/**
 * @file
 * Decomposition of a partially valid block into the minimal sequence
 * of naturally aligned, power-of-two bus transactions.
 *
 * The paper's bus model only supports power-of-two transfer sizes
 * from 1 byte to a cache line, naturally aligned (section 4.1); when
 * the uncached buffer could not combine a whole block it must issue
 * several smaller transactions.  This greedy largest-fit split is the
 * mechanism behind two observations in the paper: the better bus
 * utilisation when going from 7 to 8 combined doublewords (figure 5),
 * and the occasional advantage of a *smaller* combining buffer for
 * medium transfers (figures 3a/3f).
 */

#ifndef CSB_MEM_DECOMPOSE_HH
#define CSB_MEM_DECOMPOSE_HH

#include <bitset>
#include <cstdint>

#include "sim/types.hh"

namespace csb::mem {

/** Maximum block size handled by the decomposer (one cache line). */
constexpr unsigned maxBlockBytes = 128;

/** Valid-byte mask of a block. */
using ValidMask = std::bitset<maxBlockBytes>;

/** One naturally aligned power-of-two transfer. */
struct Chunk
{
    Addr addr = 0;
    unsigned size = 0;

    bool
    operator==(const Chunk &other) const
    {
        return addr == other.addr && size == other.size;
    }
};

/**
 * The next transaction of a partially valid block: the largest
 * naturally aligned power-of-two chunk, no larger than
 * @p max_txn_bytes and covering only valid bytes, that starts at the
 * first valid byte at or after offset @p from; a zero-size chunk when
 * no valid byte is left.  Masters walk a locked block with it -- one
 * call per bus transaction, resuming at the previous chunk's end -- so
 * they keep no chunk list, and the chunks come out in ascending
 * address order.
 *
 * @param block_base    block-aligned base address
 * @param valid         per-byte valid bits (bit i = block_base + i)
 * @param block_size    block size in bytes (power of two <= 128)
 * @param max_txn_bytes largest legal transaction (power of two)
 * @param from          byte offset in the block to resume at
 */
Chunk nextAlignedChunk(Addr block_base, const ValidMask &valid,
                       unsigned block_size, unsigned max_txn_bytes,
                       unsigned from);

} // namespace csb::mem

#endif // CSB_MEM_DECOMPOSE_HH
