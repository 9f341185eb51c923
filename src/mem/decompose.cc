#include "decompose.hh"

#include "sim/logging.hh"

namespace csb::mem {

namespace {

/** @return true when bytes [offset, offset+size) are all valid. */
bool
allValid(const ValidMask &valid, unsigned offset, unsigned size)
{
    for (unsigned i = offset; i < offset + size; ++i) {
        if (!valid.test(i))
            return false;
    }
    return true;
}

} // namespace

Chunk
nextAlignedChunk(Addr block_base, const ValidMask &valid,
                 unsigned block_size, unsigned max_txn_bytes, unsigned from)
{
    csb_assert(isPowerOf2(block_size) && block_size <= maxBlockBytes,
               "bad block size ", block_size);
    csb_assert(isPowerOf2(max_txn_bytes), "bad max txn ", max_txn_bytes);
    csb_assert(block_base % block_size == 0, "unaligned block base");

    unsigned offset = from;
    while (offset < block_size && !valid.test(offset))
        ++offset;
    if (offset >= block_size)
        return Chunk{};
    // Largest aligned power-of-two fully-valid chunk at offset.
    unsigned best = 1;
    for (unsigned size = 2; size <= max_txn_bytes && size <= block_size;
         size *= 2) {
        if (offset % size != 0)
            break;
        if (offset + size > block_size)
            break;
        if (!allValid(valid, offset, size))
            break;
        best = size;
    }
    return Chunk{block_base + offset, best};
}

} // namespace csb::mem
