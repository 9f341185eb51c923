/**
 * @file
 * Unit and property tests for the aligned power-of-two decomposer.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/decompose.hh"

namespace {

using csb::Addr;
using csb::isPowerOf2;
using csb::mem::Chunk;
using csb::mem::ValidMask;
using csb::mem::nextAlignedChunk;

/** Walk the whole block chunk by chunk, as the buffers do. */
std::vector<Chunk>
decomposeAligned(Addr block_base, const ValidMask &valid,
                 unsigned block_size, unsigned max_txn_bytes)
{
    std::vector<Chunk> chunks;
    unsigned offset = 0;
    for (;;) {
        Chunk chunk = nextAlignedChunk(block_base, valid, block_size,
                                       max_txn_bytes, offset);
        if (chunk.size == 0)
            return chunks;
        chunks.push_back(chunk);
        offset = static_cast<unsigned>(chunk.addr - block_base) +
                 chunk.size;
    }
}

ValidMask
maskRange(unsigned from, unsigned to)
{
    ValidMask mask;
    for (unsigned i = from; i < to; ++i)
        mask.set(i);
    return mask;
}

TEST(Decompose, FullLineIsOneBurst)
{
    auto chunks = decomposeAligned(0x1000, maskRange(0, 64), 64, 64);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], (Chunk{0x1000, 64}));
}

TEST(Decompose, SingleDword)
{
    auto chunks = decomposeAligned(0x1000, maskRange(8, 16), 64, 64);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0], (Chunk{0x1008, 8}));
}

TEST(Decompose, SevenDwordsNeedThreeTransactions)
{
    // Offsets 8..63: the 7-dword case of figure 5's 7-to-8 effect.
    auto chunks = decomposeAligned(0x1000, maskRange(8, 64), 64, 64);
    ASSERT_EQ(chunks.size(), 3u);
    EXPECT_EQ(chunks[0], (Chunk{0x1008, 8}));
    EXPECT_EQ(chunks[1], (Chunk{0x1010, 16}));
    EXPECT_EQ(chunks[2], (Chunk{0x1020, 32}));
}

TEST(Decompose, SevenDwordsFromZero)
{
    // Offsets 0..55: 32 + 16 + 8.
    auto chunks = decomposeAligned(0x1000, maskRange(0, 56), 64, 64);
    ASSERT_EQ(chunks.size(), 3u);
    EXPECT_EQ(chunks[0], (Chunk{0x1000, 32}));
    EXPECT_EQ(chunks[1], (Chunk{0x1020, 16}));
    EXPECT_EQ(chunks[2], (Chunk{0x1030, 8}));
}

TEST(Decompose, MaxTxnCapsChunkSize)
{
    auto chunks = decomposeAligned(0x1000, maskRange(0, 64), 64, 16);
    ASSERT_EQ(chunks.size(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(chunks[i], (Chunk{0x1000 + i * 16, 16}));
}

TEST(Decompose, DisjointRunsSplit)
{
    ValidMask mask = maskRange(0, 8);
    for (unsigned i = 32; i < 40; ++i)
        mask.set(i);
    auto chunks = decomposeAligned(0x2000, mask, 64, 64);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_EQ(chunks[0], (Chunk{0x2000, 8}));
    EXPECT_EQ(chunks[1], (Chunk{0x2020, 8}));
}

TEST(Decompose, EmptyMaskYieldsNothing)
{
    EXPECT_TRUE(decomposeAligned(0x1000, ValidMask{}, 64, 64).empty());
}

TEST(Decompose, SingleByteRuns)
{
    ValidMask mask;
    mask.set(3);
    mask.set(11);
    auto chunks = decomposeAligned(0, mask, 64, 64);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_EQ(chunks[0], (Chunk{3, 1}));
    EXPECT_EQ(chunks[1], (Chunk{11, 1}));
}

// --- Property sweep: every contiguous dword run in every block size ---

struct DecomposeCase
{
    unsigned blockSize;
    unsigned firstDword;
    unsigned numDwords;
};

class DecomposeProperty : public ::testing::TestWithParam<DecomposeCase>
{
};

TEST_P(DecomposeProperty, ChunksAreLegalAndExact)
{
    const DecomposeCase &param = GetParam();
    constexpr Addr base = 0x40000;
    ValidMask mask = maskRange(param.firstDword * 8,
                               (param.firstDword + param.numDwords) * 8);
    auto chunks = decomposeAligned(base, mask, param.blockSize, 128);

    // Property 1: every chunk is a naturally aligned power of two.
    ValidMask covered;
    for (const Chunk &chunk : chunks) {
        EXPECT_TRUE(isPowerOf2(chunk.size));
        EXPECT_EQ(chunk.addr % chunk.size, 0u);
        EXPECT_GE(chunk.addr, base);
        EXPECT_LE(chunk.addr + chunk.size, base + param.blockSize);
        for (unsigned i = 0; i < chunk.size; ++i) {
            unsigned off = static_cast<unsigned>(chunk.addr - base) + i;
            EXPECT_FALSE(covered.test(off)) << "chunk overlap at " << off;
            covered.set(off);
        }
    }
    // Property 2: chunks cover exactly the valid bytes.
    EXPECT_EQ(covered, mask);
    // Property 3: ascending address order.
    for (std::size_t i = 1; i < chunks.size(); ++i)
        EXPECT_LT(chunks[i - 1].addr, chunks[i].addr);
}

std::vector<DecomposeCase>
allDwordRuns()
{
    std::vector<DecomposeCase> cases;
    for (unsigned block : {16u, 32u, 64u, 128u}) {
        unsigned dwords = block / 8;
        for (unsigned first = 0; first < dwords; ++first) {
            for (unsigned n = 1; first + n <= dwords; ++n)
                cases.push_back({block, first, n});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllRuns, DecomposeProperty,
                         ::testing::ValuesIn(allDwordRuns()));

} // namespace
