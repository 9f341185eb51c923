/**
 * @file
 * Unit tests for sim::FixedRing: value-initialized pushes, FIFO order
 * across wrap-around, and every element constructed on push being
 * destroyed exactly once -- by pop_front(), clear() or the destructor.
 */

#include <gtest/gtest.h>

#include "sim/fixed_ring.hh"

namespace {

using csb::sim::FixedRing;

/** An element that counts its live instances. */
struct Counted
{
    static inline int live = 0;
    static inline int constructed = 0;

    int value = 0;

    Counted() { ++live; ++constructed; }
    explicit Counted(int v) : value(v) { ++live; ++constructed; }
    Counted(const Counted &other) : value(other.value)
    {
        ++live;
        ++constructed;
    }
    Counted &operator=(const Counted &) = default;
    ~Counted() { --live; }
};

class FixedRingTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Counted::live = 0;
        Counted::constructed = 0;
    }
};

TEST_F(FixedRingTest, ConstructingTheRingConstructsNoElement)
{
    FixedRing<Counted> ring(8);
    EXPECT_EQ(Counted::constructed, 0);
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.full());
}

TEST_F(FixedRingTest, EmplaceBackValueInitializes)
{
    struct Plain
    {
        int a;
        double b;
        unsigned char bytes[16];
    };
    FixedRing<Plain> ring(2);
    // Leave garbage in the slot a later push reuses.
    Plain &first = ring.emplace_back();
    first.a = 7;
    first.b = 2.5;
    first.bytes[3] = 0xff;
    ring.pop_front();
    ring.emplace_back();
    Plain &reused = ring.emplace_back();
    EXPECT_EQ(reused.a, 0);
    EXPECT_EQ(reused.b, 0.0);
    for (unsigned char byte : reused.bytes)
        EXPECT_EQ(byte, 0);
}

TEST_F(FixedRingTest, EmplaceBackForwardsArguments)
{
    FixedRing<Counted> ring(2);
    const Counted original(5);
    EXPECT_EQ(ring.emplace_back(original).value, 5);
    EXPECT_EQ(ring.emplace_back(9).value, 9);
    EXPECT_TRUE(ring.full());
}

TEST_F(FixedRingTest, KeepsOrderAcrossWrapAround)
{
    FixedRing<Counted> ring(3);
    int next_in = 0;
    int next_out = 0;
    // Many more pushes than slots, at varying fill levels, so the
    // head and the tail wrap many times.
    for (int round = 0; round < 20; ++round) {
        while (!ring.full())
            ring.emplace_back(next_in++);
        ASSERT_EQ(ring.size(), 3u);
        for (std::size_t i = 0; i < ring.size(); ++i)
            EXPECT_EQ(ring[i].value, next_out + int(i));
        EXPECT_EQ(ring.back().value, next_in - 1);
        for (int pops = 1 + round % 3; pops > 0; --pops) {
            EXPECT_EQ(ring.front().value, next_out++);
            ring.pop_front();
        }
    }
    EXPECT_EQ(Counted::live, int(ring.size()));
}

TEST_F(FixedRingTest, PopFrontDestroysTheElement)
{
    FixedRing<Counted> ring(4);
    ring.emplace_back(1);
    ring.emplace_back(2);
    EXPECT_EQ(Counted::live, 2);
    ring.pop_front();
    EXPECT_EQ(Counted::live, 1);
    EXPECT_EQ(ring.front().value, 2);
    ring.pop_front();
    EXPECT_EQ(Counted::live, 0);
    EXPECT_EQ(Counted::constructed, 2);
}

TEST_F(FixedRingTest, ClearDestroysEveryElement)
{
    FixedRing<Counted> ring(4);
    // Wrap first so clear() walks a split range.
    for (int i = 0; i < 3; ++i)
        ring.emplace_back(i);
    ring.pop_front();
    ring.pop_front();
    for (int i = 3; i < 6; ++i)
        ring.emplace_back(i);
    EXPECT_EQ(Counted::live, 4);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(Counted::live, 0);
    EXPECT_EQ(Counted::constructed, 6);
    ring.emplace_back(42);
    EXPECT_EQ(ring.front().value, 42);
    EXPECT_EQ(Counted::live, 1);
}

TEST_F(FixedRingTest, DestroyingANonEmptyRingDestroysItsElements)
{
    {
        FixedRing<Counted> ring(3);
        ring.emplace_back(1);
        ring.emplace_back(2);
        ring.pop_front();
        ring.emplace_back(3);
        ring.emplace_back(4);
        EXPECT_EQ(Counted::live, 3);
    }
    EXPECT_EQ(Counted::live, 0);
    EXPECT_EQ(Counted::constructed, 4);
}

} // namespace
