/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>

#include "sim/checkpoint.hh"
#include "sim/stats.hh"

namespace {

using namespace csb::sim::stats;
using csb::sim::CheckpointReader;
using csb::sim::CheckpointWriter;

TEST(Stats, ScalarArithmetic)
{
    StatGroup group("g");
    Scalar s(&group, "s", "a scalar");
    EXPECT_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_EQ(s.value(), 3.5);
    s = 10;
    EXPECT_EQ(s.value(), 10.0);
}

TEST(Stats, DistributionBucketsAndOverflow)
{
    StatGroup group("g");
    Distribution dist(&group, "d", "a histogram", 0, 10, 2);
    dist.sample(1);
    dist.sample(3);
    dist.sample(3);
    dist.sample(100);  // overflow
    dist.sample(-5);   // underflow
    EXPECT_EQ(dist.totalSamples(), 5u);
    EXPECT_EQ(dist.overflow(), 1u);
    EXPECT_EQ(dist.underflow(), 1u);
    EXPECT_EQ(dist.buckets()[0], 1u); // [0,2)
    EXPECT_EQ(dist.buckets()[1], 2u); // [2,4)
    EXPECT_EQ(dist.minSampled(), -5);
    EXPECT_EQ(dist.maxSampled(), 100);
}

TEST(Stats, PercentileEmptyDistributionIsZero)
{
    StatGroup group("g");
    Distribution dist(&group, "d", "", 0, 10, 2);
    EXPECT_EQ(dist.percentile(0.0), 0.0);
    EXPECT_EQ(dist.percentile(0.5), 0.0);
    EXPECT_EQ(dist.percentile(1.0), 0.0);
}

TEST(Stats, PercentileSingleSample)
{
    StatGroup group("g");
    Distribution dist(&group, "d", "", 0, 10, 2);
    dist.sample(3);
    // Every percentile of a one-sample distribution resolves to the
    // upper edge of the bucket holding that sample: [2,4) -> 4.
    EXPECT_DOUBLE_EQ(dist.percentile(0.0), 4.0);
    EXPECT_DOUBLE_EQ(dist.percentile(0.5), 4.0);
    EXPECT_DOUBLE_EQ(dist.percentile(1.0), 4.0);
}

TEST(Stats, PercentileClampsOutOfRangeP)
{
    StatGroup group("g");
    Distribution dist(&group, "d", "", 0, 10, 2);
    dist.sample(1);
    dist.sample(9);
    EXPECT_DOUBLE_EQ(dist.percentile(-0.5), dist.percentile(0.0));
    EXPECT_DOUBLE_EQ(dist.percentile(2.0), dist.percentile(1.0));
}

TEST(Stats, PercentileBoundaries)
{
    StatGroup group("g");
    Distribution dist(&group, "d", "", 0, 10, 2);
    for (int v : {1, 3, 3, 5, 9})
        dist.sample(v);
    // rank(p=0) clamps to the first sample: bucket [0,2) -> 2.
    EXPECT_DOUBLE_EQ(dist.percentile(0.0), 2.0);
    // rank(p=0.5) = ceil(2.5) = 3rd sample: bucket [2,4) -> 4.
    EXPECT_DOUBLE_EQ(dist.percentile(0.5), 4.0);
    // rank(p=1) = 5th sample: bucket [8,10] upper edge clamps to max.
    EXPECT_DOUBLE_EQ(dist.percentile(1.0), 10.0);
}

TEST(Stats, PercentileUnderAndOverflowSamples)
{
    StatGroup group("g");
    Distribution dist(&group, "d", "", 0, 10, 2);
    dist.sample(-7);
    dist.sample(100);
    // Ranks inside the underflow bucket report the true minimum;
    // ranks past the last bucket report the true maximum.
    EXPECT_DOUBLE_EQ(dist.percentile(0.0), -7.0);
    EXPECT_DOUBLE_EQ(dist.percentile(1.0), 100.0);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    StatGroup group("g");
    Scalar a(&group, "a", "");
    Scalar b(&group, "b", "");
    Formula ratio(&group, "ratio", "a/b", [&] {
        return b.value() != 0 ? a.value() / b.value() : 0.0;
    });
    EXPECT_EQ(ratio.value(), 0.0);
    a = 10;
    b = 4;
    EXPECT_DOUBLE_EQ(ratio.value(), 2.5);
}

TEST(Stats, GroupHierarchyNames)
{
    StatGroup root("system");
    StatGroup child("cpu", &root);
    StatGroup grand("l1", &child);
    EXPECT_EQ(grand.fullStatName(), "system.cpu.l1");
}

TEST(Stats, NamesMustBeStringLiterals)
{
    // Stats borrow their names and descriptions, so only a literal,
    // which lives for the whole run, converts to one.
    static_assert(std::is_constructible_v<Literal, const char (&)[5]>);
    static_assert(!std::is_constructible_v<Literal, const char *>);
    static_assert(!std::is_constructible_v<Literal, std::string>);
    constexpr Literal name("hits");
    static_assert(name.view() == "hits");
}

/** A component-shaped group: one stat named like every sibling's. */
struct Child : StatGroup
{
    Child(std::string name, StatGroup *parent)
        : StatGroup(std::move(name), parent)
    {}

    Scalar inner{this, "inner", "a child stat"};
};

std::string
jsonWalk(const StatGroup &group)
{
    std::ostringstream os;
    group.dumpStatsJson(os);
    return os.str();
}

std::string
checkpointWalk(const StatGroup &group)
{
    CheckpointWriter cw;
    cw.beginSection("stats");
    group.checkpointSaveStats(cw);
    std::ostringstream os;
    cw.writeTo(os);
    return os.str();
}

/** Every name of @p names occurs in @p walk, in that order. */
::testing::AssertionResult
inOrder(const std::string &walk, std::initializer_list<const char *> names)
{
    std::size_t from = 0;
    for (const char *name : names) {
        const std::size_t at = walk.find(name, from);
        if (at == std::string::npos)
            return ::testing::AssertionFailure()
                   << "'" << name << "' missing or out of order in:\n"
                   << walk;
        from = at + 1;
    }
    return ::testing::AssertionSuccess();
}

TEST(Stats, WalksFollowRegistrationOrder)
{
    StatGroup root("root");
    Scalar alpha(&root, "sAlpha", "first stat");
    Child xray("gXray", &root);
    Scalar bravo(&root, "sBravo", "registered after a child group");
    Child yankee("gYankee", &root);
    Child zulu("gZulu", &root);
    Scalar charlie(&root, "sCharlie", "last stat");

    // A group's stats come first, then its child groups, each list in
    // registration order.
    for (const std::string &walk : {jsonWalk(root), checkpointWalk(root)}) {
        EXPECT_TRUE(inOrder(walk, {"sAlpha", "sBravo", "sCharlie", "gXray",
                                   "inner", "gYankee", "inner", "gZulu",
                                   "inner"}));
    }

    // The restore walk consumes the same order.
    alpha = 1;
    bravo = 2;
    charlie = 3;
    xray.inner = 4;
    yankee.inner = 5;
    zulu.inner = 6;
    CheckpointWriter cw;
    cw.beginSection("stats");
    root.checkpointSaveStats(cw);
    std::stringstream blob;
    cw.writeTo(blob);

    StatGroup copy("root");
    Scalar copy_alpha(&copy, "sAlpha", "first stat");
    Child copy_xray("gXray", &copy);
    Scalar copy_bravo(&copy, "sBravo", "registered after a child group");
    Child copy_yankee("gYankee", &copy);
    Child copy_zulu("gZulu", &copy);
    Scalar copy_charlie(&copy, "sCharlie", "last stat");
    CheckpointReader cr = CheckpointReader::readFrom(blob);
    cr.openSection("stats");
    copy.checkpointRestoreStats(cr);
    cr.closeSection();
    EXPECT_EQ(copy_alpha.value(), 1.0);
    EXPECT_EQ(copy_bravo.value(), 2.0);
    EXPECT_EQ(copy_charlie.value(), 3.0);
    EXPECT_EQ(copy_xray.inner.value(), 4.0);
    EXPECT_EQ(copy_yankee.inner.value(), 5.0);
    EXPECT_EQ(copy_zulu.inner.value(), 6.0);
    EXPECT_EQ(jsonWalk(copy), jsonWalk(root));
}

TEST(Stats, DestroyedChildGroupsLeaveSiblingOrderIntact)
{
    StatGroup root("root");
    Scalar top(&root, "sTop", "");
    std::optional<Child> a, b, c, d, e;
    a.emplace("gA", &root);
    b.emplace("gB", &root);
    c.emplace("gC", &root);
    d.emplace("gD", &root);
    e.emplace("gE", &root);

    a.reset(); // the first
    c.reset(); // a middle one
    e.reset(); // the last
    for (const std::string &walk : {jsonWalk(root), checkpointWalk(root)}) {
        EXPECT_TRUE(inOrder(walk, {"sTop", "gB", "gD"}));
        for (const char *gone : {"gA", "gC", "gE"})
            EXPECT_EQ(walk.find(gone), std::string::npos) << gone;
    }

    // The list's tail moved back with the last child: a new group
    // still lands at the end.
    std::optional<Child> f;
    f.emplace("gF", &root);
    for (const std::string &walk : {jsonWalk(root), checkpointWalk(root)})
        EXPECT_TRUE(inOrder(walk, {"sTop", "gB", "gD", "gF"}));

    // A list emptied from both ends takes new groups again.
    b.reset();
    f.reset();
    d.reset();
    EXPECT_EQ(jsonWalk(root).find("\"g"), std::string::npos);
    Child g("gG", &root);
    EXPECT_TRUE(inOrder(jsonWalk(root), {"sTop", "gG"}));
}

} // namespace
