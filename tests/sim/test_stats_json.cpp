/**
 * @file
 * Unit tests for the JSON statistics export: string escaping, number
 * formatting, nested group serialization, Distribution bucketing and
 * percentiles, and reset behaviour.
 */

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "sim/json.hh"
#include "sim/stats.hh"

#include "mini_json.hh"

namespace {

using namespace csb::sim;
using namespace csb::sim::stats;

TEST(JsonEscape, PassesPlainTextThrough)
{
    EXPECT_EQ(jsonEscape("bus cycles"), "bus cycles");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("line1\nline2"), "line1\\nline2");
    EXPECT_EQ(jsonEscape("tab\there"), "tab\\there");
    EXPECT_EQ(jsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
}

TEST(JsonNumber, IntegralDoublesPrintAsIntegers)
{
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(42.0), "42");
    EXPECT_EQ(jsonNumber(-7.0), "-7");
    EXPECT_EQ(jsonNumber(2.5), "2.5");
}

TEST(JsonNumber, NonFiniteBecomesNull)
{
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
}

TEST(JsonWriterTest, RoundTripsThroughParser)
{
    std::ostringstream os;
    {
        JsonWriter jw(os, 2);
        jw.beginObject();
        jw.kv("name", "quo\"ted");
        jw.key("values").beginArray();
        jw.value(1).value(2.5).value(std::int64_t{-3});
        jw.endArray();
        jw.key("nested").beginObject();
        jw.kv("x", std::uint64_t{7});
        jw.endObject();
        jw.endObject();
    }
    mini_json::Value doc = mini_json::parse(os.str());
    EXPECT_EQ(doc.at("name").string, "quo\"ted");
    ASSERT_EQ(doc.at("values").array.size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("values").array[1]->number, 2.5);
    EXPECT_DOUBLE_EQ(doc.at("values").array[2]->number, -3.0);
    EXPECT_DOUBLE_EQ(doc.at("nested").at("x").number, 7.0);
}

TEST(StatsJson, NestedGroupsMirrorTheTree)
{
    StatGroup root("sys");
    StatGroup bus("bus", &root);
    Scalar cycles(&root, "cycles", "total cycles");
    Scalar writes(&bus, "writes", "bus \"write\" count");
    cycles = 42;
    writes = 7;

    std::ostringstream os;
    root.dumpStatsJson(os);
    mini_json::Value doc = mini_json::parse(os.str());

    EXPECT_EQ(doc.at("cycles").at("type").string, "scalar");
    EXPECT_DOUBLE_EQ(doc.at("cycles").at("value").number, 42.0);
    EXPECT_EQ(doc.at("cycles").at("desc").string, "total cycles");

    const mini_json::Value &b = doc.at("bus");
    EXPECT_DOUBLE_EQ(b.at("writes").at("value").number, 7.0);
    EXPECT_EQ(b.at("writes").at("desc").string, "bus \"write\" count");
}

TEST(StatsJson, FormulaEvaluatesAtDumpTime)
{
    StatGroup g("g");
    Scalar a(&g, "a", "");
    Formula twice(&g, "twice", "2a", [&] { return 2 * a.value(); });
    a = 21;
    std::ostringstream os;
    g.dumpStatsJson(os);
    mini_json::Value doc = mini_json::parse(os.str());
    EXPECT_EQ(doc.at("twice").at("type").string, "formula");
    EXPECT_DOUBLE_EQ(doc.at("twice").at("value").number, 42.0);
}

TEST(StatsJson, DistributionFieldsAndBuckets)
{
    StatGroup g("g");
    Distribution d(&g, "d", "a histogram", 0, 10, 2);
    d.sample(1);
    d.sample(3);
    d.sample(3);
    d.sample(100);  // overflow
    d.sample(-5);   // underflow

    std::ostringstream os;
    g.dumpStatsJson(os);
    mini_json::Value doc = mini_json::parse(os.str());
    const mini_json::Value &j = doc.at("d");
    EXPECT_EQ(j.at("type").string, "distribution");
    EXPECT_DOUBLE_EQ(j.at("samples").number, 5.0);
    EXPECT_DOUBLE_EQ(j.at("underflow").number, 1.0);
    EXPECT_DOUBLE_EQ(j.at("overflow").number, 1.0);
    EXPECT_DOUBLE_EQ(j.at("min_sampled").number, -5.0);
    EXPECT_DOUBLE_EQ(j.at("max_sampled").number, 100.0);
    ASSERT_TRUE(j.at("buckets").isArray());
    // (max - min) / bucket_size + 1 buckets: the top edge is held in
    // its own bucket so sampling exactly `max` is not overflow.
    ASSERT_EQ(j.at("buckets").array.size(), 6u);
    EXPECT_DOUBLE_EQ(j.at("buckets").array[0]->number, 1.0); // [0,2)
    EXPECT_DOUBLE_EQ(j.at("buckets").array[1]->number, 2.0); // [2,4)
    EXPECT_TRUE(j.has("p50"));
    EXPECT_TRUE(j.has("p90"));
    EXPECT_TRUE(j.has("p99"));
}

TEST(DistributionPercentile, ResolvesToBucketUpperEdge)
{
    StatGroup g("g");
    Distribution d(&g, "d", "", 0, 100, 10);
    for (int i = 0; i < 90; ++i)
        d.sample(5);   // bucket [0,10)
    for (int i = 0; i < 10; ++i)
        d.sample(95);  // bucket [90,100)
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 10.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.9), 10.0);
    EXPECT_DOUBLE_EQ(d.percentile(0.95), 100.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 100.0);
}

TEST(DistributionPercentile, HandlesUnderflowOverflowAndEmpty)
{
    StatGroup g("g");
    Distribution d(&g, "d", "", 0, 10, 2);
    EXPECT_DOUBLE_EQ(d.percentile(0.5), 0.0); // empty
    d.sample(-3);
    d.sample(50);
    // First half of the mass is the underflow sample -> minSampled;
    // the tail is the overflow sample -> maxSampled.
    EXPECT_DOUBLE_EQ(d.percentile(0.5), -3.0);
    EXPECT_DOUBLE_EQ(d.percentile(1.0), 50.0);
}

} // namespace
