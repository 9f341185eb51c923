/**
 * @file
 * Tests for the Chrome trace-event sink: document validity, sorted
 * timestamps, track metadata, span and instant fields, and a
 * reconfiguration dropping the buffered events.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "trace_fixture.hh"

namespace {

using namespace trace_test;

TEST_F(TraceFixture, ProducesAValidDocument)
{
    capture("", true);
    span("bus", 10, 19, "write 64B",
         {{"addr", "0x1000"}, {"master", "csb.port"}});
    instant("dev", 19, "burst 64B", {{"device", "dev"}});

    mini_json::Value doc = flushAndParse();
    EXPECT_EQ(doc.at("displayTimeUnit").string, "ms");
    ASSERT_TRUE(doc.at("traceEvents").isArray());
    // 2 thread_name metadata records + the two events.
    EXPECT_EQ(doc.at("traceEvents").array.size(), 4u);

    // The flush cleared the buffer: a second flush is an empty document.
    json.str("");
    EXPECT_TRUE(flushAndParse().at("traceEvents").array.empty());
}

TEST_F(TraceFixture, SpanFieldsAreComplete)
{
    capture("", true);
    span("bus", 10, 19, "write 64B", {{"addr", "0x1000"}});
    std::vector<mini_json::ValuePtr> events = eventsOf(flushAndParse());
    ASSERT_EQ(events.size(), 1u);
    const mini_json::Value &ev = *events[0];
    EXPECT_EQ(ev.at("ph").string, "X");
    EXPECT_EQ(ev.at("name").string, "write 64B");
    EXPECT_EQ(ev.at("cat").string, "bus");
    EXPECT_DOUBLE_EQ(ev.at("ts").number, 10.0);
    EXPECT_DOUBLE_EQ(ev.at("dur").number, 9.0);
    EXPECT_EQ(ev.at("args").at("addr").string, "0x1000");
}

TEST_F(TraceFixture, ZeroLengthSpanGetsMinimumDuration)
{
    capture("", true);
    span("bus", 5, 5, "tiny");
    std::vector<mini_json::ValuePtr> events = eventsOf(flushAndParse());
    ASSERT_EQ(events.size(), 1u);
    EXPECT_DOUBLE_EQ(events[0]->at("dur").number, 1.0);
}

TEST_F(TraceFixture, InstantEventsCarryScope)
{
    capture("", true);
    instant("csb", 7, "flush-fail", {{"expected", "8"}, {"counter", "3"}});
    std::vector<mini_json::ValuePtr> events = eventsOf(flushAndParse());
    ASSERT_EQ(events.size(), 1u);
    const mini_json::Value &ev = *events[0];
    EXPECT_EQ(ev.at("ph").string, "i");
    EXPECT_EQ(ev.at("name").string, "flush-fail");
    EXPECT_DOUBLE_EQ(ev.at("ts").number, 7.0);
    EXPECT_EQ(ev.at("s").string, "t");
    EXPECT_EQ(ev.at("args").at("expected").string, "8");
}

TEST_F(TraceFixture, TimestampsAreSortedInTheDocument)
{
    capture("", true);
    // Emit deliberately out of order; the flush sorts by timestamp.
    span("bus", 30, 40, "third");
    instant("dev", 1, "first");
    span("csb", 12, 20, "second");
    std::vector<mini_json::ValuePtr> events = eventsOf(flushAndParse());
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0]->at("name").string, "first");
    EXPECT_EQ(events[1]->at("name").string, "second");
    EXPECT_EQ(events[2]->at("name").string, "third");
}

TEST_F(TraceFixture, TracksBecomeNamedThreads)
{
    capture("", true);
    span("bus", 0, 1, "a");
    span("csb", 2, 3, "b");
    span("bus", 4, 5, "c");
    mini_json::Value doc = flushAndParse();

    std::map<double, std::string> tid_names;
    std::map<std::string, double> span_tids;
    for (const auto &ev : doc.at("traceEvents").array) {
        if (ev->at("ph").string == "M") {
            EXPECT_EQ(ev->at("name").string, "thread_name");
            tid_names[ev->at("tid").number] =
                ev->at("args").at("name").string;
        } else {
            span_tids[ev->at("name").string] = ev->at("tid").number;
        }
    }
    ASSERT_EQ(tid_names.size(), 2u);
    // Same track -> same tid; different tracks -> different tids.
    EXPECT_EQ(span_tids.at("a"), span_tids.at("c"));
    EXPECT_NE(span_tids.at("a"), span_tids.at("b"));
    EXPECT_EQ(tid_names.at(span_tids.at("a")), "bus");
    EXPECT_EQ(tid_names.at(span_tids.at("b")), "csb");
}

TEST_F(TraceFixture, ReconfiguringDropsBufferedEvents)
{
    capture("", true);
    span("bus", 0, 1, "dropped");
    capture("", true);
    EXPECT_TRUE(flushAndParse().at("traceEvents").array.empty());
}

TEST(Trace, HexArgFormats)
{
    EXPECT_EQ(trace::hexArg(0x22000000u), "0x22000000");
    EXPECT_EQ(trace::hexArg(0), "0x0");
}

} // namespace
