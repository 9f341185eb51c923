/**
 * @file
 * Tests for trace events and the text sink: lazy argument building,
 * line format, channel selection and configuration changes, plus one
 * event reaching both sinks. The Chrome trace document itself is
 * tested in test_trace_json.cpp.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "trace_fixture.hh"

namespace {

using namespace trace_test;

TEST_F(TraceFixture, NoSinkMeansTheArgsAreNeverBuilt)
{
    trace::configure("", &text, nullptr);
    int calls = 0;
    auto make = [&] {
        ++calls;
        return trace::Fields{"counted", {}};
    };
    trace::instant("lazy", 1, make);
    EXPECT_EQ(calls, 0) << "no sink on";
    capture("other");
    trace::span("lazy", 1, 2, make);
    EXPECT_EQ(calls, 0) << "another channel on";
    capture("lazy");
    trace::instant("lazy", 1, make);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(text.str(), "[        1] lazy: counted\n");
}

TEST_F(TraceFixture, TextLinesRenderTickTrackNameAndArgs)
{
    capture("bus,csb");
    instant("csb", 31, "flush-ok",
            {{"pid", "1"}, {"addr", "0x22000000"}, {"stores", "8"}});
    span("bus", 36, 90, "write 64B", {{"addr", "0x22000000"}});
    span("bus", 5, 5, "tiny");
    instant("csb", 123456789012, "degraded-enter");
    EXPECT_EQ(text.str(),
              "[       31] csb: flush-ok pid=1 addr=0x22000000 stores=8\n"
              "[       36] bus: write 64B dur=54 addr=0x22000000\n"
              "[        5] bus: tiny dur=1\n"
              "[123456789012] csb: degraded-enter\n");
}

TEST_F(TraceFixture, ChannelIsTheTracksFirstComponent)
{
    capture("ni");
    instant("ni.wire", 7, "retransmit", {{"seq", "3"}});
    instant("ni", 8, "plain");
    instant("nic", 9, "other-channel");
    instant("wire", 10, "other-channel");
    EXPECT_EQ(text.str(), "[        7] ni.wire: retransmit seq=3\n"
                          "[        8] ni: plain\n");
}

TEST_F(TraceFixture, AllEnablesEveryChannel)
{
    capture("all");
    instant("anything", 0, "yes");
    instant("dev.x", 0, "too");
    EXPECT_NE(text.str().find("anything: yes"), std::string::npos);
    EXPECT_NE(text.str().find("dev.x: too"), std::string::npos);
}

TEST_F(TraceFixture, ReconfiguringStopsEmission)
{
    capture("ch", true);
    instant("ch", 0, "one");
    trace::configure("", &text, nullptr);
    instant("ch", 1, "two");
    EXPECT_NE(text.str().find("one"), std::string::npos);
    EXPECT_EQ(text.str().find("two"), std::string::npos);
}

TEST_F(TraceFixture, OneEventReachesBothSinks)
{
    capture("", true);
    instant("csb", 3, "store", {{"pid", "1"}});
    EXPECT_TRUE(text.str().empty()) << "text channel csb is off";

    capture("csb", true);
    instant("csb", 4, "store", {{"pid", "2"}});
    EXPECT_EQ(text.str(), "[        4] csb: store pid=2\n");
    std::vector<mini_json::ValuePtr> events = eventsOf(flushAndParse());
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0]->at("name").string, "store");
    EXPECT_EQ(events[0]->at("cat").string, "csb");
    EXPECT_DOUBLE_EQ(events[0]->at("ts").number, 4.0);
    EXPECT_EQ(events[0]->at("args").at("pid").string, "2");
}

} // namespace
