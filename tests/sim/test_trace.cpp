/**
 * @file
 * Tests for the debug trace channels.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/trace.hh"

namespace {

namespace trace = csb::sim::trace;

/** Streams as "counted" and counts how often it was formatted. */
struct CountingArg
{
    int *calls;
};

std::ostream &
operator<<(std::ostream &os, const CountingArg &arg)
{
    ++*arg.calls;
    return os << "counted";
}

class TraceFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        trace::disable("all");
        trace::setOutput(&out);
        trace::setTickSource([this] { return tick; });
    }

    void
    TearDown() override
    {
        trace::disable("all");
        trace::setOutput(nullptr);
        trace::setTickSource(nullptr);
    }

    std::ostringstream out;
    csb::Tick tick = 0;
};

TEST_F(TraceFixture, DisabledChannelIsSilent)
{
    trace::log("quiet", "should not appear");
    EXPECT_TRUE(out.str().empty());
    EXPECT_FALSE(trace::enabled("quiet"));
}

TEST_F(TraceFixture, EnabledChannelEmits)
{
    trace::enable("loud");
    tick = 42;
    trace::log("loud", "value=", 7);
    EXPECT_NE(out.str().find("loud: value=7"), std::string::npos);
    EXPECT_NE(out.str().find("42"), std::string::npos);
}

TEST_F(TraceFixture, OtherChannelsStaySilent)
{
    trace::enable("a");
    trace::log("b", "nope");
    EXPECT_TRUE(out.str().empty());
}

TEST_F(TraceFixture, AllEnablesEverything)
{
    trace::enable("all");
    trace::log("anything", "yes");
    EXPECT_NE(out.str().find("anything: yes"), std::string::npos);
}

TEST_F(TraceFixture, DisableStopsEmission)
{
    trace::enable("ch");
    trace::log("ch", "one");
    trace::disable("ch");
    trace::log("ch", "two");
    EXPECT_NE(out.str().find("one"), std::string::npos);
    EXPECT_EQ(out.str().find("two"), std::string::npos);
}

TEST_F(TraceFixture, DisabledChannelNeverFormatsItsArguments)
{
    int calls = 0;
    trace::log("lazy", CountingArg{&calls});
    EXPECT_EQ(calls, 0) << "no channel on";
    trace::enable("other");
    trace::log("lazy", CountingArg{&calls});
    EXPECT_EQ(calls, 0) << "another channel on";
    trace::enable("lazy");
    trace::log("lazy", CountingArg{&calls});
    EXPECT_EQ(calls, 1);
    EXPECT_NE(out.str().find("lazy: counted"), std::string::npos);
}

TEST_F(TraceFixture, StreamedArgumentsFormat)
{
    trace::enable("fmt");
    trace::log("fmt", "addr=0x", std::hex, 255, std::dec, " n=", 10);
    EXPECT_NE(out.str().find("addr=0xff n=10"), std::string::npos);
}

} // namespace
