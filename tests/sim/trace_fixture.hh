/**
 * @file
 * Shared fixture for the trace tests: points both sinks at string
 * streams, emits events with literal fields and parses the flushed
 * Chrome trace document.
 */

#ifndef CSB_TESTS_SIM_TRACE_FIXTURE_HH
#define CSB_TESTS_SIM_TRACE_FIXTURE_HH

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/trace.hh"

#include "mini_json.hh"

namespace trace_test {

namespace trace = csb::sim::trace;
using csb::Tick;

class TraceFixture : public ::testing::Test
{
  protected:
    void TearDown() override { trace::configure("", nullptr, nullptr); }

    /** Text lines of @p channels to text; the Chrome trace to json. */
    void
    capture(std::string_view channels, bool chrome = false)
    {
        trace::configure(channels, &text, chrome ? &json : nullptr);
    }

    mini_json::Value
    flushAndParse()
    {
        trace::flush();
        return mini_json::parse(json.str());
    }

    static void
    instant(std::string_view track, Tick ts, std::string name,
            std::vector<trace::Arg> args = {})
    {
        trace::instant(track, ts, [&] {
            return trace::Fields{std::move(name), std::move(args)};
        });
    }

    static void
    span(std::string_view track, Tick start, Tick end, std::string name,
         std::vector<trace::Arg> args = {})
    {
        trace::span(track, start, end, [&] {
            return trace::Fields{std::move(name), std::move(args)};
        });
    }

    /** Non-metadata events of a flushed document. */
    static std::vector<mini_json::ValuePtr>
    eventsOf(const mini_json::Value &doc)
    {
        std::vector<mini_json::ValuePtr> events;
        for (const auto &ev : doc.at("traceEvents").array) {
            if (ev->at("ph").string != "M")
                events.push_back(ev);
        }
        return events;
    }

    std::ostringstream text;
    std::ostringstream json;
};

} // namespace trace_test

#endif // CSB_TESTS_SIM_TRACE_FIXTURE_HH
