/**
 * @file
 * Trace events from whole Systems: every event carries its own tick,
 * whatever other Systems exist, and the text and Chrome sinks render
 * the same events.  Capturing the reference stream with a
 * sim::TraceRecorder is passive: it never perturbs the run.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.hh"
#include "core/kernels.hh"
#include "core/system.hh"
#include "sim/trace.hh"
#include "sim/trace_recorder.hh"

#include "../sim/mini_json.hh"

namespace {

using namespace csb;
using core::System;
using core::SystemConfig;

SystemConfig
defaultConfig()
{
    SystemConfig cfg;
    cfg.normalize();
    return cfg;
}

/** The "bus" text lines of 16 uncached stores run on @p system. */
std::string
busLinesOf(System &system)
{
    std::ostringstream out;
    sim::trace::configure("bus", &out, nullptr);
    system.run(core::makeStoreKernel(System::ioUncachedBase, 16));
    sim::trace::configure("", nullptr, nullptr);
    return out.str();
}

/** What a lone System prints: its two 8 B writes at ticks 30 and 42. */
std::string
loneSystemLines()
{
    System system(defaultConfig());
    return busLinesOf(system);
}

TEST(TraceSystem, TicksSurviveASecondSystemThatCameAndWent)
{
    const std::string expected = loneSystemLines();
    EXPECT_EQ(expected.rfind("[       30] bus: write 8B ", 0), 0u);
    EXPECT_NE(expected.find("\n[       42] bus: write 8B "),
              std::string::npos);
    System a(defaultConfig());
    {
        System b(defaultConfig());
    }
    EXPECT_EQ(busLinesOf(a), expected);
}

TEST(TraceSystem, TicksBelongToTheSystemThatRuns)
{
    const std::string expected = loneSystemLines();
    System older(defaultConfig());
    System newer(defaultConfig());
    EXPECT_EQ(busLinesOf(older), expected);
    EXPECT_EQ(busLinesOf(newer), expected);
}

/** One event as the text sink prints it, split into its parts. */
struct TextEvent
{
    unsigned long long ts = 0;
    std::string track;
    std::string name;
    std::vector<std::pair<std::string, std::string>> args;
};

TextEvent
parseLine(const std::string &line)
{
    TextEvent ev;
    std::size_t close = line.find("] ");
    std::size_t colon = line.find(": ", close);
    ev.ts = std::stoull(line.substr(1, close - 1));
    ev.track = line.substr(close + 2, colon - close - 2);
    std::istringstream words(line.substr(colon + 2));
    std::string word;
    while (words >> word) {
        std::size_t eq = word.find('=');
        if (eq == std::string::npos)
            ev.name += (ev.name.empty() ? "" : " ") + word;
        else
            ev.args.emplace_back(word.substr(0, eq), word.substr(eq + 1));
    }
    return ev;
}

/**
 * Mark the first unmarked event of @p doc that matches @p text in
 * tick, track, name, duration and every arg.  @return whether one did.
 */
bool
takeMatch(const mini_json::Value &doc, std::vector<bool> &taken,
          const TextEvent &text)
{
    const auto &events = doc.at("traceEvents").array;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const mini_json::Value &ev = *events[i];
        if (taken[i] || ev.at("ph").string == "M" ||
            ev.at("name").string != text.name ||
            ev.at("cat").string != text.track ||
            ev.at("ts").number != double(text.ts))
            continue;
        bool same = true;
        for (const auto &[key, value] : text.args) {
            if (key == "dur")
                same = same && ev.at("ph").string == "X" &&
                       ev.at("dur").number == std::stod(value);
            else
                same = same && ev.at("args").at(key).string == value;
        }
        if (same) {
            taken[i] = true;
            return true;
        }
    }
    return false;
}

TEST(TraceSystem, ChromeTraceHoldsEveryTextEvent)
{
    SystemConfig cfg = defaultConfig();
    cfg.enableCsb = true;
    cfg.ubuf.combineBytes = 64;
    cfg.faults.busWriteNackRate = 0.2;
    cfg.normalize();

    std::ostringstream text;
    std::ostringstream json;
    sim::trace::configure("all", &text, &json);
    {
        System system(cfg);
        system.run(core::makeCsbStoreKernel(System::ioCsbBase, 256, 64));
        system.run(core::makeStoreKernel(System::ioAccelBase, 256));
    }
    sim::trace::flush();
    sim::trace::configure("", nullptr, nullptr);

    mini_json::Value doc = mini_json::parse(json.str());
    std::istringstream lines(text.str());
    std::string line;
    std::vector<bool> taken(doc.at("traceEvents").array.size(), false);
    std::set<std::string> seen;
    while (std::getline(lines, line)) {
        SCOPED_TRACE(line);
        TextEvent ev = parseLine(line);
        EXPECT_TRUE(takeMatch(doc, taken, ev));
        seen.insert(ev.track + ": " + ev.name.substr(0, ev.name.find(' ')));
    }
    // Both sinks saw the same events: none is in the document only.
    for (std::size_t i = 0; i < taken.size(); ++i) {
        const mini_json::Value &ev = *doc.at("traceEvents").array[i];
        EXPECT_TRUE(taken[i] || ev.at("ph").string == "M")
            << ev.at("cat").string << ": " << ev.at("name").string;
    }
    for (const char *event :
         {"csb: store", "csb: flush-ok", "csb: csb", "bus: write",
          "bus: bus-nack", "dev: burst", "ubuf: new-entry",
          "ubuf: coalesce"})
        EXPECT_EQ(seen.count(event), 1u) << event;
}

/** What a fig3 point leaves behind: the surfaces a recorder must not move. */
struct RunSurface
{
    Tick endTick = 0;
    std::uint64_t ioWriteBusCycles = 0;
    std::string statsJson;
};

/**
 * Run the Fig 3(b) NoCombine 1024 B point (8 B multiplexed bus, ratio
 * 6, 32 B block), capturing into @p recorder unless it is null.
 */
RunSurface
fig3NoCombinePoint(sim::TraceRecorder *recorder)
{
    core::BandwidthSetup setup;
    setup.bus.kind = bus::BusKind::Multiplexed;
    setup.bus.widthBytes = 8;
    setup.bus.ratio = 6;
    setup.lineBytes = 32;
    System system(core::bandwidthConfig(setup, core::Scheme::NoCombine));
    system.attachTraceRecorder(recorder);
    RunSurface surface;
    surface.endTick =
        system.run(core::makeStoreKernel(System::ioUncachedBase, 1024));
    surface.ioWriteBusCycles = system.ioWriteBusCycles();
    std::ostringstream os;
    system.dumpStatsJson(os);
    surface.statsJson = os.str();
    return surface;
}

TEST(TraceSystem, RecordingDoesNotPerturbTheRun)
{
    // The litmus repros and hostbench's litmus_sweep attach a recorder
    // to every case; what they measure must be the unrecorded run.
    sim::TraceRecorder recorder(1, 32);
    const RunSurface recorded = fig3NoCombinePoint(&recorder);
    const RunSurface plain = fig3NoCombinePoint(nullptr);
    EXPECT_EQ(recorder.records().size(), 1024u / 8 + 1); // stores + membar
    EXPECT_EQ(recorded.endTick, plain.endTick);
    EXPECT_EQ(recorded.ioWriteBusCycles, plain.ioWriteBusCycles);
    // The whole tree, cpu group included.
    EXPECT_NE(plain.statsJson.find("\"cpu\""), std::string::npos);
    EXPECT_EQ(recorded.statsJson, plain.statsJson);
}

} // namespace
