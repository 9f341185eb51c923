/**
 * @file
 * Forward-progress watchdog tests: an artificial livelock (events
 * keep firing, nothing progresses) must convert into a diagnostic
 * FatalError within the configured window, noteProgress() must defer
 * it, and tick-limit exhaustion must be counted instead of silent.
 */

#include <gtest/gtest.h>

#include <string>

#include "sim/clocked.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace {

using namespace csb;

class SpinningDevice : public sim::Clocked
{
  public:
    SpinningDevice() : sim::Clocked("spinner", sim::ClockDomain(1)) {}
    void tick() override { ++ticks; }
    void
    debugDump(std::ostream &os) const override
    {
        os << "spun=" << ticks;
    }
    std::uint64_t ticks = 0;
};

TEST(Watchdog, LivelockFiresWithinWindow)
{
    sim::Simulator sim;
    SpinningDevice dev;
    sim.registerClocked(&dev);
    sim.setWatchdog(500);

    std::string message;
    Tick fired_at = 0;
    try {
        sim.run([] { return false; }, 100000);
        FAIL() << "watchdog never fired";
    } catch (const FatalError &err) {
        message = err.what();
        fired_at = sim.curTick();
    }
    EXPECT_GE(fired_at, 500u);
    EXPECT_LE(fired_at, 510u) << "fires promptly once the window lapses";
    EXPECT_NE(message.find("watchdog"), std::string::npos);
    // The diagnostic names the stuck component and its state.
    EXPECT_NE(message.find("spinner"), std::string::npos);
    EXPECT_NE(message.find("spun="), std::string::npos);
}

TEST(Watchdog, DiagnosticIncludesEventQueueState)
{
    sim::Simulator sim;
    sim.setWatchdog(200);
    // A self-rescheduling event: the queue is never empty, yet nothing
    // makes progress -- the classic livelock shape.
    std::function<void()> respin = [&] {
        sim.eventQueue().scheduleFunc(sim.curTick() + 10, respin);
    };
    sim.eventQueue().scheduleFunc(10, respin);

    try {
        sim.run([] { return false; }, 100000);
        FAIL() << "watchdog never fired";
    } catch (const FatalError &err) {
        std::string message = err.what();
        EXPECT_NE(message.find("event queue"), std::string::npos);
        EXPECT_NE(message.find("pending"), std::string::npos);
    }
}

TEST(Watchdog, NoteProgressDefersFiring)
{
    sim::Simulator sim;
    sim.setWatchdog(100);
    // Report progress every 50 ticks: the watchdog must stay quiet for
    // the whole run.
    std::function<void()> heartbeat = [&] {
        sim.noteProgress();
        sim.eventQueue().scheduleFunc(sim.curTick() + 50, heartbeat);
    };
    sim.eventQueue().scheduleFunc(50, heartbeat);
    EXPECT_NO_THROW(sim.run([] { return false; }, 2000));
    EXPECT_EQ(sim.curTick(), 2000u);
}

TEST(Watchdog, FiresOnALandingTickBeforeTheNextEvent)
{
    // The idle jump from tick 1 lands on tick 100, one short of an
    // event that would report progress.  Tick 100 is also the
    // watchdog deadline, so the watchdog fires there, before the
    // event, exactly as per-tick stepping has it.
    sim::Simulator sim;
    sim.setWatchdog(100);
    sim.eventQueue().scheduleFunc(101, [&] { sim.noteProgress(); });
    Tick fired_at = 0;
    try {
        sim.run([] { return false; }, 1000);
        FAIL() << "watchdog never fired";
    } catch (const FatalError &) {
        fired_at = sim.curTick();
    }
    EXPECT_EQ(fired_at, 100u);
    EXPECT_EQ(sim.eventQueue().numProcessed(), 0u);
}

TEST(Watchdog, DisabledByDefault)
{
    sim::Simulator sim;
    EXPECT_EQ(sim.watchdogWindow(), 0u);
    EXPECT_NO_THROW(sim.run([] { return false; }, 5000));
}

TEST(Watchdog, TickLimitExhaustionIsCounted)
{
    setLogQuiet(true);
    sim::Simulator sim;
    EXPECT_EQ(sim.tickLimitHits(), 0u);
    sim.run([] { return false; }, 100);
    EXPECT_EQ(sim.tickLimitHits(), 1u);
    sim.run([] { return false; }, 100);
    EXPECT_EQ(sim.tickLimitHits(), 2u);
    // A run that stops at a tick rather than on a predicate does not
    // count.
    sim.runFor(50);
    EXPECT_EQ(sim.tickLimitHits(), 2u);
    setLogQuiet(false);
}

} // namespace
