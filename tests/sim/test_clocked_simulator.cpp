/**
 * @file
 * Unit tests for clock domains, Clocked objects and the Simulator
 * driver (evaluation order, event/tick interleaving).
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/clocked.hh"
#include "sim/simulator.hh"

namespace {

using namespace csb;
using sim::ClockDomain;
using sim::Clocked;
using sim::Simulator;

TEST(ClockDomain, EdgesAndCycles)
{
    ClockDomain fast(1);
    ClockDomain slow(6);
    EXPECT_TRUE(fast.isEdge(0));
    EXPECT_TRUE(fast.isEdge(5));
    EXPECT_TRUE(slow.isEdge(0));
    EXPECT_FALSE(slow.isEdge(5));
    EXPECT_TRUE(slow.isEdge(6));
    EXPECT_EQ(slow.cycleAt(0), 0u);
    EXPECT_EQ(slow.cycleAt(5), 0u);
    EXPECT_EQ(slow.cycleAt(6), 1u);
    EXPECT_EQ(slow.cycleAt(35), 5u);
    EXPECT_EQ(slow.tickOfCycle(3), 18u);
    // Periods need not be powers of two.
    EXPECT_EQ(slow.nextEdgeAt(7), 12u);
    EXPECT_EQ(slow.nextEdgeAt(12), 12u);
    EXPECT_EQ(ClockDomain(10).nextEdgeAt(26), 30u);
    // Every tick is an edge of a period-1 domain, after its phase.
    EXPECT_EQ(fast.nextEdgeAt(7), 7u);
    EXPECT_EQ(ClockDomain(1, 3).nextEdgeAt(1), 3u);
    EXPECT_EQ(ClockDomain(1, 3).nextEdgeAt(5), 5u);
}

TEST(ClockDomain, PhaseShiftsEdges)
{
    ClockDomain shifted(4, 2);
    EXPECT_FALSE(shifted.isEdge(0));
    EXPECT_TRUE(shifted.isEdge(2));
    EXPECT_TRUE(shifted.isEdge(6));
    EXPECT_EQ(shifted.nextEdgeAt(3), 6u);
    EXPECT_EQ(shifted.nextEdgeAt(2), 2u);
    EXPECT_EQ(shifted.nextEdgeAt(0), 2u);
}

class Recorder : public Clocked
{
  public:
    Recorder(std::string name, ClockDomain domain, int order,
             std::vector<std::pair<std::string, Tick>> *log,
             Simulator *simulator)
        : Clocked(std::move(name), domain, order), log_(log),
          sim_(simulator)
    {}

    void
    tick() override
    {
        log_->emplace_back(name(), sim_->curTick());
    }

  private:
    std::vector<std::pair<std::string, Tick>> *log_;
    Simulator *sim_;
};

TEST(Simulator, RespectsClockDomains)
{
    Simulator simulator;
    std::vector<std::pair<std::string, Tick>> log;
    Recorder cpu("cpu", ClockDomain(1), 0, &log, &simulator);
    Recorder bus("bus", ClockDomain(3), -1, &log, &simulator);
    simulator.registerClocked(&cpu);
    simulator.registerClocked(&bus);
    simulator.runFor(6);

    unsigned cpu_ticks = 0;
    unsigned bus_ticks = 0;
    for (const auto &[name, tick] : log) {
        if (name == "cpu")
            ++cpu_ticks;
        else
            ++bus_ticks;
    }
    EXPECT_EQ(cpu_ticks, 6u);
    EXPECT_EQ(bus_ticks, 2u); // edges at ticks 0 and 3
}

TEST(Simulator, EvalOrderWithinTick)
{
    Simulator simulator;
    std::vector<std::pair<std::string, Tick>> log;
    Recorder late("late", ClockDomain(1), 10, &log, &simulator);
    Recorder early("early", ClockDomain(1), -10, &log, &simulator);
    // Register in the "wrong" order; evalOrder must win.
    simulator.registerClocked(&late);
    simulator.registerClocked(&early);
    simulator.runFor(1);
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0].first, "early");
    EXPECT_EQ(log[1].first, "late");
}

TEST(Simulator, EventsFireBeforeClockedAtSameTick)
{
    Simulator simulator;
    std::vector<std::string> order;
    class Ticker : public Clocked
    {
      public:
        Ticker(std::vector<std::string> *order, Simulator *simulator)
            : Clocked("t", ClockDomain(1)), order_(order),
              sim_(simulator)
        {}
        void
        tick() override
        {
            if (sim_->curTick() == 5)
                order_->push_back("clocked");
        }

      private:
        std::vector<std::string> *order_;
        Simulator *sim_;
    };
    Ticker ticker(&order, &simulator);
    simulator.registerClocked(&ticker);
    simulator.eventQueue().scheduleFunc(5, [&] {
        order.push_back("event");
    });
    simulator.runFor(8);
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "event");
    EXPECT_EQ(order[1], "clocked");
}

TEST(Simulator, RunStopsOnPredicate)
{
    // run() may jump idle ticks, so its predicate reads state an
    // event sets, never curTick().
    Simulator simulator;
    bool done = false;
    simulator.eventQueue().scheduleFunc(10, [&] { done = true; });
    Tick end = simulator.run([&] { return done; }, 1000);
    EXPECT_EQ(end, 10u);
}

// An idle jump lands one tick short of the next event, and the
// simulator fires that event at once instead of stepping the empty
// landing tick.  The cases below pin what per-tick stepping gives.

/** Evaluated once, at registration's edge, then asleep for good. */
class OneShot : public Clocked
{
  public:
    OneShot() : Clocked("oneshot", ClockDomain(1)) {}
    void
    tick() override
    {
        ++ticks;
        gate();
    }
    unsigned ticks = 0;
};

TEST(Simulator, LoneEventStopsRunAtItsTick)
{
    Simulator simulator;
    OneShot idle;
    simulator.registerClocked(&idle);
    bool done = false;
    simulator.eventQueue().scheduleFunc(700, [&] { done = true; });
    Tick end = simulator.run([&] { return done; }, 100'000);
    EXPECT_EQ(end, 700u);
    EXPECT_EQ(idle.ticks, 1u);
}

TEST(Simulator, LoneEventFastForwardsAllButTheLandingTick)
{
    Simulator simulator;
    simulator.runFor(1);
    const Tick n = 1000;
    bool done = false;
    simulator.eventQueue().scheduleFunc(simulator.curTick() + n,
                                        [&] { done = true; });
    Tick end = simulator.run([&] { return done; }, 100'000);
    EXPECT_EQ(end, 1u + n);
    EXPECT_EQ(simulator.fastForwardedTicks(), n - 1);
}

TEST(Simulator, ComponentDueAtLandingTickRunsBeforeTheEvent)
{
    // The jump lands on the sleeper's wake tick, one short of the
    // event: the sleeper must be evaluated there before the event
    // fires.
    std::vector<std::pair<std::string, Tick>> log;
    Simulator simulator;
    class Sleeper : public Clocked
    {
      public:
        Sleeper(std::vector<std::pair<std::string, Tick>> *log,
                Simulator *simulator)
            : Clocked("sleeper", ClockDomain(1)), log_(log),
              sim_(simulator)
        {}
        void
        tick() override
        {
            log_->emplace_back(name(), sim_->curTick());
            if (log_->size() == 1)
                sleepUntil(50);
            else
                gate();
        }

      private:
        std::vector<std::pair<std::string, Tick>> *log_;
        Simulator *sim_;
    };
    Sleeper sleeper(&log, &simulator);
    simulator.registerClocked(&sleeper);
    simulator.eventQueue().scheduleFunc(51, [&] {
        log.emplace_back("event", simulator.curTick());
    });
    simulator.runFor(60);
    using Entry = std::pair<std::string, Tick>;
    EXPECT_EQ(log, (std::vector<Entry>{
                       {"sleeper", 0}, {"sleeper", 50}, {"event", 51}}));
}

TEST(Simulator, RunHonoursMaxTicks)
{
    Simulator simulator;
    Tick end = simulator.run([] { return false; }, 25);
    EXPECT_EQ(end, 25u);
}

} // namespace
