/**
 * @file
 * Tests for component clock gating, wake ticks (sleepUntil) and the
 * idle fast-forward in the Simulator.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/clocked.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace {

using csb::Tick;
using csb::sim::ClockDomain;
using csb::sim::Clocked;
using csb::sim::Simulator;

/**
 * A device that gates itself whenever its work queue is empty and
 * records every tick on which it actually ran.
 */
class GatingDevice : public Clocked
{
  public:
    explicit GatingDevice(Simulator *sim, Tick period = 1)
        : Clocked("gating_dev", ClockDomain(period)), sim_(sim)
    {}

    void
    tick() override
    {
        if (pending_ == 0) {
            gate();
            return;
        }
        --pending_;
        ranAt_.push_back(sim_->curTick());
    }

    void
    addWork(unsigned n)
    {
        ungate();
        pending_ += n;
    }

    const std::vector<Tick> &ranAt() const { return ranAt_; }
    unsigned pending() const { return pending_; }

  private:
    Simulator *sim_;
    unsigned pending_ = 0;
    std::vector<Tick> ranAt_;
};

TEST(ClockGating, GatedDeviceIsSkipped)
{
    Simulator sim;
    GatingDevice dev(&sim);
    sim.registerClocked(&dev);
    EXPECT_FALSE(dev.gated());

    sim.runFor(5);  // first tick gates the idle device
    EXPECT_TRUE(dev.gated());
    EXPECT_TRUE(dev.ranAt().empty());
}

TEST(ClockGating, UngateResumesTicking)
{
    Simulator sim;
    GatingDevice dev(&sim);
    sim.registerClocked(&dev);

    sim.runFor(10);
    EXPECT_TRUE(dev.gated());

    dev.addWork(3);
    EXPECT_FALSE(dev.gated());

    sim.runFor(10);
    // Work drained over three consecutive edges, then re-gated.
    EXPECT_EQ(dev.ranAt(), (std::vector<Tick>{10, 11, 12}));
    EXPECT_EQ(dev.pending(), 0u);
    EXPECT_TRUE(dev.gated());
}

TEST(ClockGating, RunForFastForwardsQuiescentSpans)
{
    Simulator sim;
    GatingDevice dev(&sim);
    sim.registerClocked(&dev);

    // Work arrives via an event far in the future; the span between
    // gating and that event must be jumped, not stepped.
    sim.eventQueue().scheduleFunc(100'000, [&] { dev.addWork(1); });
    Tick end = sim.runFor(200'000);
    EXPECT_EQ(end, 200'000u);
    EXPECT_EQ(sim.curTick(), 200'000u);
    EXPECT_EQ(dev.ranAt(), (std::vector<Tick>{100'000}));
    // Nearly the whole run was skipped; only the edges around the
    // event and the initial gating tick were stepped.
    EXPECT_GT(sim.fastForwardedTicks(), 190'000u);
}

TEST(ClockGating, FastForwardPreservesTickExactness)
{
    // The same workload stepped tick-by-tick and fast-forwarded must
    // run the device on identical ticks.
    // An always-on component defeats the whole-system fast-forward so
    // the reference run steps every tick.
    class AlwaysOn : public Clocked
    {
      public:
        AlwaysOn() : Clocked("always_on", ClockDomain(1)) {}
        void tick() override {}
    };
    auto drive = [](bool gated_path) {
        Simulator sim;
        GatingDevice dev(&sim, 3);  // period-3 domain
        sim.registerClocked(&dev);
        AlwaysOn keeper;
        if (!gated_path)
            sim.registerClocked(&keeper);
        for (Tick t : {50u, 51u, 1000u, 7777u})
            sim.eventQueue().scheduleFunc(t, [&dev] { dev.addWork(2); });
        sim.runFor(10'000);
        return dev.ranAt();
    };
    auto fast = drive(true);
    auto slow = drive(false);
    EXPECT_EQ(fast, slow);
    EXPECT_FALSE(fast.empty());
}

TEST(ClockGating, RunFastForwardsQuiescentSpans)
{
    Simulator sim;
    GatingDevice dev(&sim);
    sim.registerClocked(&dev);

    bool fired = false;
    sim.eventQueue().scheduleFunc(5'000, [&] {
        dev.addWork(1);
        fired = true;
    });
    Tick end = sim.run([&] { return fired && dev.pending() == 0; },
                       1'000'000);
    // The device drains its work during tick 5000; run() observes the
    // predicate at the top of the next tick.
    EXPECT_EQ(end, 5'001u);
    EXPECT_GT(sim.fastForwardedTicks(), 4'000u);
    EXPECT_EQ(dev.ranAt(), (std::vector<Tick>{5'000}));
}

TEST(ClockGating, WatchdogStillFiresAcrossFastForward)
{
    Simulator sim;
    GatingDevice dev(&sim);
    sim.registerClocked(&dev);
    sim.setWatchdog(1'000);

    // No progress is ever noted, so run() must throw at the watchdog
    // deadline instead of fast-forwarding past it.
    EXPECT_THROW(sim.run([] { return false; }, 100'000),
                 csb::FatalError);
    EXPECT_LE(sim.curTick(), 2'000u)
        << "fast-forward must not overshoot the watchdog deadline";
}

/**
 * A device that, on every tick it runs, records the tick and then
 * sleeps until the next entry of its wake plan (gates when the plan
 * is used up).
 */
class SleepyDevice : public Clocked
{
  public:
    SleepyDevice(Simulator *sim, std::vector<Tick> plan, Tick period = 1)
        : Clocked("sleepy_dev", ClockDomain(period)), sim_(sim),
          plan_(std::move(plan))
    {}

    void
    tick() override
    {
        ranAt_.push_back(sim_->curTick());
        if (next_ < plan_.size())
            sleepUntil(plan_[next_++]);
        else
            gate();
    }

    const std::vector<Tick> &ranAt() const { return ranAt_; }

  private:
    Simulator *sim_;
    std::vector<Tick> plan_;
    std::size_t next_ = 0;
    std::vector<Tick> ranAt_;
};

TEST(ClockGating, SleeperTicksFirstAtItsWakeTick)
{
    Simulator sim;
    SleepyDevice dev(&sim, {40, 41, 1000});
    sim.registerClocked(&dev);
    sim.runFor(2000);
    EXPECT_EQ(dev.ranAt(), (std::vector<Tick>{0, 40, 41, 1000}));
    EXPECT_TRUE(dev.gated());
}

TEST(ClockGating, SleepUntilOffEdgeWakesAtTheNextEdge)
{
    // Period-6 domain: edges at 0, 6, 12, ...  A wake tick between
    // edges means the first edge at or after it; one in the past
    // means the next edge not yet evaluated.
    Simulator sim;
    SleepyDevice dev(&sim, {13, 18, 2, 100}, 6);
    sim.registerClocked(&dev);
    sim.runFor(200);
    EXPECT_EQ(dev.ranAt(), (std::vector<Tick>{0, 18, 24, 30, 102}));
    EXPECT_TRUE(dev.gated());
}

TEST(ClockGating, UngateBeforeWakeTickWakesAtTheCurrentTick)
{
    Simulator sim;
    SleepyDevice dev(&sim, {5'000});
    sim.registerClocked(&dev);
    // Events fire before the clocked phase of their tick, so the
    // early wake-up is evaluated at the event's own tick.
    sim.eventQueue().scheduleFunc(700, [&dev] { dev.ungate(); });
    sim.runFor(10'000);
    EXPECT_EQ(dev.ranAt(), (std::vector<Tick>{0, 700}));
}

TEST(ClockGating, UngateAfterTheClockedPhaseWakesAtTheNextEdge)
{
    // A wake-up issued once the device was already evaluated at this
    // tick (by a later component) lands on its next edge.
    class Waker : public Clocked
    {
      public:
        Waker(Simulator *sim, Clocked &target)
            : Clocked("waker", ClockDomain(1), /*eval_order=*/1),
              sim_(sim), target_(target)
        {}
        void
        tick() override
        {
            if (sim_->curTick() == 9)
                target_.ungate();
        }

      private:
        Simulator *sim_;
        Clocked &target_;
    };
    Simulator sim;
    SleepyDevice dev(&sim, {9, 500}, 3);
    Waker waker(&sim, dev);
    sim.registerClocked(&dev);
    sim.registerClocked(&waker);
    sim.runFor(100);
    EXPECT_EQ(dev.ranAt(), (std::vector<Tick>{0, 9, 12}));
}

TEST(ClockGating, JumpLandsOnWakeTicksAndEvents)
{
    Simulator sim;
    SleepyDevice dev(&sim, {3'000, 9'000});
    sim.registerClocked(&dev);
    std::vector<Tick> fired;
    sim.eventQueue().scheduleFunc(6'000, [&] {
        fired.push_back(sim.curTick());
    });
    sim.run([] { return false; }, 10'000);
    EXPECT_EQ(dev.ranAt(), (std::vector<Tick>{0, 3'000, 9'000}));
    EXPECT_EQ(fired, (std::vector<Tick>{6'000}));
    // Only the ticks carrying work (and the tick before the event)
    // were stepped.
    EXPECT_GT(sim.fastForwardedTicks(), 9'990u);
}

TEST(ClockGating, WatchdogFiresAtTheSameTickWithSleepers)
{
    // A sleeper that never notes progress: jumping its idle ticks must
    // not move the watchdog off the tick its window ends on.
    Simulator sim;
    SleepyDevice dev(&sim, {250, 600, 1'700, 2'900});
    sim.registerClocked(&dev);
    sim.setWatchdog(1'000);
    EXPECT_THROW(sim.run([] { return false; }, 100'000),
                 csb::FatalError);
    EXPECT_EQ(sim.curTick(), 1'000u);
}

} // namespace
