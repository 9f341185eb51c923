/**
 * @file
 * Top-level simulation driver combining a cycle loop with a discrete
 * event queue.
 */

#ifndef CSB_SIM_SIMULATOR_HH
#define CSB_SIM_SIMULATOR_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "clocked.hh"
#include "event_queue.hh"
#include "logging.hh"
#include "types.hh"

namespace csb::sim {

/**
 * Owns simulated time.  Each tick: first all events scheduled for the
 * tick fire, then every registered Clocked object whose wake tick has
 * come is evaluated in evalOrder.
 */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current time in CPU cycles. */
    Tick curTick() const { return events_.curTick(); }

    /**
     * The shared event queue, for callbacks between components (cache
     * and bus responses, device and NI timers).  A component's own
     * fixed-latency work is not an event: it sleeps until then.
     */
    EventQueue &eventQueue() { return events_; }

    /** Register a cycle-driven object.  Not owned. */
    void registerClocked(Clocked *obj);

    /**
     * Run until @p done returns true or @p max_ticks elapse.  Idle
     * spans -- no event fires and no component is due -- are jumped,
     * so @p done is consulted only at ticks where something could
     * have changed: it must read component or event state, never
     * curTick().  To stop at a tick, use runFor().  @p done is a
     * template parameter, so testing it on every visited tick is a
     * direct (usually inlined) call.
     * @return the tick at which the run stopped.
     */
    template <typename Done>
    Tick run(Done &&done, Tick max_ticks = 10'000'000);

    /** Run for exactly @p n ticks (always fast-forwards). */
    Tick runFor(Tick n);

    /** Advance a single tick (events then clocked evaluation). */
    void stepOne();

    /** Number of Clocked objects registered. */
    std::size_t numClocked() const { return clocked_.size(); }

    /**
     * Ticks skipped by the idle fast-forward: when no event fires and
     * no component is due, run()/runFor() jump straight to the next
     * event or wake tick instead of stepping empty ticks one by one.
     */
    std::uint64_t fastForwardedTicks() const { return fastForwardedTicks_; }

    /**
     * Arm the forward-progress watchdog: when run() observes
     * @p window ticks with no call to noteProgress(), it throws a
     * diagnostic FatalError that dumps the event queue and every
     * registered component's debugDump().  0 disables (the default).
     */
    void setWatchdog(Tick window) { watchdogWindow_ = window; }

    Tick watchdogWindow() const { return watchdogWindow_; }

    /**
     * Components call this when they make observable forward
     * progress (an instruction retires, a bus transaction starts).
     * Feeds the watchdog; free when the watchdog is disarmed.
     */
    void noteProgress() { lastProgressTick_ = curTick(); }

    /**
     * Times run() returned with the done-predicate still false (the
     * tick budget was exhausted before the workload finished).
     */
    std::uint64_t tickLimitHits() const { return tickLimitHits_; }

    /**
     * Jump simulated time to @p when as part of checkpoint restore
     * (docs/CHECKPOINT.md): only legal while the event queue is empty,
     * i.e. on a freshly built system before anything is scheduled.
     * Counts as forward progress for the watchdog.
     */
    void
    restoreTick(Tick when)
    {
        csb_assert(events_.empty(),
                   "restoreTick with events pending");
        events_.advanceTo(when);
        lastProgressTick_ = when;
        // The jumped-over edges were never simulated, not slept
        // through.
        for (Clocked *obj : clocked_)
            obj->accounted_ = when;
    }

  private:
    friend class Clocked;

    [[noreturn]] void watchdogFire(Tick start);

    /** A component became due at @p when. */
    void noteWake(Tick when) { nextWake_ = std::min(nextWake_, when); }

    /**
     * @return how many ticks beyond curTick() can be skipped without
     * changing behaviour: up to the tick before the next event or the
     * earliest component wake tick, clamped to @p budget_left ticks
     * remaining and the watchdog deadline; 0 when the current tick
     * has work.
     */
    Tick quiescentJump(Tick budget_left) const;

    /**
     * Jump the idle span ahead, or step one tick if there is none;
     * an event one tick past the landing tick fires at once when the
     * step there would evaluate nothing.
     */
    void advance(Tick budget_left);

    /** Call settle() on every component (end of run()/runFor()). */
    void settleAll();

    /** The tick budget ran out with the workload unfinished. */
    void noteTickLimit(Tick max_ticks);

    EventQueue events_;
    std::vector<Clocked *> clocked_;
    bool order_dirty_ = false;
    /** No component is due before this tick (a lower bound). */
    Tick nextWake_ = 0;
    Tick watchdogWindow_ = 0;
    Tick lastProgressTick_ = 0;
    std::uint64_t tickLimitHits_ = 0;
    std::uint64_t fastForwardedTicks_ = 0;
};

template <typename Done>
Tick
Simulator::run(Done &&done, Tick max_ticks)
{
    Tick start = curTick();
    lastProgressTick_ = std::max(lastProgressTick_, start);
    while (curTick() - start < max_ticks) {
        if (done()) {
            settleAll();
            return curTick();
        }
        if (watchdogWindow_ &&
            curTick() - lastProgressTick_ >= watchdogWindow_) {
            watchdogFire(start);
        }
        advance(max_ticks - (curTick() - start));
    }
    if (!done())
        noteTickLimit(max_ticks);
    settleAll();
    return curTick();
}

} // namespace csb::sim

#endif // CSB_SIM_SIMULATOR_HH
