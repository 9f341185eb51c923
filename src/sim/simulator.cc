#include "simulator.hh"

#include <algorithm>
#include <sstream>

#include "logging.hh"

namespace csb::sim {

void
Clocked::gate()
{
    if (sim_)
        wakeTick_ = maxTick;
}

void
Clocked::ungate()
{
    if (!sim_)
        return;
    Tick edge = domain_.nextEdgeAt(sim_->curTick());
    if (edge < wakeTick_) {
        wakeTick_ = edge;
        sim_->noteWake(edge);
    }
}

void
Clocked::sleepUntil(Tick when)
{
    if (!sim_)
        return;
    wakeTick_ = domain_.nextEdgeAt(std::max(when, sim_->curTick()));
    sim_->noteWake(wakeTick_);
}

std::uint64_t
Clocked::takeSkippedEdges(Tick until)
{
    Tick first = domain_.nextEdgeAt(accounted_);
    accounted_ = std::max(accounted_, until);
    if (first >= until)
        return 0;
    if (domain_.period() == 1)
        return until - first;
    return (until - 1 - first) / domain_.period() + 1;
}

void
Simulator::registerClocked(Clocked *obj)
{
    csb_assert(obj->sim_ == nullptr || obj->sim_ == this,
               obj->name(), " registered with two simulators");
    obj->sim_ = this;
    if (clocked_.empty())
        clocked_.reserve(8); // a System's components, one allocation
    clocked_.push_back(obj);
    order_dirty_ = true;
    obj->wakeTick_ = maxTick;
    obj->accounted_ = curTick();
    obj->ungate();
}

void
Simulator::stepOne()
{
    if (order_dirty_) {
        std::stable_sort(clocked_.begin(), clocked_.end(),
                         [](const Clocked *a, const Clocked *b) {
                             return a->evalOrder() < b->evalOrder();
                         });
        order_dirty_ = false;
    }

    Tick now = events_.curTick();
    events_.serviceUntil(now);
    for (Clocked *obj : clocked_) {
        if (obj->wakeTick_ <= now) {
            const ClockDomain &domain = obj->clockDomain();
            // Wake ticks are edges.  One already passed -- set after
            // the object's evaluation at that tick, or left behind by
            // a checkpoint restore's jump of time -- means the next
            // edge, as with per-tick evaluation.
            if (obj->wakeTick_ == now || domain.isEdge(now)) {
                obj->wakeTick_ = now + domain.period();
                obj->tick();
                obj->accounted_ = now + 1;
            } else {
                obj->wakeTick_ = domain.nextEdgeAt(now);
            }
        }
    }
    // Taken after every evaluation, not as the loop goes: a component
    // woken by an earlier one in this tick and then evaluated may have
    // gone back to sleep, and the tick its wake noted would be stepped
    // for nothing.
    nextWake_ = maxTick;
    for (const Clocked *obj : clocked_)
        nextWake_ = std::min(nextWake_, obj->wakeTick_);
    events_.serviceUntil(now + 1);
}

Tick
Simulator::quiescentJump(Tick budget_left) const
{
    Tick now = events_.curTick();
    if (nextWake_ <= now || budget_left == 0)
        return 0;
    // Land one tick short of the next event, where the landing step's
    // trailing serviceUntil (or advance() in its place) fires it
    // exactly as per-tick stepping would, or on the earliest wake
    // tick so that component is evaluated there.
    Tick jump = budget_left - 1;
    if (watchdogWindow_) {
        // Do not jump past the watchdog deadline; run() re-checks it
        // at the landing tick, so it fires at the identical tick as
        // in per-tick mode.
        Tick deadline = lastProgressTick_ + watchdogWindow_;
        if (deadline <= now)
            return 0;  // runFor() never fires the watchdog; just step
        jump = std::min(jump, deadline - now);
    }
    Tick next = events_.nextTick();
    if (next <= now)
        return 0;
    if (next != maxTick)
        jump = std::min(jump, next - 1 - now);
    if (nextWake_ != maxTick)
        jump = std::min(jump, nextWake_ - now);
    return jump;
}

void
Simulator::advance(Tick budget_left)
{
    Tick jump = quiescentJump(budget_left);
    Tick land = curTick() + jump;
    if (jump > 0) {
        events_.advanceTo(land);
        fastForwardedTicks_ += jump;
    }
    // One tick short of an event (after a jump or not), the step at
    // the landing tick would evaluate nothing and fire the event in
    // its trailing serviceUntil; fire it now instead.  Not when a
    // component is due there, nor on the watchdog deadline, which
    // run() checks at the landing tick.
    bool deadline = watchdogWindow_ &&
                    land - lastProgressTick_ >= watchdogWindow_;
    if (events_.nextTick() == land + 1 && nextWake_ > land && !deadline)
        events_.serviceUntil(land + 1);
    else if (jump == 0)
        stepOne();
}

void
Simulator::settleAll()
{
    for (Clocked *obj : clocked_)
        obj->settle();
}

void
Simulator::noteTickLimit(Tick max_ticks)
{
    ++tickLimitHits_;
    csb_warn("Simulator::run: tick limit of ", max_ticks,
             " ticks exhausted at tick ", curTick(),
             " with the workload unfinished (deadlock or "
             "undersized budget)");
}

void
Simulator::watchdogFire(Tick start)
{
    std::ostringstream diag;
    diag << "watchdog: no forward progress for " << watchdogWindow_
         << " ticks (now=" << curTick()
         << ", last progress=" << lastProgressTick_
         << ", run started=" << start << ")\n";
    diag << "  event queue: " << events_.numPending() << " pending";
    if (!events_.empty())
        diag << ", next at tick " << events_.nextTick();
    diag << ", " << events_.numProcessed() << " processed\n";
    for (const Clocked *obj : clocked_) {
        std::ostringstream state;
        obj->debugDump(state);
        if (state.str().empty())
            continue;
        diag << "  " << obj->name() << ": " << state.str() << "\n";
    }
    csb_fatal(diag.str());
}

Tick
Simulator::runFor(Tick n)
{
    Tick start = curTick();
    while (curTick() - start < n)
        advance(n - (curTick() - start));
    settleAll();
    return curTick();
}

} // namespace csb::sim
