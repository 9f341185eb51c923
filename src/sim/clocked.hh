/**
 * @file
 * Clock domains and cycle-driven (Clocked) simulation objects.
 *
 * The CPU core runs at one tick per cycle; the system bus runs at a
 * configurable ratio of CPU cycles per bus cycle (the paper's
 * "processor to bus frequency ratio").  A Clocked object registers
 * with the Simulator and has tick() invoked on every edge of its
 * domain, in ascending evaluation-order.
 */

#ifndef CSB_SIM_CLOCKED_HH
#define CSB_SIM_CLOCKED_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "types.hh"

namespace csb::sim {

class Simulator;

/** A clock derived from the global tick (CPU cycle) count. */
class ClockDomain
{
  public:
    /**
     * @param period CPU ticks per cycle of this domain (>= 1).
     * @param phase  offset of the first edge, in ticks.
     */
    explicit ClockDomain(Tick period = 1, Tick phase = 0)
        : period_(period), phase_(phase)
    {}

    Tick period() const { return period_; }
    Tick phase() const { return phase_; }

    /** @return true when @p tick is an edge of this domain. */
    bool
    isEdge(Tick tick) const
    {
        return tick >= phase_ && (tick - phase_) % period_ == 0;
    }

    /** Cycle index of this domain at @p tick (edges count up from 0). */
    std::uint64_t
    cycleAt(Tick tick) const
    {
        return tick < phase_ ? 0 : (tick - phase_) / period_;
    }

    /** Tick of cycle @p cycle of this domain. */
    Tick
    tickOfCycle(std::uint64_t cycle) const
    {
        return phase_ + cycle * period_;
    }

    /**
     * First edge at or after @p tick.  Every tick is an edge of a
     * period-1 domain (the core's), which skips the division.
     */
    Tick
    nextEdgeAt(Tick tick) const
    {
        if (tick <= phase_)
            return phase_;
        if (period_ == 1)
            return tick;
        return phase_ + divCeil(tick - phase_, period_) * period_;
    }

  private:
    Tick period_;
    Tick phase_;
};

/**
 * Base class for objects evaluated once per cycle of their domain.
 *
 * Evaluation order within a tick is ascending evalOrder(); within the
 * same order value, registration order.  By convention, consumers
 * (bus, memory) use lower values than producers (CPU) so that a value
 * produced in cycle N is consumed no earlier than cycle N+1.
 *
 * Each component holds one wake tick: the next edge at which the
 * simulator evaluates it.  After every tick() it defaults to the
 * following edge.  A component that can prove it has nothing to do
 * before some later tick sleeps: gate() ("never, until woken") or
 * sleepUntil(t) ("the first edge at or after t"); one whose own
 * pending work falls due at a known tick, like the core's
 * fixed-latency results, sleeps until that tick instead of
 * scheduling an event for it.  Anything that hands it work calls
 * ungate(), which makes it due at the next edge it has not been
 * evaluated on.  The simulator jumps over ticks at
 * which no event fires and no component is due.  Sleeping is purely
 * an optimisation and must never change simulated behaviour: a
 * component wakes at every point where work can arrive, and one that
 * keeps per-cycle counters accrues the skipped edges in bulk when it
 * wakes and in settle().
 */
class Clocked
{
  public:
    Clocked(std::string name, ClockDomain domain, int eval_order = 0)
        : name_(std::move(name)), domain_(domain), evalOrder_(eval_order)
    {}

    virtual ~Clocked() = default;

    /** Called on every edge of the object's clock domain. */
    virtual void tick() = 0;

    /** @return true while gated off until an ungate(). */
    bool gated() const { return wakeTick_ == maxTick; }

    /**
     * Make the object due at its next edge (idempotent; wakes a
     * sleeper early).  No-op before registration with a Simulator.
     */
    void ungate();

    /**
     * Bring per-cycle counters up to date with the edges skipped
     * while asleep, up to but excluding curTick().  The simulator
     * calls it on every component before run()/runFor() return, so
     * stats read between runs are exact.  The default has nothing to
     * accrue.
     */
    virtual void settle() {}

    /**
     * One-line description of internal state for the watchdog's
     * diagnostic dump (pending queues, in-flight counts).  The
     * default prints nothing; components with interesting liveness
     * state override it.
     */
    virtual void debugDump(std::ostream &os) const { (void)os; }

    const std::string &name() const { return name_; }
    const ClockDomain &clockDomain() const { return domain_; }
    int evalOrder() const { return evalOrder_; }

  protected:
    /**
     * Stop clock evaluation until ungate().  Call only when the
     * component provably has nothing to do on any future edge absent
     * new input.  No-op before registration with a Simulator.
     */
    void gate();

    /**
     * Skip evaluation until the first edge at or after @p when.  Call
     * only when no edge before @p when can do work absent new input;
     * ungate() still wakes the object early.
     */
    void sleepUntil(Tick when);

    /**
     * The edges before @p until that this object slept through and
     * that no earlier call counted; a component with per-cycle
     * counters adds that many repeats of the tick that put it to
     * sleep.  tick() passes curTick() (the edge being evaluated is
     * not skipped), settle() too.
     */
    std::uint64_t takeSkippedEdges(Tick until);

  private:
    friend class Simulator;

    std::string name_;
    ClockDomain domain_;
    int evalOrder_;
    Simulator *sim_ = nullptr;
    /**
     * Evaluation due at this edge; maxTick while gated.  A wake tick
     * the simulator already passed means the next edge.
     */
    Tick wakeTick_ = 0;
    /** Every edge before this tick is evaluated or counted. */
    Tick accounted_ = 0;
};

} // namespace csb::sim

#endif // CSB_SIM_CLOCKED_HH
