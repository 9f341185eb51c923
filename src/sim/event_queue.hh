/**
 * @file
 * Discrete event queue.
 *
 * An event is a fire-and-forget closure scheduled with
 * EventQueue::scheduleFunc() for an absolute tick.  Events carry work
 * between components: cache, bus and uncached-buffer responses,
 * device and NI timers.  Work a component finishes by itself at a
 * known tick is not an event; the core keeps its fixed-latency
 * results in its own queue and sleeps until the earliest.
 *
 * Once scheduled an event always fires; a component that no longer
 * wants a callback's effect disarms it itself, e.g. with a generation
 * or staleness check inside the closure (the NI's retransmit timer
 * does this).
 *
 * Events at the same tick fire in insertion order, which keeps the
 * simulation fully deterministic.
 *
 * Each closure is stored inline in a pooled callback (up to
 * funcEventCapacity bytes, enforced by a static_assert; there is no
 * heap fallback) and the callback is recycled through a free list
 * once it has fired, so once the pool is warm scheduling allocates
 * nothing.
 */

#ifndef CSB_SIM_EVENT_QUEUE_HH
#define CSB_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "inline_function.hh"
#include "types.hh"

namespace csb::sim {

/**
 * Closure bytes a scheduled callback holds inline.  Sized to the
 * largest closure in the tree: the bus's read address-cycle closure
 * (the transaction, its ReadCallback and four words of timing state).
 * A larger closure fails to compile.
 */
inline constexpr std::size_t funcEventCapacity = 168;

/**
 * Priority queue of callbacks ordered by (tick, insertion).
 */
class EventQueue
{
  public:
    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulation time. */
    Tick curTick() const { return curTick_; }

    /**
     * Schedule @p fn to run once at absolute tick @p when
     * (>= curTick()).  The closure is stored inline in a pooled
     * callback; it must fit in funcEventCapacity bytes.
     */
    template <typename F>
    void
    scheduleFunc(Tick when, F &&fn)
    {
        static_assert(sizeof(std::decay_t<F>) <= funcEventCapacity,
                      "scheduleFunc closure exceeds funcEventCapacity");
        Callback *cb = acquire();
        *cb = std::forward<F>(fn);
        push(when, cb);
    }

    /** @return true when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Tick of the next pending event, or maxTick when empty. */
    Tick
    nextTick() const
    {
        return heap_.empty() ? maxTick : heap_.front().when;
    }

    /**
     * Advance time to @p when without firing anything.
     * @pre no event is scheduled before @p when.
     */
    void advanceTo(Tick when);

    /** Fire all events scheduled at or before @p now; curTick = now. */
    void serviceUntil(Tick now);

    /** Number of events processed so far (for stats / debugging). */
    std::uint64_t numProcessed() const { return numProcessed_; }

    /** Events pending. */
    std::size_t numPending() const { return heap_.size(); }

    /** Fired callbacks parked on the free list. */
    std::size_t funcPoolSize() const { return funcPool_.size(); }

  private:
    using Callback = InlineFunction<void(), funcEventCapacity>;

    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Callback *fn;
    };

    /**
     * Min-heap order for std::push_heap/pop_heap: the comparator says
     * "fires later", so the heap front is the earliest entry.
     */
    struct Compare
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Take an empty callback off the free list (or make one). */
    Callback *acquire();

    void push(Tick when, Callback *fn);

    /** Drop the heap front, fire it and recycle its callback. */
    void popAndFire();

    std::vector<Entry> heap_;
    /** Empty callbacks ready for reuse (owned). */
    std::vector<Callback *> funcPool_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t numProcessed_ = 0;
};

} // namespace csb::sim

#endif // CSB_SIM_EVENT_QUEUE_HH
