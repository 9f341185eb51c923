/**
 * @file
 * Discrete event queue.
 *
 * Two usage styles are supported:
 *  - subclassing Event and overriding process(), gem5 style;
 *  - scheduling a closure via EventQueue::scheduleFunc()
 *    (fire-and-forget) or EventQueue::scheduleCancellable(), which
 *    returns a handle that can cancel the callback.
 *
 * Events at the same tick fire in (priority, insertion-order) order,
 * which keeps the simulation fully deterministic.
 *
 * The kernel is built for the hot path:
 *  - nextTick()/empty() are O(1): the next live tick is cached and
 *    the cache is invalidated on schedule/deschedule, so peeking never
 *    walks (let alone copies) the heap;
 *  - cancellation is lazy (stale heap entries are detected by sequence
 *    mismatch), but the heap is compacted eagerly once stale entries
 *    outnumber live ones, bounding memory under cancel-heavy churn;
 *  - scheduleFunc() recycles its one-shot events through a free list
 *    and stores each closure inline in its pooled event (up to
 *    funcEventCapacity bytes, enforced by a static_assert; there is no
 *    heap fallback), so once the pool is warm scheduling a callback
 *    allocates nothing.  A fire-and-forget event carries no handle
 *    state at all; scheduleCancellable() attaches it, reusing the
 *    block unless a handle kept it alive past its event.
 */

#ifndef CSB_SIM_EVENT_QUEUE_HH
#define CSB_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "inline_function.hh"
#include "logging.hh"
#include "types.hh"

namespace csb::sim {

class EventQueue;

/** Base class for schedulable events. */
class Event
{
  public:
    /** Lower value fires first within a tick. */
    enum Priority : int {
        MaximumPri = -100,
        DefaultPri = 0,
        StatDumpPri = 50,
        MinimumPri = 100,
    };

    explicit Event(Priority pri = DefaultPri)
        : priority_(pri)
    {}

    virtual ~Event();

    /** Invoked when the event fires. */
    virtual void process() = 0;

    /** @return descriptive name used in traces. */
    virtual std::string name() const { return "event"; }

    bool scheduled() const { return scheduled_; }
    Tick when() const { return when_; }
    int priority() const { return priority_; }

  private:
    friend class EventQueue;

    Tick when_ = 0;
    std::uint64_t seq_ = 0;
    int priority_;
    bool scheduled_ = false;
    /** Set when the owning queue should delete the event after firing. */
    bool selfDeleting_ = false;
};

namespace detail {

/** Shared bookkeeping between a scheduleFunc() event and its handle. */
struct FuncEventState
{
    Event *event = nullptr;
    /** True once the callback has fired or been cancelled. */
    bool done = false;
};

} // namespace detail

/**
 * Closure bytes a scheduleFunc() event holds inline.  Sized to the
 * largest closure in the tree: the bus's read address-cycle closure
 * (the transaction, its ReadCallback and four words of timing state).
 * A larger closure fails to compile.
 */
inline constexpr std::size_t funcEventCapacity = 168;

namespace detail {

/**
 * Event adapter that runs a closure exactly once.  Instances are
 * owned by their queue and recycled through its free list; the
 * closure lives in the event's inline buffer.
 */
class FuncEvent final : public Event
{
  public:
    void process() override;

    std::string name() const override { return "func-event"; }

    InlineFunction<void(), funcEventCapacity> fn;
    /** Handle state; unused (possibly null) when fire-and-forget. */
    std::shared_ptr<FuncEventState> state;
};

} // namespace detail

/**
 * Handle returned by scheduleCancellable(); safe to use after the
 * event fired and after the owning queue was destroyed.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Cancel the callback if it has not fired yet. */
    void cancel();

    /** @return true while the callback is still pending. */
    bool pending() const { return state_ && !state_->done; }

  private:
    friend class EventQueue;

    EventHandle(EventQueue *queue,
                std::shared_ptr<detail::FuncEventState> state)
        : queue_(queue), state_(std::move(state))
    {}

    EventQueue *queue_ = nullptr;
    std::shared_ptr<detail::FuncEventState> state_;
};

/**
 * Priority queue of events ordered by (tick, priority, sequence).
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

    /** Schedule @p event at absolute tick @p when (>= curTick()). */
    void schedule(Event *event, Tick when);

    /** Remove a pending event. */
    void deschedule(Event *event);

    /** Reschedule to a new tick, whether or not currently scheduled. */
    void reschedule(Event *event, Tick when);

    /**
     * Schedule a one-shot callback at absolute tick @p when; it cannot
     * be cancelled.  The closure is stored inline in a pooled event;
     * it must fit in funcEventCapacity bytes.
     */
    template <typename F>
    void
    scheduleFunc(Tick when, F &&fn, int priority = Event::DefaultPri)
    {
        schedule(makeFunc(std::forward<F>(fn), priority), when);
    }

    /**
     * scheduleFunc() plus a handle that can cancel the callback.  The
     * handle costs shared state, so only callers that cancel use it.
     */
    template <typename F>
    EventHandle
    scheduleCancellable(Tick when, F &&fn,
                        int priority = Event::DefaultPri)
    {
        return armFunc(makeFunc(std::forward<F>(fn), priority), when);
    }

    /** @return true when no events are pending.  O(1). */
    bool empty() const { return liveCount_ == 0; }

    /**
     * Tick of the next pending event, or maxTick when empty.  O(1)
     * when the cached peek is valid (amortized O(log n) otherwise,
     * popping stale entries off the heap top).
     */
    Tick nextTick() const;

    /**
     * Advance time to @p when without firing anything.
     * @pre no live event is scheduled before @p when.
     */
    void advanceTo(Tick when);

    /**
     * Advance time to the next event and fire every event scheduled
     * for that tick.  @return false when the queue was empty.
     */
    bool serviceOne();

    /** Fire all events with when() <= @p now, advancing curTick. */
    void serviceUntil(Tick now);

    /** Number of events processed so far (for stats / debugging). */
    std::uint64_t numProcessed() const { return numProcessed_; }

    /** Live (scheduled, not cancelled) events pending.  Exact. */
    std::size_t numPending() const { return liveCount_; }

    /**
     * Heap slots currently allocated, including stale entries of
     * cancelled or rescheduled events (>= numPending(); for tests and
     * the perf bench).
     */
    std::size_t heapSize() const { return heap_.size(); }

    /** Times the heap was compacted to evict stale entries. */
    std::uint64_t numCompactions() const { return numCompactions_; }

    /** One-shot function events parked on the free list. */
    std::size_t funcPoolSize() const { return funcPool_.size(); }

  private:
    friend class EventHandle;

    /** Heap entry; stale entries are detected by sequence mismatch. */
    struct Entry
    {
        Tick when;
        int priority;
        std::uint64_t seq;
        Event *event;
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
            if (a.priority != b.priority)
                return a.priority > b.priority;
            return a.seq > b.seq;
        }
    };

    bool
    entryLive(const Entry &entry) const
    {
        return entry.event->scheduled_ && entry.event->seq_ == entry.seq;
    }

    /** Pop stale entries until the heap front is live (or empty). */
    void purgeDeadTop() const;

    /** Drop the heap front (must be live) and fire its event. */
    void popAndFire();

    void fire(Event *event);

    /** Rebuild the heap with live entries only when stale ones win. */
    void maybeCompact();

    /** Take a one-shot event off the free list (or make one). */
    detail::FuncEvent *acquireFunc(int priority);

    /** A pooled one-shot event holding @p fn, not yet scheduled. */
    template <typename F>
    detail::FuncEvent *
    makeFunc(F &&fn, int priority)
    {
        static_assert(sizeof(std::decay_t<F>) <= funcEventCapacity,
                      "scheduleFunc closure exceeds funcEventCapacity");
        detail::FuncEvent *ev = acquireFunc(priority);
        ev->fn = std::forward<F>(fn);
        return ev;
    }

    /** Attach handle state to @p ev and schedule it at @p when. */
    EventHandle armFunc(detail::FuncEvent *ev, Tick when);

    /** Cancel a pending scheduleFunc() callback via its handle state. */
    void cancelFunc(detail::FuncEventState &state);

    /** Park a finished/cancelled one-shot event on the free list. */
    void recycleFunc(Event *event);

    /**
     * The heap is logically state, but stale-entry purging from const
     * peeks is not observable, hence mutable.
     */
    mutable std::vector<Entry> heap_;
    /** Live entries in heap_ (heap_.size() - liveCount_ are stale). */
    std::size_t liveCount_ = 0;
    /** Cached next-live tick; invalidated on schedule/deschedule/pop. */
    mutable Tick cachedNextTick_ = maxTick;
    mutable bool cacheValid_ = false;
    /** Recycled one-shot function events (owned). */
    std::vector<Event *> funcPool_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t numProcessed_ = 0;
    std::uint64_t numCompactions_ = 0;
};

} // namespace csb::sim

#endif // CSB_SIM_EVENT_QUEUE_HH
