#include "event_queue.hh"

#include <algorithm>
#include <utility>

namespace csb::sim {

namespace {

/** Compact once the heap is this large and mostly stale. */
constexpr std::size_t compactMinHeapSize = 64;

} // namespace

/**
 * The closure lives in fn's inline buffer: funcEventCapacity bytes,
 * checked by scheduleFunc()'s static_assert, with no heap fallback.
 * With the event recycled through the queue's free list, the steady
 * state of scheduleFunc() is a pool pop and a closure move -- no heap
 * allocation.
 */
void
detail::FuncEvent::process()
{
    if (state)
        state->done = true;
    fn();
    // Release the closure's captures now rather than at recycling.
    fn = nullptr;
}

Event::~Event()
{
    csb_assert(!scheduled_, "event destroyed while scheduled");
}

void
EventHandle::cancel()
{
    if (pending())
        queue_->cancelFunc(*state_);
}

EventQueue::~EventQueue()
{
    // Drain remaining entries without firing them.  Marking the
    // handle state of every pending function event done here keeps
    // EventHandle::pending()/cancel() safe on handles that outlive
    // the queue.
    for (const Entry &entry : heap_) {
        if (!entryLive(entry))
            continue;
        entry.event->scheduled_ = false;
        if (entry.event->selfDeleting_)
            recycleFunc(entry.event);
    }
    for (Event *event : funcPool_)
        delete event;
}

void
EventQueue::schedule(Event *event, Tick when)
{
    csb_assert(!event->scheduled_, "double-schedule of ", event->name());
    csb_assert(when >= curTick_, "scheduling ", event->name(),
               " in the past: ", when, " < ", curTick_);
    event->when_ = when;
    event->seq_ = nextSeq_++;
    event->scheduled_ = true;
    heap_.push_back(Entry{when, event->priority_, event->seq_, event});
    std::push_heap(heap_.begin(), heap_.end(), Compare{});
    ++liveCount_;
    if (cacheValid_ && when < cachedNextTick_)
        cachedNextTick_ = when;
}

void
EventQueue::deschedule(Event *event)
{
    csb_assert(event->scheduled_, "deschedule of idle event");
    csb_assert(liveCount_ > 0, "live-count underflow");
    // Lazy removal: the stale heap entry is detected by its sequence
    // number; compaction bounds how many such entries accumulate.
    event->scheduled_ = false;
    --liveCount_;
    if (cacheValid_ && event->when_ <= cachedNextTick_)
        cacheValid_ = false;
    if (liveCount_ == 0)
        heap_.clear();
    else
        maybeCompact();
}

void
EventQueue::reschedule(Event *event, Tick when)
{
    csb_assert(!event->selfDeleting_,
               "cannot reschedule a one-shot function event");
    if (event->scheduled_)
        deschedule(event);
    schedule(event, when);
}

detail::FuncEvent *
EventQueue::acquireFunc(int priority)
{
    detail::FuncEvent *ev;
    if (!funcPool_.empty()) {
        ev = static_cast<detail::FuncEvent *>(funcPool_.back());
        funcPool_.pop_back();
    } else {
        ev = new detail::FuncEvent;
        ev->selfDeleting_ = true;
    }
    ev->priority_ = priority;
    return ev;
}

EventHandle
EventQueue::armFunc(detail::FuncEvent *ev, Tick when)
{
    // recycleFunc() keeps handle state only while no handle refers to
    // it, so what is attached here is free to reuse.
    if (!ev->state)
        ev->state = std::make_shared<detail::FuncEventState>();
    ev->state->event = ev;
    ev->state->done = false;
    schedule(ev, when);
    return EventHandle(this, ev->state);
}

void
EventQueue::cancelFunc(detail::FuncEventState &state)
{
    Event *event = state.event;
    csb_assert(event && event->scheduled_, "cancel of idle func event");
    deschedule(event);
    // Recycle immediately: the closure is freed now rather than when
    // the stale heap entry would have fired, and the event is ready
    // for the next scheduleFunc().
    recycleFunc(event);
}

void
EventQueue::recycleFunc(Event *event)
{
    auto *fe = static_cast<detail::FuncEvent *>(event);
    fe->fn = nullptr;
    if (fe->state) {
        fe->state->done = true;
        fe->state->event = nullptr;
        // A handle still holds it: the next use must not share it.
        if (fe->state.use_count() != 1)
            fe->state.reset();
    }
    funcPool_.push_back(fe);
}

Tick
EventQueue::nextTick() const
{
    if (liveCount_ == 0)
        return maxTick;
    if (cacheValid_)
        return cachedNextTick_;
    purgeDeadTop();
    cachedNextTick_ = heap_.front().when;
    cacheValid_ = true;
    return cachedNextTick_;
}

void
EventQueue::advanceTo(Tick when)
{
    csb_assert(when >= curTick_, "time going backwards");
    csb_assert(nextTick() >= when, "advancing past a pending event");
    curTick_ = when;
}

void
EventQueue::purgeDeadTop() const
{
    while (!heap_.empty() && !entryLive(heap_.front())) {
        std::pop_heap(heap_.begin(), heap_.end(), Compare{});
        heap_.pop_back();
    }
}

void
EventQueue::popAndFire()
{
    Entry entry = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Compare{});
    heap_.pop_back();
    --liveCount_;
    cacheValid_ = false;
    curTick_ = entry.when;
    fire(entry.event);
}

void
EventQueue::fire(Event *event)
{
    event->scheduled_ = false;
    event->seq_ = 0;
    ++numProcessed_;
    event->process();
    if (event->selfDeleting_ && !event->scheduled_)
        recycleFunc(event);
}

void
EventQueue::maybeCompact()
{
    const std::size_t dead = heap_.size() - liveCount_;
    if (heap_.size() < compactMinHeapSize || dead <= liveCount_)
        return;
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Entry &entry) {
                                   return !entryLive(entry);
                               }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Compare{});
    // The live set is unchanged, so the cached next tick stays valid.
    ++numCompactions_;
}

bool
EventQueue::serviceOne()
{
    if (liveCount_ == 0) {
        heap_.clear();
        return false;
    }
    purgeDeadTop();
    csb_assert(heap_.front().when >= curTick_, "event in the past");
    popAndFire();
    return true;
}

void
EventQueue::serviceUntil(Tick now)
{
    csb_assert(now >= curTick_, "time going backwards");
    while (liveCount_ > 0) {
        purgeDeadTop();
        if (heap_.front().when > now) {
            // Free cache refresh: the front is the next live event.
            cachedNextTick_ = heap_.front().when;
            cacheValid_ = true;
            break;
        }
        popAndFire();
    }
    if (liveCount_ == 0 && !heap_.empty())
        heap_.clear();
    curTick_ = now;
}

} // namespace csb::sim
