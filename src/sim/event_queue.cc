#include "event_queue.hh"

#include <algorithm>

#include "logging.hh"

namespace csb::sim {

EventQueue::~EventQueue()
{
    // Pending callbacks are dropped without firing.
    for (const Entry &entry : heap_)
        delete entry.fn;
    for (Callback *fn : funcPool_)
        delete fn;
}

EventQueue::Callback *
EventQueue::acquire()
{
    if (funcPool_.empty())
        return new Callback;
    Callback *fn = funcPool_.back();
    funcPool_.pop_back();
    return fn;
}

void
EventQueue::push(Tick when, Callback *fn)
{
    csb_assert(when >= curTick_, "scheduling an event in the past: ",
               when, " < ", curTick_);
    heap_.push_back(Entry{when, nextSeq_++, fn});
    std::push_heap(heap_.begin(), heap_.end(), Compare{});
}

void
EventQueue::advanceTo(Tick when)
{
    csb_assert(when >= curTick_, "time going backwards");
    csb_assert(nextTick() >= when, "advancing past a pending event");
    curTick_ = when;
}

/**
 * The callback lives in fn's inline buffer, so with it recycled
 * through the free list the steady state of scheduleFunc() is a pool
 * pop and a closure move -- no heap allocation.
 */
void
EventQueue::popAndFire()
{
    Entry entry = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Compare{});
    heap_.pop_back();
    curTick_ = entry.when;
    ++numProcessed_;
    (*entry.fn)();
    // Release the closure's captures now rather than at reuse.
    *entry.fn = nullptr;
    funcPool_.push_back(entry.fn);
}

void
EventQueue::serviceUntil(Tick now)
{
    csb_assert(now >= curTick_, "time going backwards");
    while (!heap_.empty() && heap_.front().when <= now)
        popAndFire();
    curTick_ = now;
}

} // namespace csb::sim
