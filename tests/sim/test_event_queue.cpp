/**
 * @file
 * Unit tests for the discrete event queue.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/event_queue.hh"

namespace {

using csb::Tick;
using csb::maxTick;
using csb::sim::Event;
using csb::sim::EventHandle;
using csb::sim::EventQueue;

class CountingEvent : public Event
{
  public:
    explicit CountingEvent(int *counter, Priority pri = DefaultPri)
        : Event(pri), counter_(counter)
    {}

    void process() override { ++*counter_; }

  private:
    int *counter_;
};

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_EQ(q.nextTick(), maxTick);
    EXPECT_FALSE(q.serviceOne());
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleFunc(30, [&] { order.push_back(3); });
    q.scheduleFunc(10, [&] { order.push_back(1); });
    q.scheduleFunc(20, [&] { order.push_back(2); });
    while (q.serviceOne()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickFifoWithinPriority)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleFunc(5, [&] { order.push_back(1); });
    q.scheduleFunc(5, [&] { order.push_back(2); });
    q.scheduleFunc(5, [&] { order.push_back(3); });
    q.serviceUntil(5);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, PriorityOverridesInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleFunc(5, [&] { order.push_back(1); }, Event::MinimumPri);
    q.scheduleFunc(5, [&] { order.push_back(2); }, Event::MaximumPri);
    q.serviceUntil(5);
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, CancelPreventsFiring)
{
    EventQueue q;
    int fired = 0;
    EventHandle handle = q.scheduleCancellable(5, [&] { ++fired; });
    EXPECT_TRUE(handle.pending());
    handle.cancel();
    EXPECT_FALSE(handle.pending());
    q.serviceUntil(10);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterFiringIsSafe)
{
    EventQueue q;
    int fired = 0;
    EventHandle handle = q.scheduleCancellable(5, [&] { ++fired; });
    q.serviceUntil(10);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(handle.pending());
    handle.cancel(); // must not crash or double-fire
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, ServiceUntilAdvancesTime)
{
    EventQueue q;
    int fired = 0;
    q.scheduleFunc(100, [&] { ++fired; });
    q.serviceUntil(50);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(q.curTick(), 50u);
    q.serviceUntil(100);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    std::vector<Tick> times;
    std::function<void()> chain = [&] {
        times.push_back(q.curTick());
        if (times.size() < 4)
            q.scheduleFunc(q.curTick() + 10, chain);
    };
    q.scheduleFunc(10, chain);
    q.serviceUntil(100);
    EXPECT_EQ(times, (std::vector<Tick>{10, 20, 30, 40}));
}

TEST(EventQueue, CallerOwnedEventReschedules)
{
    EventQueue q;
    int count = 0;
    CountingEvent ev(&count);
    q.schedule(&ev, 10);
    q.reschedule(&ev, 20);
    q.serviceUntil(15);
    EXPECT_EQ(count, 0) << "stale entry must not fire";
    q.serviceUntil(25);
    EXPECT_EQ(count, 1);
}

TEST(EventQueue, DescheduleCallerOwned)
{
    EventQueue q;
    int count = 0;
    CountingEvent ev(&count);
    q.schedule(&ev, 10);
    q.deschedule(&ev);
    q.serviceUntil(20);
    EXPECT_EQ(count, 0);
    EXPECT_FALSE(ev.scheduled());
}

TEST(EventQueue, NumProcessedCounts)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.scheduleFunc(i + 1, [] {});
    q.serviceUntil(10);
    EXPECT_EQ(q.numProcessed(), 5u);
}

TEST(EventQueue, NumPendingCountsLiveOnly)
{
    EventQueue q;
    EventHandle a = q.scheduleCancellable(10, [] {});
    EventHandle b = q.scheduleCancellable(20, [] {});
    EXPECT_EQ(q.numPending(), 2u);
    a.cancel();
    EXPECT_EQ(q.numPending(), 1u);
    EXPECT_EQ(q.nextTick(), 20u) << "cancelled event must not be peeked";
    q.serviceUntil(25);
    EXPECT_EQ(q.numPending(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_TRUE(b.pending() == false);
}

TEST(EventQueue, HandleOutlivesQueue)
{
    int fired = 0;
    EventHandle handle;
    {
        EventQueue q;
        handle = q.scheduleCancellable(5, [&] { ++fired; });
        EXPECT_TRUE(handle.pending());
    }
    // The queue drained its pending events on destruction; the handle
    // must observe that instead of dereferencing freed state.
    EXPECT_FALSE(handle.pending());
    handle.cancel(); // must not touch the destroyed queue
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelRecyclesEventImmediately)
{
    EventQueue q;
    EventHandle far = q.scheduleCancellable(1'000'000, [] {});
    EXPECT_EQ(q.funcPoolSize(), 0u);
    far.cancel();
    // The one-shot event is parked on the free list at cancel time,
    // not when simulated time finally reaches its original tick.
    EXPECT_EQ(q.funcPoolSize(), 1u);
    EXPECT_EQ(q.heapSize(), 0u) << "lone stale entry should be dropped";
    q.scheduleFunc(5, [] {});
    EXPECT_EQ(q.funcPoolSize(), 0u) << "pool node should be reused";
    q.serviceUntil(10);
    EXPECT_EQ(q.funcPoolSize(), 1u) << "fired event returns to the pool";
}

TEST(EventQueue, CancelReleasesClosureResources)
{
    EventQueue q;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> weak = token;
    EventHandle handle = q.scheduleCancellable(1'000'000, [token] {});
    token.reset();
    EXPECT_FALSE(weak.expired());
    handle.cancel();
    EXPECT_TRUE(weak.expired())
        << "closure must be destroyed at cancel, not at its tick";
}

TEST(EventQueue, NextTickCachedAcrossPeeks)
{
    EventQueue q;
    for (int i = 0; i < 100; ++i)
        q.scheduleFunc(100 + i, [] {});
    // Heavy peeking must not disturb state or ordering.
    for (int i = 0; i < 10'000; ++i)
        EXPECT_EQ(q.nextTick(), 100u);
    EXPECT_EQ(q.numPending(), 100u);
    q.serviceUntil(500);
    EXPECT_EQ(q.numProcessed(), 100u);
}

} // namespace
