/**
 * @file
 * Unit tests for the discrete event queue.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event_queue.hh"

namespace {

using csb::Tick;
using csb::maxTick;
using csb::sim::EventQueue;

TEST(EventQueue, StartsEmpty)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_EQ(q.nextTick(), maxTick);
    q.serviceUntil(10);
    EXPECT_EQ(q.numProcessed(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleFunc(30, [&] { order.push_back(3); });
    q.scheduleFunc(10, [&] { order.push_back(1); });
    q.scheduleFunc(20, [&] { order.push_back(2); });
    while (!q.empty())
        q.serviceUntil(q.nextTick());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickFiresInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleFunc(5, [&] { order.push_back(1); });
    q.scheduleFunc(5, [&] { order.push_back(2); });
    q.scheduleFunc(5, [&] { order.push_back(3); });
    q.serviceUntil(5);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
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

TEST(EventQueue, NumProcessedCounts)
{
    EventQueue q;
    for (int i = 0; i < 5; ++i)
        q.scheduleFunc(i + 1, [] {});
    q.serviceUntil(10);
    EXPECT_EQ(q.numProcessed(), 5u);
}

TEST(EventQueue, NumPendingCountsScheduledEvents)
{
    EventQueue q;
    q.scheduleFunc(10, [] {});
    q.scheduleFunc(20, [] {});
    EXPECT_EQ(q.numPending(), 2u);
    EXPECT_EQ(q.nextTick(), 10u);
    q.serviceUntil(15);
    EXPECT_EQ(q.numPending(), 1u);
    EXPECT_EQ(q.nextTick(), 20u);
    q.serviceUntil(25);
    EXPECT_EQ(q.numPending(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FiredCallbackReturnsToThePool)
{
    EventQueue q;
    q.scheduleFunc(5, [] {});
    EXPECT_EQ(q.funcPoolSize(), 0u);
    q.serviceUntil(5);
    EXPECT_EQ(q.funcPoolSize(), 1u) << "fired callback returns to the pool";
    q.scheduleFunc(10, [] {});
    EXPECT_EQ(q.funcPoolSize(), 0u) << "pooled callback should be reused";
}

} // namespace
