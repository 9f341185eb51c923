/**
 * @file
 * Randomized churn test for the event queue.
 *
 * Drives the queue with a deterministic but adversarial mix of
 * schedule and service operations and checks the observable contract
 * against a simple reference model:
 *  - events fire in exact (tick, insertion-order) order;
 *  - numPending() is the exact pending count at every step;
 *  - numProcessed() counts every fired event;
 *  - the queue drains completely once everything has fired.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace {

using csb::Tick;
using csb::sim::EventQueue;
using csb::sim::Random;

TEST(EventQueueStress, RandomChurnFiresInDeterministicOrder)
{
    EventQueue q;
    Random rng(0x5eedf00dULL);

    struct Rec
    {
        Tick when;
        std::uint64_t id;
    };
    std::vector<Rec> model;  // indexed by id
    std::vector<std::uint64_t> fired;

    const int kIters = 4000;

    for (int i = 0; i < kIters; ++i) {
        if (rng.uniform(0, 99) < 60) {
            Tick when = q.curTick() + rng.uniform(1, 500);
            std::uint64_t id = model.size();
            model.push_back({when, id});
            q.scheduleFunc(when, [&fired, id] { fired.push_back(id); });
        } else {
            q.serviceUntil(q.curTick() + rng.uniform(0, 64));
        }
        ASSERT_EQ(q.numPending(), model.size() - fired.size())
            << "after op " << i;
    }

    while (!q.empty())
        q.serviceUntil(q.nextTick());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.numPending(), 0u);

    // Expected firing order: every event, sorted by (tick, schedule
    // order).
    std::vector<Rec> expected = model;
    std::sort(expected.begin(), expected.end(),
              [](const Rec &a, const Rec &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  return a.id < b.id;
              });
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].id) << "at firing index " << i;
    EXPECT_EQ(q.numProcessed(), fired.size());
}

} // namespace
