/**
 * @file
 * Randomized churn test for the event queue.
 *
 * Drives the queue with a deterministic but adversarial mix of
 * schedule / cancel / reschedule / service operations and checks the
 * observable contract against a simple reference model:
 *  - events fire in exact (tick, priority, insertion-order) order;
 *  - numPending() is the exact live count at every step;
 *  - numProcessed() counts every fired event;
 *  - the heap drains completely once everything has fired.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"

namespace {

using csb::Tick;
using csb::sim::Event;
using csb::sim::EventHandle;
using csb::sim::EventQueue;
using csb::sim::Random;

TEST(EventQueueStress, RandomChurnFiresInDeterministicOrder)
{
    EventQueue q;
    Random rng(0x5eedf00dULL);

    struct Rec
    {
        Tick when;
        int pri;
        std::uint64_t id;
    };
    std::vector<Rec> model;            // indexed by id
    std::vector<char> cancelled;       // parallel to model
    std::vector<EventHandle> handles;  // parallel to model
    std::vector<std::uint64_t> fired;

    const int kPris[] = {Event::MaximumPri, Event::DefaultPri,
                         Event::MinimumPri};
    const int kIters = 4000;
    std::size_t live = 0;

    for (int i = 0; i < kIters; ++i) {
        std::uint64_t roll = rng.uniform(0, 99);
        if (roll < 60 || handles.empty()) {
            Tick when = q.curTick() + rng.uniform(1, 500);
            int pri = kPris[rng.uniform(0, 2)];
            std::uint64_t id = model.size();
            model.push_back({when, pri, id});
            cancelled.push_back(0);
            handles.push_back(q.scheduleCancellable(
                when, [&fired, id] { fired.push_back(id); }, pri));
            ++live;
        } else if (roll < 85) {
            std::uint64_t victim = rng.uniform(0, handles.size() - 1);
            if (handles[victim].pending()) {
                handles[victim].cancel();
                cancelled[victim] = 1;
                --live;
            }
        } else {
            Tick upto = q.curTick() + rng.uniform(0, 64);
            q.serviceUntil(upto);
            live = q.numPending();
        }
        ASSERT_EQ(q.numPending(), live) << "after op " << i;
    }

    while (q.serviceOne()) {
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.numPending(), 0u);
    EXPECT_EQ(q.heapSize(), 0u) << "drained queue must release its heap";

    // Expected firing order: every never-cancelled event, sorted by
    // (tick, priority, schedule order).  Cancelled events whose
    // callback already ran stay in the expectation (their cancel was
    // a no-op by contract).
    std::vector<Rec> expected;
    for (const Rec &r : model) {
        bool ran = std::find(fired.begin(), fired.end(), r.id)
                   != fired.end();
        if (!cancelled[r.id] || ran)
            expected.push_back(r);
    }
    std::sort(expected.begin(), expected.end(),
              [](const Rec &a, const Rec &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.pri != b.pri)
                      return a.pri < b.pri;
                  return a.id < b.id;
              });
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(fired[i], expected[i].id) << "at firing index " << i;
    EXPECT_EQ(q.numProcessed(), fired.size());
}

TEST(EventQueueStress, CompactionBoundsStaleEntries)
{
    EventQueue q;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 256; ++i)
        handles.push_back(q.scheduleCancellable(1000 + i, [] {}));
    // Cancel from the back so the heap top stays live and lazy
    // top-purging cannot hide the stale entries.
    for (int i = 255; i >= 64; --i)
        handles[i].cancel();
    EXPECT_EQ(q.numPending(), 64u);
    EXPECT_GT(q.numCompactions(), 0u)
        << "stale entries outnumbering live ones must compact the heap";
    EXPECT_LE(q.heapSize(), 2 * q.numPending())
        << "compaction must bound stale entries to the live count";
    while (q.serviceOne()) {
    }
    EXPECT_EQ(q.numProcessed(), 64u);
    EXPECT_EQ(q.heapSize(), 0u);
}

class TickRecorder : public Event
{
  public:
    explicit TickRecorder(EventQueue *q, std::vector<Tick> *log)
        : queue_(q), log_(log)
    {}

    void process() override { log_->push_back(queue_->curTick()); }

  private:
    EventQueue *queue_;
    std::vector<Tick> *log_;
};

TEST(EventQueueStress, RescheduleChurnKeepsAccountingExact)
{
    EventQueue q;
    Random rng(0xca11ab1eULL);

    const std::size_t kEvents = 32;
    std::vector<Tick> log;
    std::vector<TickRecorder> events(kEvents, TickRecorder(&q, &log));
    // expected[i] == 0 means "not scheduled" (ticks below start at 1).
    std::vector<Tick> expected(kEvents, 0);

    const int kIters = 3000;
    for (int i = 0; i < kIters; ++i) {
        std::uint64_t victim = rng.uniform(0, kEvents - 1);
        std::uint64_t roll = rng.uniform(0, 99);
        if (roll < 70) {
            Tick when = q.curTick() + rng.uniform(1, 200);
            q.reschedule(&events[victim], when);
            expected[victim] = when;
        } else if (roll < 85) {
            if (events[victim].scheduled()) {
                q.deschedule(&events[victim]);
                expected[victim] = 0;
            }
        } else {
            std::size_t before = log.size();
            q.serviceUntil(q.curTick() + rng.uniform(0, 32));
            // Events that fired are no longer expected.
            for (std::size_t e = 0; e < kEvents; ++e)
                if (expected[e] && expected[e] <= q.curTick()
                    && !events[e].scheduled())
                    expected[e] = 0;
            (void)before;
        }
        std::size_t want = 0;
        for (Tick t : expected)
            want += t != 0;
        ASSERT_EQ(q.numPending(), want) << "after op " << i;
        ASSERT_LE(q.numPending(), q.heapSize());
    }

    // Drain and verify each still-scheduled event fires exactly at
    // its final reschedule target.
    std::vector<Tick> finals;
    for (Tick t : expected)
        if (t != 0)
            finals.push_back(t);
    std::sort(finals.begin(), finals.end());
    std::size_t already = log.size();
    while (q.serviceOne()) {
    }
    std::vector<Tick> tail(log.begin() + already, log.end());
    EXPECT_EQ(tail, finals);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.heapSize(), 0u);
}

} // namespace
