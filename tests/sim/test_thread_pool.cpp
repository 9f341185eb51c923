/**
 * @file
 * Tests of the worker pool underneath the sweep engine: every task
 * runs exactly once, the bounded queue applies back-pressure instead
 * of growing, exceptions surface at wait(), and the pool survives
 * reuse and destruction with work still queued.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "sim/thread_pool.hh"

namespace {

using csb::sim::ThreadPool;

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4u);
    std::atomic<int> counter{0};
    constexpr int n = 200;
    for (int i = 0; i < n; ++i)
        pool.submit([&] { counter.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(counter.load(), n);
}

TEST(ThreadPool, DefaultThreadsIsAtLeastOne)
{
    EXPECT_GE(ThreadPool::defaultThreads(), 1u);
    ThreadPool pool; // 0 = auto must construct and work
    std::atomic<int> ran{0};
    pool.submit([&] { ran = 1; });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, PoolIsReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { counter.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(counter.load(), (round + 1) * 50);
    }
}

TEST(ThreadPool, BoundedQueueAppliesBackPressure)
{
    // One worker, capacity 2: park the worker on a gate, then fill
    // the queue.  The next submit must block until the gate opens.
    ThreadPool pool(1, 2);
    std::mutex m;
    std::condition_variable cv;
    bool gate_open = false;
    pool.submit([&] {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return gate_open; });
    });
    // Give the worker time to dequeue the blocker, then fill up.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::atomic<int> ran{0};
    pool.submit([&] { ++ran; });
    pool.submit([&] { ++ran; });

    std::atomic<bool> fourth_submitted{false};
    std::thread producer([&] {
        pool.submit([&] { ++ran; });
        fourth_submitted = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(fourth_submitted.load())
        << "submit() returned although the queue was full";

    {
        std::lock_guard<std::mutex> lock(m);
        gate_open = true;
    }
    cv.notify_all();
    producer.join();
    pool.wait();
    EXPECT_TRUE(fourth_submitted.load());
    EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPool, WaitRethrowsTaskException)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("boom"); });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The error is consumed: the pool keeps working afterwards.
    std::atomic<int> ran{0};
    pool.submit([&] { ran = 1; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, OnlyFirstExceptionIsKept)
{
    ThreadPool pool(1); // single worker => completion order == submit order
    pool.submit([] { throw std::runtime_error("first"); });
    pool.submit([] { throw std::logic_error("second"); });
    try {
        pool.wait();
        FAIL() << "wait() did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "first");
    }
}

TEST(ThreadPool, DestructorDrainsQueuedWork)
{
    std::atomic<int> counter{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i)
            pool.submit([&] { counter.fetch_add(1); });
        // No wait(): the destructor must run the backlog, not drop it.
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, StressManyTasksManyWorkers)
{
    ThreadPool pool(8, 16);
    std::atomic<std::uint64_t> sum{0};
    constexpr int n = 2000;
    for (int i = 0; i < n; ++i)
        pool.submit([&sum, i] { sum.fetch_add(std::uint64_t(i)); });
    pool.wait();
    EXPECT_EQ(sum.load(), std::uint64_t(n) * (n - 1) / 2);
}

} // namespace
