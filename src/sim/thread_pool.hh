/**
 * @file
 * Fixed-size worker pool with a bounded task queue.
 *
 * The pool exists to run *independent deterministic simulations*
 * concurrently (see core/sweep.hh): workers never share simulation
 * state, so the pool itself is the only synchronization point.  The
 * queue is bounded (classic SPSC/MPMC back-pressure, cf. Torquati's
 * study of producer/consumer queues on shared-cache multicores):
 * submit() blocks once `capacity` tasks are waiting, which keeps a
 * sweep's memory footprint flat no matter how many points it has.
 *
 * Exceptions thrown by tasks are captured; the first one (in
 * completion order) is rethrown from wait() -- the join point.
 * Callers that need *deterministic* exception selection should catch
 * per task and pick their own winner, as core::SweepRunner does.
 */

#ifndef CSB_SIM_THREAD_POOL_HH
#define CSB_SIM_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace csb::sim {

class ThreadPool
{
  public:
    /**
     * Start @p threads workers (0 picks defaultThreads()).  The task
     * queue holds at most @p capacity pending tasks (0 picks
     * 2 x threads); submit() blocks while it is full.
     */
    explicit ThreadPool(unsigned threads = 0, std::size_t capacity = 0);

    /** Runs every submitted task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue @p task; blocks while the queue is at capacity.  Must
     * not be called from inside a pool task (a full queue would
     * deadlock the worker against itself).
     */
    void submit(std::function<void()> task);

    /**
     * Block until every task submitted so far has finished, then
     * rethrow the first captured task exception, if any.  The pool
     * stays usable afterwards.
     */
    void wait();

    /** Worker count (always >= 1). */
    unsigned numThreads() const { return unsigned(workers_.size()); }

    /** max(1, std::thread::hardware_concurrency()). */
    static unsigned defaultThreads();

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable queueNotFull_;
    std::condition_variable queueNotEmpty_;
    std::condition_variable allIdle_;
    std::deque<std::function<void()>> queue_;
    std::size_t capacity_ = 0;
    std::size_t inFlight_ = 0; ///< queued + currently executing
    std::exception_ptr firstError_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

} // namespace csb::sim

#endif // CSB_SIM_THREAD_POOL_HH
