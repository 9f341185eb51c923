#include "thread_pool.hh"

#include "logging.hh"

namespace csb::sim {

unsigned
ThreadPool::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads, std::size_t capacity)
{
    if (threads == 0)
        threads = defaultThreads();
    capacity_ = capacity > 0 ? capacity : std::size_t(threads) * 2;
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        // Clean shutdown: finish everything already submitted.  A
        // destructor cannot rethrow, so an exception nobody collected
        // with wait() is intentionally dropped here.
        allIdle_.wait(lock, [this] { return inFlight_ == 0; });
        stopping_ = true;
    }
    queueNotEmpty_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    csb_assert(task != nullptr, "null task submitted to ThreadPool");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queueNotFull_.wait(
            lock, [this] { return queue_.size() < capacity_; });
        queue_.push_back(std::move(task));
        ++inFlight_;
    }
    queueNotEmpty_.notify_one();
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        allIdle_.wait(lock, [this] { return inFlight_ == 0; });
        error = firstError_;
        firstError_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            queueNotEmpty_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        queueNotFull_.notify_one();

        std::exception_ptr error;
        try {
            task();
        } catch (...) {
            error = std::current_exception();
        }

        bool idle = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error && !firstError_)
                firstError_ = error;
            idle = --inFlight_ == 0;
        }
        if (idle)
            allIdle_.notify_all();
    }
}

} // namespace csb::sim
