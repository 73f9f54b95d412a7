#include "common/thread_pool.hh"

#include <sched.h>

#include <cstdlib>
#include <limits>

namespace ocor
{

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = defaultConcurrency();
    busyNs_ = std::make_unique<std::atomic<std::uint64_t>[]>(threads);
    for (unsigned i = 0; i < threads; ++i)
        busyNs_[i].store(0, std::memory_order_relaxed);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back(
            [this, i, threads]() { workerLoop(i, threads); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

namespace
{

/** Index of the worker running on this thread (set by workerLoop;
 * only meaningful inside a task). */
thread_local unsigned currentWorker = 0;

/** Size of the pool this thread works for (1 = not a pool worker). */
thread_local unsigned currentPoolSize = 1;

} // namespace

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::account(std::uint64_t ns)
{
    busyNs_[currentWorker].fetch_add(ns, std::memory_order_relaxed);
    tasksExecuted_.fetch_add(1, std::memory_order_relaxed);
}

void
ThreadPool::workerLoop(unsigned worker, unsigned poolSize)
{
    currentWorker = worker;
    currentPoolSize = poolSize;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lk(mu_);
            cv_.wait(lk, [this]() { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

std::size_t
ThreadPool::queueDepth() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
}

std::uint64_t
ThreadPool::totalBusyNs() const
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < size(); ++i)
        n += busyNs(i);
    return n;
}

unsigned
ThreadPool::defaultConcurrency()
{
    if (const char *env = std::getenv("OCOR_JOBS")) {
        if (auto n = parseJobs(env))
            return *n;
    }
    cpu_set_t mask;
    if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
        const int n = CPU_COUNT(&mask);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

unsigned
ThreadPool::enclosingSize()
{
    return currentPoolSize;
}

std::optional<unsigned>
ThreadPool::parseJobs(const std::string &text)
{
    if (text.empty() || text.size() > 10)
        return std::nullopt;
    std::uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    if (v == 0 || v > std::numeric_limits<unsigned>::max())
        return std::nullopt;
    return static_cast<unsigned>(v);
}

} // namespace ocor
