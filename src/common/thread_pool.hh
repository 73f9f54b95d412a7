/**
 * @file
 * Minimal fixed-size worker pool for embarrassingly parallel
 * simulation fan-out.
 *
 * Each experiment run owns its own System (and therefore its own
 * RNGs), so runs scheduled on different workers never share mutable
 * state and produce bit-identical results regardless of scheduling.
 * The pool is deliberately tiny: a FIFO of type-erased tasks, a
 * condition variable, and join-on-destruction semantics. Results
 * travel through std::future so callers can reassemble outputs in
 * submission order, independent of completion order.
 */

#ifndef OCOR_COMMON_THREAD_POOL_HH
#define OCOR_COMMON_THREAD_POOL_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ocor
{

/** Fixed-size FIFO task pool; joins all workers on destruction. */
class ThreadPool
{
  public:
    /** @p threads worker count; 0 = defaultConcurrency(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains nothing: queued-but-unstarted tasks still run before
     * the workers exit. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a task; the future carries its result (or its
     * exception). */
    template <typename F>
    auto run(F fn) -> std::future<decltype(fn())>
    {
        using R = decltype(fn());
        // Accounting lives inside the packaged task, before the
        // promise is fulfilled: once a caller's future is ready,
        // busyNs()/tasksExecuted() already include that task.
        auto task = std::make_shared<std::packaged_task<R()>>(
            [this, fn = std::move(fn)]() mutable {
                Timed timed(*this);
                return fn();
            });
        std::future<R> fut = task->get_future();
        enqueue([task]() { (*task)(); });
        return fut;
    }

    unsigned size() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Wall-clock nanoseconds worker @p w has spent inside tasks.
     * Monotone; safe to read while the pool runs, and already
     * includes any run() task whose future has become ready.
     */
    std::uint64_t
    busyNs(unsigned w) const
    {
        return busyNs_[w].load(std::memory_order_relaxed);
    }

    /** Sum of busyNs over all workers. */
    std::uint64_t totalBusyNs() const;

    /** Tasks that have finished executing (across all workers). */
    std::uint64_t
    tasksExecuted() const
    {
        return tasksExecuted_.load(std::memory_order_relaxed);
    }

    /** Tasks queued but not yet picked up by a worker. */
    std::size_t queueDepth() const;

    /**
     * Worker count used when the caller does not choose one: the
     * OCOR_JOBS environment variable when parseJobs() accepts it,
     * otherwise the CPUs in the calling thread's affinity mask
     * (sched_getaffinity), so a process pinned with taskset is not
     * oversubscribed; std::thread::hardware_concurrency() (minimum 1)
     * where the mask cannot be read.
     */
    static unsigned defaultConcurrency();

    /** Size of the pool whose worker is the calling thread; 1 outside
     * any pool. */
    static unsigned enclosingSize();

    /**
     * Parse a worker count as given to --jobs or OCOR_JOBS: a whole
     * positive decimal integer that fits in unsigned ("4"), nothing
     * else (no sign, blanks, suffix or zero). nullopt on rejection.
     */
    static std::optional<unsigned> parseJobs(const std::string &text);

  private:
    /** Times one task and books it to the executing worker; the
     * destructor runs before the task's future becomes ready. */
    class Timed
    {
      public:
        explicit Timed(ThreadPool &pool)
            : pool_(pool), t0_(std::chrono::steady_clock::now())
        {
        }

        ~Timed()
        {
            auto ns = std::chrono::duration_cast<
                std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0_).count();
            pool_.account(static_cast<std::uint64_t>(ns));
        }

      private:
        ThreadPool &pool_;
        std::chrono::steady_clock::time_point t0_;
    };

    void enqueue(std::function<void()> task);

    /** Book @p ns of task time to the calling worker thread. */
    void account(std::uint64_t ns);

    void workerLoop(unsigned worker, unsigned poolSize);

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;

    /** Per-worker task wall time; indexed by worker, written only by
     * that worker (atomic so observers race-freely read live). */
    std::unique_ptr<std::atomic<std::uint64_t>[]> busyNs_;
    std::atomic<std::uint64_t> tasksExecuted_{0};
};

} // namespace ocor

#endif // OCOR_COMMON_THREAD_POOL_HH
