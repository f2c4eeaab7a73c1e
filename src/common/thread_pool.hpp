/**
 * @file
 * Work-stealing thread pool for the embarrassingly-parallel outer
 * loops of the simulator: sweep grids, compare pairs, figure benches.
 *
 * Each worker owns a deque; submission round-robins tasks across the
 * deques, a worker pops its own deque LIFO (cache-warm) and steals
 * FIFO from its neighbours when it runs dry.  Tasks are expected to
 * be coarse (one whole simulation each), so a single pool mutex is
 * cheap and keeps the implementation obviously race-free under
 * ThreadSanitizer.
 *
 * The pool executes tasks on *worker* threads: anything a task
 * touches must either be task-local (the sweep engine gives every
 * run its own rt::Context/Registry/Rng/Tracer) or thread-safe.  The
 * grid kernel (grid/grid.hpp) converts per-run FatalErrors into
 * failed cells before they reach the pool.  runIndexed() rethrows
 * whatever else a task throws once every task has finished; a task
 * submit()ted directly that throws is counted in Stats::uncaught
 * rather than terminating the process.
 */

#ifndef HCC_COMMON_THREAD_POOL_HPP
#define HCC_COMMON_THREAD_POOL_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hcc {

/**
 * Fixed-size work-stealing pool.  Construction spawns the workers;
 * destruction drains nothing — call wait() first if completion
 * matters (runIndexed() does).
 */
class ThreadPool
{
  public:
    /** Post-run execution counters (see stats()). */
    struct Stats
    {
        /** Tasks executed to completion. */
        std::uint64_t executed = 0;
        /** Tasks a worker stole from another worker's deque. */
        std::uint64_t stolen = 0;
        /** submit()ted tasks that leaked an exception (a bug in the
         *  caller; runIndexed() rethrows instead). */
        std::uint64_t uncaught = 0;
        /** Sum of per-task wall-clock across all workers, us. */
        double busy_us = 0.0;
        /** Worker threads the pool ran with. */
        int jobs = 0;

        /**
         * Fraction of worker capacity spent running tasks during
         * @p wall_us of pool wall-clock (0 when unknowable).
         */
        double utilization(double wall_us) const;
    };

    /** @param jobs worker threads; < 1 is clamped to 1. */
    explicit ThreadPool(int jobs);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    int jobs() const { return static_cast<int>(workers_.size()); }

    /** Enqueue @p task; runs on some worker, in no defined order. */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /** Execution counters; call after wait() for stable values. */
    Stats stats() const;

    /** Default worker count: hardware_concurrency, at least 1. */
    static int defaultJobs();

  private:
    void workerLoop(std::size_t self);
    bool takeTask(std::size_t self, std::function<void()> &task,
                  bool &stole);

    struct WorkerQueue
    {
        std::deque<std::function<void()>> tasks;
    };

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::vector<WorkerQueue> queues_;
    std::vector<std::thread> workers_;
    std::size_t next_queue_ = 0;
    std::size_t pending_ = 0;
    bool stopping_ = false;
    Stats stats_;
};

/**
 * Run fn(0) .. fn(n-1) across @p jobs workers and block until all
 * finish.  jobs <= 1 runs inline on the calling thread (no pool);
 * either way results written by fn into index i of a caller-owned
 * vector land in deterministic input order.  A task that throws
 * does not stop the others: once every task has finished, the
 * exception of the lowest-index task that threw is rethrown, so a
 * failed cell is never read as a default-constructed result.
 * @return the pool's execution stats (inline runs fill executed/
 *         busy_us with jobs = 1).
 */
ThreadPool::Stats runIndexed(std::size_t n, int jobs,
                             const std::function<void(std::size_t)> &fn);

/** Host wall-clock microseconds elapsed since @p start. */
double elapsedUs(std::chrono::steady_clock::time_point start);

} // namespace hcc

#endif // HCC_COMMON_THREAD_POOL_HPP
