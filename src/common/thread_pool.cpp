#include "common/thread_pool.hpp"

#include <chrono>

#include "common/log.hpp"

namespace hcc {

double
elapsedUs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
ThreadPool::Stats::utilization(double wall_us) const
{
    if (jobs <= 0 || wall_us <= 0.0)
        return 0.0;
    const double capacity = wall_us * jobs;
    const double u = busy_us / capacity;
    return u > 1.0 ? 1.0 : u;
}

ThreadPool::ThreadPool(int jobs)
{
    if (jobs < 1)
        jobs = 1;
    queues_.resize(static_cast<std::size_t>(jobs));
    stats_.jobs = jobs;
    workers_.reserve(static_cast<std::size_t>(jobs));
    for (int i = 0; i < jobs; ++i) {
        workers_.emplace_back(
            [this, i] { workerLoop(static_cast<std::size_t>(i)); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    HCC_ASSERT(task != nullptr, "null task submitted to pool");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queues_[next_queue_].tasks.push_back(std::move(task));
        next_queue_ = (next_queue_ + 1) % queues_.size();
        ++pending_;
    }
    work_cv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

ThreadPool::Stats
ThreadPool::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

int
ThreadPool::defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

bool
ThreadPool::takeTask(std::size_t self, std::function<void()> &task,
                     bool &stole)
{
    // Own deque first, newest task (LIFO keeps the footprint warm)...
    auto &own = queues_[self].tasks;
    if (!own.empty()) {
        task = std::move(own.back());
        own.pop_back();
        stole = false;
        return true;
    }
    // ...then steal the oldest task from a neighbour (FIFO steals
    // take the work its owner is furthest from reaching).
    for (std::size_t k = 1; k < queues_.size(); ++k) {
        auto &victim = queues_[(self + k) % queues_.size()].tasks;
        if (!victim.empty()) {
            task = std::move(victim.front());
            victim.pop_front();
            stole = true;
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(std::size_t self)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        std::function<void()> task;
        bool stole = false;
        if (takeTask(self, task, stole)) {
            lock.unlock();
            const auto start = std::chrono::steady_clock::now();
            bool leaked = false;
            try {
                task();
            } catch (...) {
                leaked = true;
            }
            const double us = elapsedUs(start);
            lock.lock();
            ++stats_.executed;
            if (stole)
                ++stats_.stolen;
            if (leaked)
                ++stats_.uncaught;
            stats_.busy_us += us;
            if (--pending_ == 0)
                idle_cv_.notify_all();
            continue;
        }
        if (stopping_)
            return;
        work_cv_.wait(lock);
    }
}

ThreadPool::Stats
runIndexed(std::size_t n, int jobs,
           const std::function<void(std::size_t)> &fn)
{
    if (jobs <= 1) {
        ThreadPool::Stats stats;
        stats.jobs = 1;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                ++stats.uncaught;
            }
            ++stats.executed;
        }
        stats.busy_us = elapsedUs(start);
        return stats;
    }
    ThreadPool pool(jobs);
    for (std::size_t i = 0; i < n; ++i)
        pool.submit([&fn, i] { fn(i); });
    pool.wait();
    return pool.stats();
}

} // namespace hcc
