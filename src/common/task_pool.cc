#include "common/task_pool.h"

#include <algorithm>
#include <cstdlib>

namespace eqc {

namespace {

/**
 * Set while a thread is inside a parallelJobs submission (any pool).
 * A nested call from such a thread must not touch submitMu_ at all:
 * try_lock on a mutex the thread itself holds is undefined behavior.
 */
thread_local bool tlsInParallelRegion = false;

int
sharedThreadCount()
{
    if (const char *env = std::getenv("EQC_THREADS")) {
        int n = std::atoi(env);
        if (n >= 1)
            return std::min(n, 256);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? static_cast<int>(hw) : 1;
}

} // namespace

TaskPool::TaskPool(int threads) : threads_(std::max(threads, 1))
{
    workers_.reserve(threads_ - 1);
    for (int i = 0; i < threads_ - 1; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
TaskPool::runChunks()
{
    for (;;) {
        uint64_t count;
        const std::function<void(uint64_t, uint64_t)> *body;
        int part;
        {
            // Claim a chunk and snapshot the job geometry under the same
            // lock: count_/body_ are stable while chunks remain.
            std::lock_guard<std::mutex> lk(mu_);
            if (chunksLeft_ == 0)
                return;
            part = --chunksLeft_;
            count = count_;
            body = body_;
        }
        // Balanced contiguous chunks: the first `rem` parts get one
        // extra element.
        const uint64_t chunk = count / static_cast<uint64_t>(threads_);
        const uint64_t rem = count % static_cast<uint64_t>(threads_);
        const uint64_t p = static_cast<uint64_t>(part);
        const uint64_t lo = p * chunk + std::min<uint64_t>(p, rem);
        const uint64_t hi = lo + chunk + (p < rem ? 1 : 0);
        if (lo < hi) {
            if (activeWorkers_)
                activeWorkers_->add(1.0);
            (*body)(lo, hi);
            if (activeWorkers_)
                activeWorkers_->add(-1.0);
        }
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (--pending_ == 0)
                doneCv_.notify_all();
        }
    }
}

void
TaskPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk, [&] {
                return stop_ || (jobSeq_ != seen && chunksLeft_ > 0);
            });
            if (stop_)
                return;
            seen = jobSeq_;
        }
        runChunks();
    }
}

void
TaskPool::parallelJobs(uint64_t count,
                       const std::function<void(uint64_t, uint64_t)> &body)
{
    if (count == 0)
        return;
    // One fan-out in flight at a time. With no workers, a single job or
    // a nested call from inside a submission on this thread (which must
    // never re-probe a submit mutex it may already hold), or a pool
    // busy with another submitter, run inline.
    std::unique_lock<std::mutex> submit;
    if (!workers_.empty() && count >= 2 && !tlsInParallelRegion)
        submit = std::unique_lock<std::mutex>(submitMu_, std::try_to_lock);
    if (!submit.owns_lock()) {
        if (ctrInline_)
            ++*ctrInline_;
        body(0, count);
        return;
    }
    if (ctrParallel_)
        ++*ctrParallel_;
    struct RegionGuard
    {
        RegionGuard() { tlsInParallelRegion = true; }
        ~RegionGuard() { tlsInParallelRegion = false; }
    } region;
    {
        // Surplus participants of a count below threads_ claim empty
        // chunks.
        std::lock_guard<std::mutex> lk(mu_);
        body_ = &body;
        count_ = count;
        chunksLeft_ = threads_;
        pending_ = threads_;
        ++jobSeq_;
    }
    workCv_.notify_all();
    runChunks();
    std::unique_lock<std::mutex> lk(mu_);
    doneCv_.wait(lk, [&] { return pending_ == 0; });
    body_ = nullptr;
}

TaskPool &
TaskPool::shared()
{
    static TaskPool pool(sharedThreadCount());
    return pool;
}

void
TaskPool::instrument(obs::MetricsRegistry &m)
{
    ctrParallel_ = m.counter("eqc_pool_parallel_total",
                             "Job fan-outs submitted");
    ctrInline_ = m.counter("eqc_pool_inline_total",
                           "Parallel calls degraded to inline runs");
    activeWorkers_ = m.gauge("eqc_pool_active_workers",
                             "Participants executing work right now");
}

} // namespace eqc
