/**
 * @file
 * Small persistent thread pool that fans coarse jobs out across
 * threads: the engines' gradient jobs, the estimator's circuit batches,
 * the segments of one batch schedule and the serving tier's shards.
 * Simulation kernels never use it; each pass runs serially inside one
 * of those jobs.
 *
 * The pool hands each participant a contiguous chunk of the job
 * indices, so a caller whose jobs write disjoint slots gets
 * bit-identical results regardless of the thread count — the property
 * deterministic replay relies on.
 */

#ifndef EQC_COMMON_TASK_POOL_H
#define EQC_COMMON_TASK_POOL_H

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace eqc {

/**
 * Persistent worker pool executing one fan-out at a time.
 *
 * A pool of capacity T runs T-1 resident worker threads; the submitting
 * thread works alongside them, so `TaskPool(1)` spawns nothing and runs
 * everything inline. If a fan-out is already in flight (another thread
 * got there first, or a job body recurses), the new call runs all of
 * its jobs inline instead of queueing — callers never block on
 * unrelated work.
 */
class TaskPool
{
  public:
    /** @param threads total participants (clamped to >= 1) */
    explicit TaskPool(int threads);

    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Total participants (resident workers + the submitting thread). */
    int threadCount() const { return threads_; }

    /**
     * Run @p body over the job indices [0, @p count), partitioned into
     * one contiguous chunk per participant, and block until every chunk
     * has finished. Any count of two or more fans out, also below the
     * participant count: each index is assumed expensive enough (a
     * circuit execution, a gradient evaluation) to be worth a thread
     * on its own.
     * @param body invoked as body(chunkBegin, chunkEnd); chunks are
     *        disjoint and cover [0, count) exactly once, so callers
     *        writing per-index slots stay bit-identical for every
     *        thread count
     */
    void parallelJobs(uint64_t count,
                      const std::function<void(uint64_t, uint64_t)> &body);

    /**
     * Process-wide pool sized from the EQC_THREADS environment variable
     * when set, otherwise std::thread::hardware_concurrency().
     */
    static TaskPool &shared();

    /**
     * Publish pool telemetry into @p m: fan-out and inline-degrade
     * counters and an active-worker gauge. Call once, before the pool
     * sees work; uninstrumented pools pay only a null check per event.
     */
    void instrument(obs::MetricsRegistry &m);

  private:
    void workerLoop();
    void runChunks();

    int threads_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    /** Submission gate: one fan-out in flight at a time. */
    std::mutex submitMu_;

    const std::function<void(uint64_t, uint64_t)> *body_ = nullptr;
    uint64_t count_ = 0;
    uint64_t jobSeq_ = 0;
    int chunksLeft_ = 0;   ///< chunks not yet claimed
    int pending_ = 0;      ///< chunks claimed but not yet finished
    bool stop_ = false;

    // Optional telemetry (see instrument()); null when unattached.
    obs::Counter *ctrParallel_ = nullptr;
    obs::Counter *ctrInline_ = nullptr;
    obs::Gauge *activeWorkers_ = nullptr;
};

} // namespace eqc

#endif // EQC_COMMON_TASK_POOL_H
