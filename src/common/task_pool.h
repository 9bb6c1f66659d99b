/**
 * @file
 * Small persistent thread pool used to shard disjoint index ranges
 * across threads (block-parallel kernel apply, gradient-job fan-out).
 *
 * The pool hands each participant a contiguous chunk of the range, so a
 * caller whose chunks write disjoint memory gets bit-identical results
 * regardless of the thread count — the property the simulation kernels
 * rely on for deterministic replay.
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
 * Persistent worker pool executing one parallel-for at a time.
 *
 * A pool of capacity T runs T-1 resident worker threads; the submitting
 * thread works alongside them, so `TaskPool(1)` spawns nothing and runs
 * everything inline. If a parallel-for is already in flight (another
 * thread got there first, or a kernel body recurses), the new call runs
 * its whole range inline instead of queueing — callers never block on
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
     * Run @p body over [begin, end), partitioned into one contiguous
     * chunk per participant. Blocks until every chunk has finished.
     * Ranges smaller than the participant count run inline (the
     * fork/join overhead would dominate fine-grained work).
     * @param body invoked as body(chunkBegin, chunkEnd); chunks are
     *        disjoint and cover the range exactly once
     */
    void parallelFor(uint64_t begin, uint64_t end,
                     const std::function<void(uint64_t, uint64_t)> &body);

    /**
     * As parallelFor, but for *coarse* jobs (circuit executions,
     * gradient evaluations): parallelizes even when @p count is below
     * the participant count — each index is assumed expensive enough
     * to be worth a thread on its own. Chunks are still contiguous and
     * disjoint, so callers writing per-index slots stay bit-identical
     * for every thread count.
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
    void submitRange(uint64_t begin, uint64_t end,
                     const std::function<void(uint64_t, uint64_t)> &body);

    int threads_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    /** Submission gate: one parallelFor in flight at a time. */
    std::mutex submitMu_;

    const std::function<void(uint64_t, uint64_t)> *body_ = nullptr;
    uint64_t begin_ = 0;
    uint64_t end_ = 0;
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
