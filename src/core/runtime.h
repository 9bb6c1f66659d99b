/**
 * @file
 * eqc::Runtime — the public entry point of the EQC library.
 *
 * A Runtime accepts EQC jobs (problem + device list + options), picks
 * the execution engine named by the options ("virtual" DES replay or
 * "service" ServiceNode-backed gradients; see EngineRegistry), and
 * hands back a JobHandle that carries the
 * resulting EqcTrace. Jobs are queued at submit time; they execute
 * either on first JobHandle::get()/take() (inline, lazily) or all at
 * once via Runtime::runAll(), which fans independent jobs across
 * worker threads — the multi-tenant "many VQA campaigns against one
 * fleet" shape the ROADMAP points at.
 *
 *   Runtime rt;
 *   EqcOptions opts;
 *   opts.master.epochs = 40;
 *   JobHandle job = rt.submit(problem, evaluationEnsemble(), opts);
 *   const EqcTrace &trace = job.get();
 *
 * Telemetry is streamed through TraceObserver (engine.h): the
 * recordIdealEnergy / recordWeights switches install the corresponding
 * built-in observers, and submit() accepts extra user observers.
 */

#ifndef EQC_CORE_RUNTIME_H
#define EQC_CORE_RUNTIME_H

#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"

namespace eqc {

namespace detail {
struct JobState;
} // namespace detail

/**
 * Handle to one submitted EQC job. Cheap to copy; all copies refer to
 * the same underlying job. A default-constructed handle is invalid.
 *
 * The finished trace is single-consumer: once a job is done, read it
 * from one thread at a time. get() hands out a reference into the job
 * and take() moves the trace out, so concurrent get()/take() through
 * different copies of the same handle race on the trace itself.
 */
class JobHandle
{
  public:
    JobHandle() = default;

    /** true when the handle refers to a submitted job. */
    bool valid() const { return state_ != nullptr; }

    /** Stable id of the job within its Runtime (submission order). */
    int id() const;

    /** Name of the engine the job runs on. */
    const std::string &engine() const;

    /** true once the job has finished and its trace is available. */
    bool done() const;

    /**
     * The job's trace. Runs the job inline if it is still queued;
     * blocks if another thread (e.g. Runtime::runAll) is running it.
     * Rethrows here if the job's engine threw during execution.
     */
    const EqcTrace &get();

    /**
     * get(), then move the trace out of the job. After a take(),
     * get() through any copy of the handle observes an empty trace.
     */
    EqcTrace take();

  private:
    friend class Runtime;
    explicit JobHandle(std::shared_ptr<detail::JobState> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<detail::JobState> state_;
};

/** Runtime-wide configuration. */
struct RuntimeOptions
{
    /**
     * Worker threads used by runAll() to fan queued jobs out;
     * 0 means one per hardware thread.
     */
    int maxConcurrentJobs = 0;
};

/** Engine-pluggable EQC job runner (see file comment for usage). */
class Runtime
{
  public:
    explicit Runtime(const RuntimeOptions &options = {});
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    /**
     * Queue one EQC job on the engine named by @p options.engine.
     * The problem and device list are copied, so the caller's copies
     * need not outlive the job.
     * @throws std::invalid_argument when the engine name is not
     *         registered (the message lists the registered engines).
     */
    JobHandle submit(const VqaProblem &problem,
                     const std::vector<Device> &devices,
                     const EqcOptions &options);

    /**
     * As above, with additional telemetry observers. The observers are
     * not owned and must outlive the job's execution.
     */
    JobHandle submit(const VqaProblem &problem,
                     const std::vector<Device> &devices,
                     const EqcOptions &options,
                     const std::vector<TraceObserver *> &observers);

    /**
     * Run every still-queued job, fanning independent jobs across up
     * to RuntimeOptions::maxConcurrentJobs worker threads. Jobs whose
     * handles were already get()-run are skipped. Returns when all
     * queued jobs have finished.
     */
    void runAll();

    /** Number of submitted jobs that have not finished yet. */
    std::size_t pendingJobs() const;

    /** Names of all registered engines (sorted). */
    static std::vector<std::string> engineNames();

  private:
    RuntimeOptions options_;
    std::vector<std::shared_ptr<detail::JobState>> jobs_;
    int nextId_ = 0;
};

} // namespace eqc

#endif // EQC_CORE_RUNTIME_H
