#include "core/runtime.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>

#include "common/logging.h"

namespace eqc {

namespace detail {

/**
 * Self-contained record of one submitted job. Owns copies of the
 * problem/devices/options and the built-in observers, so execution
 * never depends on the submitting Runtime or caller still being alive.
 */
struct JobState
{
    enum class Status { Queued, Running, Done };

    int id = -1;
    std::string engineName;
    /** Created (and the name validated) at submit; runs the job. */
    std::unique_ptr<ExecutionEngine> engine;
    VqaProblem problem;
    std::vector<Device> devices;
    EqcOptions options;
    std::vector<std::unique_ptr<TraceObserver>> ownedObservers;
    std::vector<TraceObserver *> observers;

    std::mutex mutex;
    std::condition_variable cv;
    Status status = Status::Queued;
    EqcTrace trace;
    std::exception_ptr error;

    /** Claim the job if still queued; false when taken or finished. */
    bool claim()
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (status != Status::Queued)
            return false;
        status = Status::Running;
        return true;
    }

    /**
     * Execute the claimed job to completion and publish the trace.
     * An engine that throws still moves the job to Done (waiters must
     * not hang); the exception is stashed and rethrown from get().
     */
    void execute()
    {
        try {
            RunContext ctx(problem, devices, options, observers);
            engine->run(ctx);
            std::lock_guard<std::mutex> lock(mutex);
            trace = ctx.takeTrace();
            status = Status::Done;
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            error = std::current_exception();
            status = Status::Done;
        }
        cv.notify_all();
    }

    /** Run inline if queued, else wait for the running thread. */
    void ensureDone()
    {
        if (claim()) {
            execute();
            return;
        }
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return status == Status::Done; });
    }

    bool done()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return status == Status::Done;
    }
};

} // namespace detail

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

int
JobHandle::id() const
{
    return state_ ? state_->id : -1;
}

const std::string &
JobHandle::engine() const
{
    static const std::string kNone;
    return state_ ? state_->engineName : kNone;
}

bool
JobHandle::done() const
{
    return state_ && state_->done();
}

const EqcTrace &
JobHandle::get()
{
    if (!state_)
        fatal("JobHandle::get: invalid (default-constructed) handle");
    state_->ensureDone();
    if (state_->error)
        std::rethrow_exception(state_->error);
    return state_->trace;
}

EqcTrace
JobHandle::take()
{
    get();
    // The lock serializes concurrent take() calls; readers holding a
    // reference from get() are NOT protected — see the header's
    // single-consumer contract.
    std::lock_guard<std::mutex> lock(state_->mutex);
    return std::move(state_->trace);
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

Runtime::Runtime(const RuntimeOptions &options) : options_(options) {}

Runtime::~Runtime() = default;

JobHandle
Runtime::submit(const VqaProblem &problem,
                const std::vector<Device> &devices,
                const EqcOptions &options)
{
    return submit(problem, devices, options, {});
}

JobHandle
Runtime::submit(const VqaProblem &problem,
                const std::vector<Device> &devices,
                const EqcOptions &options,
                const std::vector<TraceObserver *> &observers)
{
    auto state = std::make_shared<detail::JobState>();
    state->id = nextId_++;
    state->engineName = options.engine;
    // Created here so an unknown engine name throws makeEngine's
    // "unknown execution engine ..." message at submit, not
    // mid-runAll — and the validated instance is the one that runs.
    state->engine = makeEngine(options.engine);
    state->problem = problem;
    state->devices = devices;
    state->options = options;

    // Core telemetry every trace is expected to carry. (Staleness
    // needs no observer: the master tracks it and RunContext::finish
    // copies it into the trace.)
    state->ownedObservers.push_back(
        std::make_unique<JobsPerDeviceObserver>());
    // The legacy recording switches, as composable observers.
    if (options.recordWeights)
        state->ownedObservers.push_back(
            std::make_unique<WeightTimelineObserver>());
    if (options.recordIdealEnergy)
        state->ownedObservers.push_back(
            std::make_unique<IdealEnergyObserver>());
    for (const auto &obs : state->ownedObservers)
        state->observers.push_back(obs.get());
    for (TraceObserver *obs : observers)
        state->observers.push_back(obs);

    jobs_.push_back(state);
    return JobHandle(state);
}

void
Runtime::runAll()
{
    std::vector<std::shared_ptr<detail::JobState>> queued;
    for (const auto &job : jobs_)
        if (job->claim())
            queued.push_back(job);
    if (queued.empty())
        return;

    unsigned workers = options_.maxConcurrentJobs > 0
                           ? static_cast<unsigned>(
                                 options_.maxConcurrentJobs)
                           : std::max(1u,
                                      std::thread::hardware_concurrency());
    workers = std::min<unsigned>(workers,
                                 static_cast<unsigned>(queued.size()));

    if (workers <= 1) {
        for (const auto &job : queued)
            job->execute();
        return;
    }

    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < queued.size();
                 i = next.fetch_add(1))
                queued[i]->execute();
        });
    }
    for (std::thread &t : pool)
        t.join();
}

std::size_t
Runtime::pendingJobs() const
{
    std::size_t pending = 0;
    for (const auto &job : jobs_)
        if (!job->done())
            ++pending;
    return pending;
}

} // namespace eqc
