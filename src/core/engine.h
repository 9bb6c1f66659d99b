/**
 * @file
 * The execution-engine seam of the EQC runtime.
 *
 * The paper's master/client protocol (Alg. 1 / Alg. 2) is
 * deployment-agnostic: the same semantics run on a discrete-event
 * simulator or behind a serving node. This header pins that
 * separation down as an API:
 *
 *  - RunContext owns everything deployment-independent about one EQC
 *    job: the ensemble, the master, the adaptive cooldown policy, the
 *    round-robin epoch evaluation, and the trace under construction.
 *  - ExecutionEngine is the deployment: it decides *when* clients pull
 *    tasks and *how* latencies elapse, and drives the shared
 *    RunContext for everything else, from one thread.
 *  - TraceObserver streams telemetry out of the run (weight timeline,
 *    staleness, jobs-per-device, ideal-energy annotation) instead of
 *    baking recording flags into each executor.
 *  - makeEngine maps an engine name ("virtual", "service") to a new
 *    engine.
 *
 * Most callers should use the higher-level eqc::Runtime (runtime.h);
 * this layer is for implementing new engines or custom telemetry.
 */

#ifndef EQC_CORE_ENGINE_H
#define EQC_CORE_ENGINE_H

#include <memory>
#include <string>
#include <vector>

#include "common/event_loop.h"
#include "core/eqc.h"

namespace eqc {

class RunContext;
class TaskPool;

/**
 * Streaming telemetry callbacks for one EQC run.
 *
 * Engines invoke these through RunContext while the run is in flight,
 * so telemetry is observed as it happens rather than reconstructed from
 * the finished trace. Engines call these hooks from one thread, the one
 * driving RunContext::applyResult.
 */
class TraceObserver
{
  public:
    virtual ~TraceObserver() = default;

    /** A gradient result was applied; @p weight is the Eq. 4 weight. */
    virtual void onResult(RunContext &ctx, std::size_t clientId,
                          const GradientResult &result, double weight);

    /**
     * An epoch record is being finalized; observers may annotate it
     * (e.g. fill in the ideal-simulator energy) before it is appended
     * to the trace.
     */
    virtual void onEpoch(RunContext &ctx, EpochRecord &record);

    /** The adaptive policy cooled @p clientId down until @p untilH. */
    virtual void onCooldown(RunContext &ctx, std::size_t clientId,
                            double untilH);

    /** The run finished; the trace's tail fields are final. */
    virtual void onFinish(RunContext &ctx);
};

/** Streams (time, client, pCorrect, weight) samples into the trace. */
class WeightTimelineObserver : public TraceObserver
{
  public:
    void onResult(RunContext &ctx, std::size_t clientId,
                  const GradientResult &result, double weight) override;
};

/** Counts completed gradient jobs per device into the trace. */
class JobsPerDeviceObserver : public TraceObserver
{
  public:
    void onResult(RunContext &ctx, std::size_t clientId,
                  const GradientResult &result, double weight) override;
};

/**
 * Annotates each epoch with the ideal-simulator loss (idealLoss: the
 * energy, or the dataset MSE of a QNN).
 */
class IdealEnergyObserver : public TraceObserver
{
  public:
    void onEpoch(RunContext &ctx, EpochRecord &record) override;
};

/**
 * Deployment-independent state and orchestration logic of one EQC job.
 *
 * A RunContext is built once per job and handed to an ExecutionEngine.
 * The engine owns scheduling (when a client pulls its next task, how
 * the job latency elapses); the context owns everything the paper's
 * protocol says must be identical across deployments: the master
 * update rule, the adaptive cooldown policy, round-robin epoch
 * evaluation, and trace/telemetry recording.
 *
 * RunContext is not internally synchronized: engines call it from one
 * thread (gradient computations may fan out on a TaskPool, but results
 * are applied by the thread driving the run).
 */
class RunContext
{
  public:
    /**
     * @param problem the VQA under optimization (copied, so the
     *        context is self-contained and cannot dangle; the copy is
     *        negligible next to per-client transpilation)
     * @param devices candidate devices (ineligible ones are skipped)
     * @param options full run configuration
     * @param observers telemetry sinks, invoked in order; not owned,
     *        must outlive the run
     */
    RunContext(const VqaProblem &problem,
               const std::vector<Device> &devices,
               const EqcOptions &options,
               std::vector<TraceObserver *> observers = {});

    const VqaProblem &problem() const { return problem_; }
    const EqcOptions &options() const { return options_; }
    Ensemble &ensemble() { return ensemble_; }
    MasterNode &master() { return master_; }
    EqcTrace &trace() { return trace_; }

    std::size_t numClients() const { return ensemble_.size(); }

    /**
     * Fan-out pool the run's diagnostic evaluations use (epoch-energy
     * estimates). Engines that honor EqcOptions::engineThreads set
     * this to their own pool so the whole job stays bounded by it;
     * nullptr (the default) means TaskPool::shared().
     */
    void setEnginePool(TaskPool *pool) { enginePool_ = pool; }

    /** The pool set by setEnginePool (nullptr: shared pool). */
    TaskPool *enginePool() const { return enginePool_; }

    /**
     * The run's shared clock. Defaults to an internal VirtualClock;
     * engines that serve in real time (or hand the run to an
     * event-driven subsystem like serve::ServiceNode) install their
     * clock here so every component of the job agrees on what "now"
     * means. Engines advance it as results apply.
     */
    Clock &clock() { return *clock_; }

    /** Replace the run's clock (not owned; must outlive the run). */
    void setClock(Clock *clock) { clock_ = clock ? clock : &ownClock_; }

    /** Virtual time of the most recently applied result (hours). */
    double nowH() const { return nowH_; }

    /** true once the master has applied its target number of epochs. */
    bool done() const { return master_.done(); }

    /**
     * Hour until which the adaptive policy has cooled down client
     * @p ci; 0 when the client is free to pull tasks.
     */
    double cooldownUntil(std::size_t ci) const
    {
        return cooldownUntil_[ci];
    }

    /**
     * Apply one completed gradient at virtual time @p nowH: master
     * update, streamed telemetry, adaptive cooldown bookkeeping, and
     * epoch recording. Called from the thread driving the run.
     */
    void applyResult(std::size_t ci, const ClientNode::Processed &processed,
                     double nowH);

    /** Fill the trace's tail fields once the engine has drained. */
    void finish();

    /** Move the finished trace out of the context. */
    EqcTrace takeTrace() { return std::move(trace_); }

  private:
    void recordEpochs();

    VqaProblem problem_;
    EqcOptions options_;
    Ensemble ensemble_;
    MasterNode master_;
    EqcTrace trace_;
    std::vector<TraceObserver *> observers_;
    TaskPool *enginePool_ = nullptr;
    VirtualClock ownClock_;
    Clock *clock_ = &ownClock_;
    std::vector<int> bottomStreak_;
    std::vector<double> cooldownUntil_;
    std::size_t rrEval_ = 0;
    double nowH_ = 0.0;
    double lastCompletionH_ = 0.0;
};

/**
 * One EQC deployment: drives a RunContext from start to drain.
 *
 * Implementations decide how time passes and how clients are
 * scheduled; all protocol semantics live in the context. Engines are
 * created per job by makeEngine and may keep per-run state.
 */
class ExecutionEngine
{
  public:
    virtual ~ExecutionEngine() = default;

    /** Name of this engine ("virtual", "service"). */
    virtual std::string name() const = 0;

    /**
     * Execute the job to completion (or to the time budget). Must call
     * ctx.finish() before returning.
     */
    virtual void run(RunContext &ctx) = 0;
};

/**
 * Instantiate the engine named @p name: "virtual" or "service".
 * @throws std::invalid_argument naming the unknown engine and listing
 *         both built-in ones (no silent default).
 */
std::unique_ptr<ExecutionEngine> makeEngine(const std::string &name);

/**
 * Factory for the deterministic discrete-event engine ("virtual").
 * Gradient batches fan out through a TaskPool; the trace is
 * bit-identical for every thread count (see EqcOptions::engineThreads).
 */
std::unique_ptr<ExecutionEngine> makeVirtualEngine();

/**
 * Factory for the serving-layer engine ("service"): gradients are
 * routed through a multi-tenant ServiceNode that shot-shards each
 * parameter-shift evaluation across the whole ensemble and applies
 * the aggregated gradient synchronously. Declared here (the pattern
 * of the other built-ins) and implemented by the serve layer
 * (src/serve/service_engine.cc), so core's headers never include
 * serve's — the layering stays one-directional at the include level.
 * Deterministic for every thread count.
 */
std::unique_ptr<ExecutionEngine> makeServiceEngine();

} // namespace eqc

#endif // EQC_CORE_ENGINE_H
