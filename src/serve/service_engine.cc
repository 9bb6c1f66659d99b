/**
 * @file
 * The "service" execution engine: EQC training served through the
 * multi-tenant ServiceNode instead of per-client gradient jobs.
 *
 * Where the paper's deployment hands each ensemble member a whole
 * gradient task (asynchronous, stale updates), the service engine
 * routes every gradient through the serving path: the master submits
 * the forward and backward parameter-shift evaluations as jobs, the
 * ServiceNode shards each evaluation's shot budget across the whole
 * ensemble (queue-aware, Eq. 2-weighted), failed members requeue onto
 * survivors, and the aggregated estimates produce one gradient that
 * is applied synchronously. The trade the mode makes is the
 * synchronous-SGD one: no gradient staleness, at the price of waiting
 * for the slowest shard — and it exercises the whole serving stack
 * under a real optimization workload.
 *
 * Implements the makeServiceEngine() factory that core/engine.h
 * declares (core includes no serve header; the layering stays
 * one-directional at the include level).
 *
 * The engine ticks the node's event loop on the run's *shared clock*
 * (RunContext::clock): each training step submits its parameter-shift
 * evaluations as jobs — scheduling intake events — and drains the
 * loop until idle, which advances the shared clock through every
 * shard completion to the step's completion hour. Training time and
 * serving time are the same timeline by construction.
 *
 * Deterministic: the engine runs on a virtual clock and the node's
 * event loop replays bit-identically for every thread count, so the
 * trace is reproducible for any EqcOptions::engineThreads.
 */

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "common/task_pool.h"
#include "core/engine.h"
#include "quantum/types.h"
#include "serve/service_node.h"

namespace eqc {

namespace {

using serve::JobOutcome;
using serve::JobRequest;
using serve::ServiceNode;
using serve::ServiceOptions;
using serve::Ticket;
using serve::WorkloadId;

class ServiceEngine final : public ExecutionEngine
{
  public:
    std::string name() const override { return "service"; }

    void
    run(RunContext &ctx) override
    {
        // The node serves the bare ansatz; a QNN's per-sample encoding
        // circuits have no workload to run on.
        if (!ctx.problem().dataset.empty())
            throw std::invalid_argument(
                "the \"service\" engine cannot train a problem with a "
                "dataset; use the \"virtual\" engine");
        ctx.trace().label = "EQC-service";

        std::unique_ptr<TaskPool> own;
        if (ctx.options().engineThreads > 0)
            own = std::make_unique<TaskPool>(
                ctx.options().engineThreads);
        TaskPool &pool = own ? *own : TaskPool::shared();
        ctx.setEnginePool(&pool);

        // The node fronts the ensemble's own devices in client order,
        // so member index == RunContext client index and outcomes map
        // straight onto the trace's per-client telemetry.
        std::vector<Device> devices;
        for (std::size_t ci = 0; ci < ctx.numClients(); ++ci)
            devices.push_back(ctx.ensemble().client(ci).device());

        ServiceOptions sopts;
        sopts.seed = ctx.options().seed;
        sopts.shotMode = ctx.options().client.shotMode;
        sopts.pCorrectMode = ctx.options().client.pCorrectMode;
        sopts.readoutMitigation =
            ctx.options().client.readoutMitigation;
        // The weighting hook: the master's weight bounds choose the
        // aggregation flavour — Eq. 2 fidelity weighting when bounded
        // weighting is on, equi-ensemble otherwise.
        sopts.aggregation =
            ctx.options().master.weightBounds.enabled()
                ? serve::AggregationMode::FidelityWeighted
                : serve::AggregationMode::EquiWeighted;
        // The node serves on the run's shared clock: intake, shard
        // completion and finalize events advance the same timeline
        // the master's epochs are recorded on.
        ServiceNode node(devices, sopts, &ctx.clock());
        WorkloadId wl = node.registerWorkload(
            ctx.problem().ansatz, ctx.problem().hamiltonian);

        const int shots = ctx.options().client.shots;
        double nowH = ctx.clock().nowH();
        while (!ctx.done() && nowH <= ctx.options().maxHours) {
            GradientTask task = ctx.master().nextTask();

            // Whole-parameter shift rule (the paper's client mode):
            // two sharded evaluations at theta +- pi/2.
            JobRequest req;
            req.tenantId = 0;
            req.workload = wl;
            req.shots = shots;
            req.submitH = nowH;
            req.params = task.params;
            req.params[task.paramIndex] += kPi / 2.0;
            Ticket fwd = node.submit(req);
            req.params = task.params;
            req.params[task.paramIndex] -= kPi / 2.0;
            Ticket bwd = node.submit(req);

            std::vector<JobOutcome> outcomes = node.drain(&pool);
            const JobOutcome *plus = nullptr, *minus = nullptr;
            for (const JobOutcome &o : outcomes) {
                if (o.jobId == fwd.jobId)
                    plus = &o;
                if (o.jobId == bwd.jobId)
                    minus = &o;
            }
            if (!plus || !minus)
                break; // ensemble gone: nothing more can complete

            double completeH =
                std::max(plus->completeH, minus->completeH);
            std::size_t primary =
                plus->primaryMember >= 0
                    ? static_cast<std::size_t>(plus->primaryMember)
                    : 0;

            ClientNode::Processed p;
            p.result.paramIndex = task.paramIndex;
            p.result.gradient =
                (plus->energy - minus->energy) / 2.0;
            p.result.pCorrect =
                0.5 * (plus->pCorrect + minus->pCorrect);
            p.result.clientId = static_cast<int>(primary);
            p.result.version = task.version;
            p.result.completionTimeH = completeH;
            p.result.circuitsRun =
                plus->circuitsRun + minus->circuitsRun;
            p.latencyH = completeH - nowH;

            ctx.applyResult(primary, p, completeH);
            nowH = completeH;
        }

        ctx.finish();
        ctx.setEnginePool(nullptr);
    }
};

} // namespace

std::unique_ptr<ExecutionEngine>
makeServiceEngine()
{
    return std::make_unique<ServiceEngine>();
}

} // namespace eqc
