#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>
#include <unordered_map>

#include "circuit/ansatz.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "core/runtime.h"
#include "device/catalog.h"
#include "hamiltonian/exact.h"
#include "hamiltonian/heisenberg.h"
#include "serve/router.h"
#include "serve/service_node.h"
#include "vqa/expectation.h"

namespace e2e {

namespace {

constexpr double kPi = 3.14159265358979323846;
/** Fig. 6's learning rate, scaled to this Hamiltonian's energies. */
constexpr double kLearningRate = 0.05;
/** Latency SLO of the jobs that carry one, in model hours. */
constexpr double kSloH = 0.25;
/** Epochs of the untimed warm-up campaign in each segment's set-up. */
constexpr int kWarmupEpochs = 1;
/**
 * Seed of every ServiceNode and Router: it fixes the devices' drift
 * histories and the node's own random streams, as the catalog seed
 * fixes the devices. The run's seed varies what the tenants submit.
 */
constexpr uint64_t kNodeSeed = 2026;
/** Check failures kept verbatim per segment. */
constexpr std::size_t kMaxFailureMessages = 5;

void
fail(SegmentResult &r, const std::string &msg)
{
    ++r.failed;
    if (r.failures.size() < kMaxFailureMessages)
        r.failures.push_back(msg);
}

/** Fig. 8's ansatz and Eq. 3's Hamiltonian on a 7-site chain. */
eqc::VqaProblem
wideProblem()
{
    eqc::VqaProblem p;
    p.name = "heisenberg-chain-7q";
    p.ansatz = eqc::hardwareEfficientAnsatz(7);
    std::vector<std::pair<int, int>> chain;
    for (int q = 0; q + 1 < 7; ++q)
        chain.emplace_back(q, q + 1);
    p.hamiltonian = eqc::heisenbergHamiltonian(7, chain, 1.0, 1.0);
    eqc::Rng rng = eqc::Rng(7).fork("wide-init");
    p.initialParams.resize(static_cast<std::size_t>(p.ansatz.numParams()));
    for (double &v : p.initialParams)
        v = rng.uniform(-kPi, kPi);
    p.shots = 8192;
    return p;
}

bool
allFinite(const std::vector<double> &v)
{
    return std::all_of(v.begin(), v.end(),
                       [](double x) { return std::isfinite(x); });
}

// ---------------------------------------------------------------------------
// Campaign workloads
// ---------------------------------------------------------------------------

/**
 * Per-campaign telemetry: epoch wall times always (the step metric),
 * result wall times and the campaign span when tracing. The engine
 * exposes no start callback, so a campaign's span starts where the
 * previous campaign on the same runAll worker thread finished (or at
 * runAll's start for a worker's first campaign).
 */
class CampaignObserver final : public eqc::TraceObserver
{
  public:
    CampaignObserver(Tracer &tracer, uint64_t traceId, bool keepResults)
        : tracer_(tracer), traceId_(traceId), keepResults_(keepResults)
    {
    }

    /** Attach to the runAll span about to start at @p startNs. */
    void
    arm(int parentSpan, int64_t startNs)
    {
        parent_ = parentSpan;
        runStartNs_ = startNs;
    }

    void
    onResult(eqc::RunContext &, std::size_t, const eqc::GradientResult &,
             double) override
    {
        if (keepResults_)
            resultNs.push_back(nowNs());
    }

    void
    onEpoch(eqc::RunContext &, eqc::EpochRecord &) override
    {
        epochNs.push_back(nowNs());
    }

    void
    onFinish(eqc::RunContext &) override
    {
        thread_local int64_t lastRunStart = -1;
        thread_local int64_t lastFinish = 0;
        const int64_t t = nowNs();
        tracer_.record("core.campaign", parent_, traceId_,
                       lastRunStart == runStartNs_ ? lastFinish
                                                   : runStartNs_,
                       t);
        lastRunStart = runStartNs_;
        lastFinish = t;
    }

    std::vector<int64_t> epochNs;
    std::vector<int64_t> resultNs;

  private:
    Tracer &tracer_;
    uint64_t traceId_;
    bool keepResults_;
    int parent_ = -1;
    int64_t runStartNs_ = 0;
};

SegmentResult
runCampaignSegment(const Workload &w, const Inputs &in, uint64_t seed,
                   int threads, Tracer &tracer, uint64_t traceId,
                   LayerSamples *layers)
{
    const CampaignSpec &cs = w.c;
    SegmentResult r;
    const int64_t t0 = nowNs();

    // Set-up: exact reference energy, one short warm-up campaign (plan
    // and noise caches, allocator), then the queued campaigns.
    const eqc::PauliSum &h = in.problems.front().hamiltonian;
    const double ground = eqc::minEigenvalue(h);
    const double bound = h.coefficientNorm();
    // The thread budget as two concurrent campaigns of two engine
    // threads each (all of it to a lone campaign).
    const int jobs = std::min(threads > 1 ? 2 : 1, cs.campaigns);
    auto options = [&](uint64_t label, int epochs) {
        eqc::EqcOptions o;
        o.master.epochs = epochs;
        o.master.learningRate = kLearningRate;
        o.seed = deriveSeed(seed, 1, label);
        o.engine = "virtual";
        o.engineThreads = std::max(1, threads / jobs);
        return o;
    };
    {
        eqc::Runtime warm;
        warm.submit(in.problems.front(), in.devices,
                    options(~0ULL, kWarmupEpochs))
            .take();
    }
    eqc::RuntimeOptions ro;
    ro.maxConcurrentJobs = jobs;
    eqc::Runtime runtime(ro);
    std::vector<std::unique_ptr<CampaignObserver>> observers;
    std::vector<eqc::JobHandle> handles;
    for (int c = 0; c < cs.campaigns; ++c) {
        observers.push_back(std::make_unique<CampaignObserver>(
            tracer, traceId * 1000 + static_cast<uint64_t>(c),
            layers != nullptr));
        handles.push_back(runtime.submit(
            in.problems.front(), in.devices,
            options(static_cast<uint64_t>(c), cs.epochs),
            {observers.back().get()}));
    }

    const int64_t t1 = nowNs();
    const double cpu0 = cpuSeconds();
    tracer.record("bench.setup", -1, traceId, t0, t1);
    const int segSpan = tracer.begin("bench.segment", -1, traceId);
    const int runSpan = tracer.begin("core.run_all", segSpan, traceId);
    const int64_t runStart = nowNs();
    for (auto &o : observers)
        o->arm(runSpan, runStart);
    runtime.runAll();
    tracer.end(runSpan);
    tracer.end(segSpan);
    const int64_t t2 = nowNs();
    r.cpuS = cpuSeconds() - cpu0;
    r.setupS = secondsBetween(t0, t1);
    r.wallS = secondsBetween(t1, t2);

    Digest digest;
    for (int c = 0; c < cs.campaigns; ++c) {
        ++r.attempted;
        const std::string tag = w.name + " campaign " + std::to_string(c);
        eqc::EqcTrace t;
        try {
            t = handles[static_cast<std::size_t>(c)].take();
        } catch (const std::exception &e) {
            fail(r, tag + " threw: " + e.what());
            continue;
        }
        const CampaignObserver &ob = *observers[static_cast<std::size_t>(c)];
        const int epochs = static_cast<int>(t.epochs.size());
        if (epochs != cs.epochs || t.terminated) {
            fail(r, tag + " stopped at epoch " + std::to_string(epochs));
            continue;
        }
        bool inRange = allFinite(t.finalParams);
        for (const eqc::EpochRecord &e : t.epochs)
            inRange = inRange && std::isfinite(e.energyDevice) &&
                      std::isfinite(e.energyIdeal) &&
                      std::fabs(e.energyDevice) <= bound &&
                      std::fabs(e.energyIdeal) <= bound;
        if (!inRange) {
            fail(r, tag + " produced an energy outside +-sum|coeff|");
            continue;
        }
        const double energy = eqc::finalIdealEnergy(t, 20);
        const double err = eqc::errorVsReference(energy, ground);
        if (!(err <= cs.errTolPct))
            fail(r, tag + " energy error " + std::to_string(err) +
                        "% exceeds " + std::to_string(cs.errTolPct) + "%");
        r.errAbs += std::fabs(energy - ground);
        r.refAbs += std::fabs(ground);
        for (double p : t.finalParams)
            digest.add(p);
        r.ops += static_cast<uint64_t>(epochs);
        r.modelSeconds += t.totalHours * 3600.0;
        for (std::size_t i = 1; i < ob.epochNs.size(); ++i)
            r.stepMs.push_back(
                static_cast<double>(ob.epochNs[i] - ob.epochNs[i - 1]) * 1e-6);
        for (const eqc::EpochRecord &e : t.epochs)
            r.hours.push_back(e.timeH);
        if (layers) {
            for (std::size_t i = 1; i < ob.resultNs.size(); ++i)
                layers->add("core.result_gap_ms",
                            static_cast<double>(ob.resultNs[i] -
                                                ob.resultNs[i - 1]) *
                                1e-6);
            layers->values["vqa.circuits"] += t.circuitEvaluations;
            layers->values["vqa.epochs"] += epochs;
        }
    }
    r.digest = digest.value();
    return r;
}

// ---------------------------------------------------------------------------
// Serving workloads
// ---------------------------------------------------------------------------

struct Tenant
{
    eqc::serve::JobRequest req;
    std::vector<double> base;
    double nextSubmitH = 0.0;
};

/** An admitted job awaiting its outcome. */
struct PendingJob
{
    std::vector<double> params;
    bool timed = false;
};

/** A timed job's answer, scored against the noiseless energy later. */
struct Answer
{
    std::size_t problem = 0;
    std::vector<double> params;
    double energy = 0.0;
};

/** a - b over the counters the layer metrics read. */
eqc::serve::ServiceCounters
operator-(const eqc::serve::ServiceCounters &a,
          const eqc::serve::ServiceCounters &b)
{
    eqc::serve::ServiceCounters d;
    d.jobsAdmitted = a.jobsAdmitted - b.jobsAdmitted;
    d.jobsRejected = a.jobsRejected - b.jobsRejected;
    d.jobsCoalesced = a.jobsCoalesced - b.jobsCoalesced;
    d.cacheHits = a.cacheHits - b.cacheHits;
    d.workItems = a.workItems - b.workItems;
    d.shardsExecuted = a.shardsExecuted - b.shardsExecuted;
    d.shardsRequeued = a.shardsRequeued - b.shardsRequeued;
    d.circuitsExecuted = a.circuitsExecuted - b.circuitsExecuted;
    d.shotsShed = a.shotsShed - b.shotsShed;
    return d;
}

SegmentResult
runServeSegment(const Workload &w, const Inputs &in, uint64_t seed,
                int threads, Tracer &tracer, uint64_t traceId,
                LayerSamples *layers)
{
    using namespace eqc::serve;
    const ServeSpec &ss = w.s;
    SegmentResult r;
    const int64_t t0 = nowNs();

    ServiceOptions opts;
    opts.seed = kNodeSeed;
    opts.resultCacheTtlH = ss.ttlH;
    if (ss.depth > 0)
        opts.admission.maxQueueDepth = static_cast<std::size_t>(ss.depth);
    std::unique_ptr<ServiceNode> node;
    std::unique_ptr<Router> router;
    eqc::TaskPool onePool(1);
    eqc::TaskPool *pool = threads > 1 ? &eqc::TaskPool::shared() : &onePool;
    std::vector<WorkloadId> ids;
    if (ss.nodes > 0) {
        RouterOptions ro;
        ro.threadedDrain = threads > 1;
        ro.seed = kNodeSeed;
        router = std::make_unique<Router>(ro);
        for (int n = 0; n < ss.nodes; ++n)
            router->addNode(in.devices, opts);
        for (const eqc::VqaProblem &p : in.problems)
            ids.push_back(router->registerWorkload(p.ansatz, p.hamiltonian));
    } else {
        node = std::make_unique<ServiceNode>(in.devices, opts);
        for (const eqc::VqaProblem &p : in.problems)
            ids.push_back(node->registerWorkload(p.ansatz, p.hamiltonian));
    }
    auto counters = [&] {
        return router ? router->totals() : node->counters();
    };
    std::vector<double> bounds;
    for (const eqc::VqaProblem &p : in.problems)
        bounds.push_back(p.hamiltonian.coefficientNorm());

    eqc::Rng brng = eqc::Rng(seed).fork("tenants");
    std::vector<Tenant> fleet(static_cast<std::size_t>(ss.tenants));
    for (int t = 0; t < ss.tenants; ++t) {
        Tenant &tn = fleet[static_cast<std::size_t>(t)];
        const int pair = t / 2;
        const std::size_t k = static_cast<std::size_t>(pair) %
                              in.problems.size();
        tn.req.tenantId = t;
        tn.req.workload = ids[k];
        tn.req.shots = kJobShots;
        tn.req.priority = t % 3;
        tn.base = in.problems[k].initialParams;
        // Pairs share a binding stream; otherwise each tenant owns one.
        const int owner = ss.sharedBindings ? pair : t;
        tn.base[0] += 0.05 * owner;
        if (!ss.sharedBindings || t % 2 == 0)
            tn.base[1 % tn.base.size()] += brng.uniform(-0.1, 0.1);
        else
            tn.base = fleet[static_cast<std::size_t>(t - 1)].base;
        tn.req.params = tn.base;
    }
    if (ss.failMember)
        (router ? router->node(0) : *node).failMemberAt(0, 1.0 / 3600.0);

    std::unordered_map<uint64_t, PendingJob> pending;
    std::vector<Answer> answers;
    int segSpan = -1;
    const bool tracing = layers != nullptr;

    auto runRound = [&](int round, bool timed) {
        const uint64_t rid = traceId * 100000 + static_cast<uint64_t>(round);
        const int64_t a = nowNs();
        const int roundSpan =
            timed ? tracer.begin("serve.round", segSpan, rid) : -1;
        for (Tenant &tn : fleet) {
            tn.req.submitH = tn.nextSubmitH;
            std::vector<double> &p = tn.req.params;
            const std::size_t k1 = 1 % p.size();
            p[k1] = tn.base[k1] +
                    0.02 * (ss.sharedBindings ? round / 2 : round);
            tn.req.deadlineH = ss.deadlineFrac > 0.0 &&
                                       brng.bernoulli(ss.deadlineFrac)
                                   ? tn.req.submitH + kSloH
                                   : 0.0;
            const bool timeSubmit = tracing && timed;
            const int64_t s0 = timeSubmit ? nowNs() : 0;
            const Ticket ticket =
                router ? router->submit(tn.req) : node->submit(tn.req);
            if (timeSubmit) {
                const int64_t s1 = nowNs();
                tracer.record("serve.submit", roundSpan, rid, s0, s1);
                layers->add("serve.submit_us",
                            static_cast<double>(s1 - s0) * 1e-3);
            }
            if (timed)
                ++r.attempted;
            if (ticket.admitted()) {
                pending[ticket.jobId] = {p, timed};
            } else if (ticket.status == AdmitStatus::RejectedBadRequest) {
                fail(r, w.name + " request rejected as malformed");
            } else {
                // Capacity (with a retry-after hint) or a deadline that
                // had passed by submission: back off, resubmit later.
                tn.nextSubmitH += ticket.retryAfterS / 3600.0;
                if (timeSubmit)
                    layers->values["serve.refused"] += 1;
            }
        }
        const int drainSpan =
            timed ? tracer.begin("serve.drain", roundSpan, rid) : -1;
        const int64_t d0 = nowNs();
        const std::vector<JobOutcome> outcomes =
            router ? router->drain() : node->drain(pool);
        const int64_t b = nowNs();
        tracer.end(drainSpan);
        if (timed) {
            r.stepMs.push_back(static_cast<double>(b - a) * 1e-6);
            r.hours.push_back(fleet.front().req.submitH);
            if (tracing)
                layers->add("serve.drain_ms",
                            static_cast<double>(b - d0) * 1e-6);
        }
        for (const JobOutcome &o : outcomes) {
            auto it = pending.find(o.jobId);
            if (it == pending.end()) {
                fail(r, w.name + " outcome for an unknown or already "
                                 "finalized job " +
                            std::to_string(o.jobId));
                continue;
            }
            const std::size_t k = static_cast<std::size_t>(
                std::find(ids.begin(), ids.end(), o.workload) - ids.begin());
            if (k >= ids.size() || !std::isfinite(o.energy) ||
                std::fabs(o.energy) > bounds[k])
                fail(r, w.name + " job " + std::to_string(o.jobId) +
                            " energy outside +-sum|coeff|");
            else if (!o.degraded && o.shotsExecuted != kJobShots)
                fail(r, w.name + " job " + std::to_string(o.jobId) +
                            " ran " + std::to_string(o.shotsExecuted) +
                            " shots without being degraded");
            fleet[static_cast<std::size_t>(o.tenantId)].nextSubmitH =
                o.completeH;
            if (it->second.timed) {
                ++r.ops;
                r.modelSeconds += o.latencyH * 3600.0;
                answers.push_back({k, std::move(it->second.params), o.energy});
                if (tracing) {
                    layers->add("serve.model_latency_s",
                                o.latencyH * 3600.0);
                    if (o.degraded)
                        layers->values["serve.refused"] += 1;
                }
            }
            pending.erase(it);
        }
        if (!pending.empty()) {
            fail(r, w.name + " " + std::to_string(pending.size()) +
                        " admitted jobs never finalized");
            pending.clear();
        }
        tracer.end(roundSpan);
    };

    int round = 0;
    for (; round < ss.warmupRounds; ++round)
        runRound(round, false);

    const eqc::serve::ServiceCounters c0 = counters();
    const std::vector<uint64_t> nodeShots0 =
        router ? router->nodeShotTotals() : std::vector<uint64_t>{};
    const uint64_t forwards0 = router ? router->counters().forwards : 0;
    const int64_t t1 = nowNs();
    const double cpu0 = cpuSeconds();
    tracer.record("bench.setup", -1, traceId, t0, t1);
    segSpan = tracer.begin("bench.segment", -1, traceId);
    for (int end = round + ss.rounds; round < end; ++round)
        runRound(round, true);
    tracer.end(segSpan);
    const int64_t t2 = nowNs();
    r.cpuS = cpuSeconds() - cpu0;
    r.setupS = secondsBetween(t0, t1);
    r.wallS = secondsBetween(t1, t2);

    if (tracing) {
        const eqc::serve::ServiceCounters d = counters() - c0;
        auto &v = layers->values;
        v["serve.admitted"] += static_cast<double>(d.jobsAdmitted);
        v["serve.attempted"] += static_cast<double>(r.attempted);
        v["serve.cache_hits"] += static_cast<double>(d.cacheHits);
        v["serve.coalesced"] += static_cast<double>(d.jobsCoalesced);
        v["serve.circuits"] += static_cast<double>(d.circuitsExecuted);
        v["serve.work_items"] += static_cast<double>(d.workItems);
        v["serve.shards"] += static_cast<double>(d.shardsExecuted);
        v["serve.requeued_shards"] += static_cast<double>(d.shardsRequeued);
        v["serve.shed_shots"] += static_cast<double>(d.shotsShed);
        v["serve.rejected"] += static_cast<double>(d.jobsRejected);
        if (router) {
            v["serve.router_forwards"] +=
                static_cast<double>(router->counters().forwards - forwards0);
            const std::vector<uint64_t> shots = router->nodeShotTotals();
            double mx = 0.0, sum = 0.0;
            for (std::size_t n = 0; n < shots.size(); ++n) {
                const double s = static_cast<double>(shots[n] - nodeShots0[n]);
                mx = std::max(mx, s);
                sum += s;
            }
            if (sum > 0.0)
                layers->add("serve.node_shot_imbalance",
                            mx * static_cast<double>(shots.size()) / sum);
        }
    }
    if (router)
        router->stopServe();

    // Accuracy of what tenants got back, against the noiseless
    // expectation at the same binding (outside the timed part).
    std::unordered_map<uint64_t, double> ideal;
    Digest digest;
    for (const Answer &ans : answers) {
        const eqc::VqaProblem &pr = in.problems[ans.problem];
        Digest key;
        key.add(static_cast<double>(ans.problem));
        for (double x : ans.params)
            key.add(x);
        auto it = ideal.find(key.value());
        if (it == ideal.end())
            it = ideal
                     .emplace(key.value(), eqc::idealEnergy(pr.ansatz,
                                                            pr.hamiltonian,
                                                            ans.params))
                     .first;
        r.errAbs += std::fabs(ans.energy - it->second);
        r.refAbs += std::fabs(it->second);
        digest.add(ans.energy);
    }
    r.digest = digest.value();
    return r;
}

} // namespace

int
threadBudget()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::min(4u, std::max(1u, hw)));
}

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> all = [] {
        std::vector<Workload> v(4);
        v[0].name = "vqe-campaign";
        v[0].c.campaigns = 3;
        v[0].c.epochs = 250;
        v[0].c.errTolPct = 60.0;

        v[1].name = "wide-vqe";
        v[1].c.wide = true;
        v[1].c.campaigns = 1;
        v[1].c.epochs = 7;
        v[1].c.errTolPct = 200.0;

        v[2].name = "serve-mixed";
        v[2].campaign = false;
        v[2].s.tenants = 16;
        v[2].s.warmupRounds = 60;
        v[2].s.rounds = 750;
        v[2].s.depth = 12;
        v[2].s.ttlH = 0.5;
        v[2].s.deadlineFrac = 0.2;
        v[2].s.failMember = true;

        v[3].name = "serve-routed-cold";
        v[3].campaign = false;
        v[3].s.tenants = 64;
        v[3].s.warmupRounds = 4;
        v[3].s.rounds = 36;
        v[3].s.nodes = 4;
        v[3].s.sharedBindings = false;
        return v;
    }();
    return all;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

Inputs
makeInputs(const Workload &w)
{
    // The paper's problem instances and device calibrations are fixed;
    // the seed drives campaign seeds and tenant bindings.
    Inputs in;
    if (w.campaign && w.c.wide) {
        in.problems.push_back(wideProblem());
        for (const char *name : {"ibm_lagos", "ibmq_casablanca", "ibmq_toronto"})
            in.devices.push_back(eqc::deviceByName(name));
    } else {
        in.problems.push_back(eqc::makeHeisenbergVqe());
        if (!w.campaign)
            in.problems.push_back(eqc::makeRingMaxCutQaoa());
        in.devices = eqc::evaluationEnsemble();
    }
    return in;
}

SegmentResult
runSegment(const Workload &w, const Inputs &in, uint64_t segmentSeed,
           int threads, Tracer &tracer, uint64_t traceId,
           LayerSamples *layers)
{
    return w.campaign ? runCampaignSegment(w, in, segmentSeed, threads,
                                           tracer, traceId, layers)
                      : runServeSegment(w, in, segmentSeed, threads, tracer,
                                        traceId, layers);
}

} // namespace e2e
