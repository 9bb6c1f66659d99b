/**
 * @file
 * Serving-layer tests: queue-model wait estimates under drift and
 * their consumption by the shot scheduler, admission control with
 * retry-after backpressure hints, request coalescing, clock-based
 * result-cache expiry, cache-aware shard placement, aggregation
 * modes, QPU fault tolerance with shard requeueing, event-loop
 * determinism across thread counts (including the failure and cache
 * paths), wall-clock (SteadyClock) serving, latency SLOs with
 * deadline-driven graceful shedding, continuous intake (riders
 * joining in-flight items), live membership (joins, leaves, cold
 * starts, supervised restore), and the "service" engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/task_pool.h"
#include "core/runtime.h"
#include "device/catalog.h"
#include "replay/journal.h"
#include "serve/service_node.h"
#include "support/run_helpers.h"
#include "vqa/problem.h"

namespace eqc {
namespace {

using namespace eqc::serve;

std::vector<Device>
serveEnsemble()
{
    return {deviceByName("ibmq_bogota"), deviceByName("ibmq_manila"),
            deviceByName("ibmq_quito"), deviceByName("ibmq_lima")};
}

ServiceOptions
fastOptions(uint64_t seed = 11)
{
    ServiceOptions o;
    o.seed = seed;
    o.scheduler.minShardShots = 32;
    return o;
}

// ---------------------------------------------------------------------------
// Queue-model query API (consumed by the scheduler)
// ---------------------------------------------------------------------------

TEST(QueueModelEstimates, WaitMonotoneInQueueDepth)
{
    // Across devices and across the diurnal cycle (the calibration-
    // drift timescale), deeper queues must never look cheaper.
    for (const Device &dev : evaluationEnsemble()) {
        QueueModel qm(dev.queue);
        for (double tH : {0.0, 3.7, 11.2, 23.9, 48.5}) {
            double prev = -1.0;
            for (int depth = 0; depth < 6; ++depth) {
                double w = qm.expectedWaitS(tH, depth);
                EXPECT_GT(w, prev)
                    << dev.name << " t=" << tH << " depth=" << depth;
                prev = w;
                EXPECT_GE(qm.expectedLatencyS(tH, 50.0, 1024, 3, depth),
                          w);
            }
        }
    }
}

TEST(QueueModelEstimates, ExpectedWaitMatchesSampleMean)
{
    QueueModel qm(deviceByName("ibmq_toronto").queue);
    Rng rng(5);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += qm.sampleWaitS(2.0, rng);
    double mean = sum / n;
    double expected = qm.expectedWaitS(2.0, 0);
    EXPECT_NEAR(mean / expected, 1.0, 0.05);
}

TEST(QueueModelEstimates, SchedulerShedsShotsFromBackloggedMembers)
{
    // Two identical members, one with a deep queue: the scheduler
    // must give the idle one strictly more of the budget.
    QueueModel qm(deviceByName("ibmq_bogota").queue);
    std::vector<MemberView> views(2);
    for (int i = 0; i < 2; ++i) {
        views[i].member = i;
        views[i].pCorrect = 0.8;
        views[i].available = true;
    }
    views[0].expectedLatencyS = qm.expectedLatencyS(0.0, 50, 1024, 3, 0);
    views[1].expectedLatencyS = qm.expectedLatencyS(0.0, 50, 1024, 3, 4);

    ShotScheduler sched;
    std::vector<ShardPlan> plan = sched.plan(views, 8192);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_GT(plan[0].shots, plan[1].shots);
    EXPECT_EQ(plan[0].shots + plan[1].shots, 8192);
}

// ---------------------------------------------------------------------------
// Shot scheduler
// ---------------------------------------------------------------------------

TEST(ShotScheduler, ExactBudgetAndQualityBias)
{
    std::vector<MemberView> views(3);
    for (int i = 0; i < 3; ++i) {
        views[i].member = i;
        views[i].available = true;
        views[i].expectedLatencyS = 60.0;
    }
    views[0].pCorrect = 0.9;
    views[1].pCorrect = 0.6;
    views[2].pCorrect = 0.3;

    ShotScheduler sched;
    std::vector<ShardPlan> plan = sched.plan(views, 1000);
    ASSERT_EQ(plan.size(), 3u);
    int total = 0;
    for (const ShardPlan &p : plan)
        total += p.shots;
    EXPECT_EQ(total, 1000);
    EXPECT_GT(plan[0].shots, plan[1].shots);
    EXPECT_GT(plan[1].shots, plan[2].shots);
}

TEST(ShotScheduler, DropsWorthlessShardsAndUnavailableMembers)
{
    std::vector<MemberView> views(3);
    for (int i = 0; i < 3; ++i) {
        views[i].member = i;
        views[i].available = true;
        views[i].expectedLatencyS = 60.0;
        views[i].pCorrect = 0.5;
    }
    views[1].available = false;       // failed member
    views[2].pCorrect = 0.001;        // share below minShardShots

    ShotSchedulerOptions so;
    so.minShardShots = 64;
    ShotScheduler sched(so);
    std::vector<ShardPlan> plan = sched.plan(views, 1024);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].member, 0);
    EXPECT_EQ(plan[0].shots, 1024);

    // Nobody available: empty plan, not a crash.
    views[0].available = false;
    views[2].available = false;
    EXPECT_TRUE(sched.plan(views, 1024).empty());
}

// ---------------------------------------------------------------------------
// Aggregator
// ---------------------------------------------------------------------------

ShardResult
shard(int member, int shots, double pc, double energy, double var = 0.01)
{
    ShardResult s;
    s.member = member;
    s.shots = shots;
    s.pCorrect = pc;
    s.energy = energy;
    s.variance = var;
    s.completeH = 1.0 + member;
    s.circuitsRun = 3;
    return s;
}

TEST(Aggregator, ModesCombineAsDocumented)
{
    std::vector<ShardResult> shards = {shard(0, 100, 0.9, -1.0),
                                       shard(1, 100, 0.3, -2.0),
                                       shard(2, 200, 0.6, -3.0)};

    Aggregator fid(AggregationMode::FidelityWeighted);
    Aggregator equi(AggregationMode::EquiWeighted);
    Aggregator vote(AggregationMode::MajorityVote);
    for (const ShardResult &s : shards) {
        fid.add(s);
        equi.add(s);
        vote.add(s);
    }
    // Fidelity: weights 90, 30, 120 -> (-90 - 60 - 360) / 240.
    EXPECT_NEAR(fid.energy(), -510.0 / 240.0, 1e-12);
    EXPECT_NEAR(equi.energy(), -2.0, 1e-12);
    EXPECT_NEAR(vote.energy(), -2.0, 1e-12);
    // Shot-weighted pCorrect: (90 + 30 + 120) / 400.
    EXPECT_NEAR(fid.pCorrect(), 0.6, 1e-12);
    EXPECT_EQ(fid.primaryMember(), 2);
    EXPECT_EQ(fid.shotsExecuted(), 400);
    EXPECT_DOUBLE_EQ(fid.completeH(), 3.0);
}

TEST(Aggregator, FailedShardsRenormalizeOverSurvivors)
{
    Aggregator agg(AggregationMode::FidelityWeighted);
    agg.add(shard(0, 100, 0.8, -1.0));
    ShardResult dead = shard(1, 300, 0.9, -5.0);
    dead.failed = true;
    agg.add(dead);
    agg.add(shard(2, 100, 0.8, -3.0));

    EXPECT_EQ(agg.failures(), 1);
    EXPECT_EQ(agg.shardsExecuted(), 2);
    // The dead shard contributes nothing: equal surviving weights.
    EXPECT_NEAR(agg.energy(), -2.0, 1e-12);
    EXPECT_EQ(agg.shotsExecuted(), 200);
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(ServiceNode, AdmissionControlRejectsOverload)
{
    ServiceOptions o = fastOptions();
    o.admission.maxQueueDepth = 3;
    o.admission.maxQueuedPerTenant = 2;
    ServiceNode node(serveEnsemble(), o);
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 512;

    r.tenantId = 1;
    EXPECT_TRUE(node.submit(r).admitted());
    EXPECT_TRUE(node.submit(r).admitted());
    EXPECT_EQ(node.submit(r).status, AdmitStatus::RejectedTenantQuota);

    r.tenantId = 2;
    EXPECT_TRUE(node.submit(r).admitted());
    EXPECT_EQ(node.submit(r).status, AdmitStatus::RejectedQueueFull);

    // Malformed requests never reach the queue.
    r.params.pop_back();
    EXPECT_EQ(node.submit(r).status, AdmitStatus::RejectedBadRequest);
    r.params = p.initialParams;
    r.workload = 99;
    EXPECT_EQ(node.submit(r).status, AdmitStatus::RejectedBadRequest);
    r.workload = wl;
    r.shots = 0;
    EXPECT_EQ(node.submit(r).status, AdmitStatus::RejectedBadRequest);

    EXPECT_EQ(node.counters().jobsAdmitted, 3u);
    EXPECT_EQ(node.counters().jobsRejected, 5u);
    EXPECT_EQ(node.pendingJobs(), 3u);
}

TEST(ServiceNode, RetryAfterHintsMonotoneInBacklog)
{
    // Every capacity rejection carries a backpressure hint derived
    // from the queue models at the backlog observed at rejection time
    // — strictly increasing in queue depth, so tenants naturally
    // spread their resubmissions.
    ServiceOptions o = fastOptions();
    o.admission.maxQueuedPerTenant = 1;
    o.admission.maxQueueDepth = 7;
    ServiceNode node(serveEnsemble(), o);
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 512;

    double prev = 0.0;
    for (int t = 0; t < 6; ++t) {
        r.tenantId = t;
        ASSERT_TRUE(node.submit(r).admitted());
        Ticket rejected = node.submit(r); // tenant at quota
        EXPECT_EQ(rejected.status, AdmitStatus::RejectedTenantQuota);
        EXPECT_GT(rejected.retryAfterS, prev)
            << "hint must grow with backlog (depth " << t + 1 << ")";
        prev = rejected.retryAfterS;
    }

    // Queue full: also a capacity rejection, also hinted — and at a
    // deeper backlog than any quota rejection above.
    r.tenantId = 99;
    ASSERT_TRUE(node.submit(r).admitted()); // fills the queue (depth 7)
    r.tenantId = 100;
    Ticket full = node.submit(r);
    EXPECT_EQ(full.status, AdmitStatus::RejectedQueueFull);
    EXPECT_GT(full.retryAfterS, prev);

    // Malformed requests get no hint: retrying won't help.
    r.shots = 0;
    Ticket bad = node.submit(r);
    EXPECT_EQ(bad.status, AdmitStatus::RejectedBadRequest);
    EXPECT_DOUBLE_EQ(bad.retryAfterS, 0.0);

    EXPECT_EQ(node.counters().rejectedTenantQuota, 6u);
    EXPECT_EQ(node.counters().rejectedQueueFull, 1u);
    EXPECT_EQ(node.counters().rejectedBadRequest, 1u);
    EXPECT_EQ(node.counters().jobsRejected, 8u);
    uint64_t hinted = 0;
    for (const obs::MetricSample &m : node.metrics().snapshot().samples)
        if (m.name == "eqc_service_retry_after_seconds")
            hinted += m.count;
    EXPECT_EQ(hinted, 7u);
}

// ---------------------------------------------------------------------------
// Coalescing
// ---------------------------------------------------------------------------

TEST(ServiceNode, CoalescesIdenticalRequestsAcrossTenants)
{
    ServiceNode node(serveEnsemble(), fastOptions());
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    const int tenants = 6;
    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 4096;
    for (int t = 0; t < tenants; ++t) {
        r.tenantId = t;
        ASSERT_TRUE(node.submit(r).admitted());
    }
    // One tenant asks for something else: a second work item.
    r.tenantId = 0;
    r.params[0] += 0.5;
    ASSERT_TRUE(node.submit(r).admitted());

    std::vector<JobOutcome> out = node.drain();
    ASSERT_EQ(out.size(), static_cast<std::size_t>(tenants + 1));

    // The identical requests executed once: 2 work items total, and
    // the shard count is per-item, not per-tenant.
    EXPECT_EQ(node.counters().workItems, 2u);
    EXPECT_EQ(node.counters().jobsCoalesced,
              static_cast<uint64_t>(tenants - 1));
    EXPECT_LE(node.counters().shardsExecuted,
              2u * node.numMembers());

    // Riders all see the same answer; exactly tenants-1 are flagged.
    int coalesced = 0;
    for (int t = 1; t < tenants; ++t) {
        EXPECT_DOUBLE_EQ(out[t].energy, out[0].energy);
        coalesced += out[t].coalesced ? 1 : 0;
    }
    EXPECT_EQ(coalesced, tenants - 1);
    EXPECT_NE(out[tenants].energy, out[0].energy);
}

TEST(ServiceNode, ResultCacheServesRepeatsWithinTtl)
{
    ServiceOptions o = fastOptions();
    o.resultCacheTtlH = 0.5;
    ServiceNode node(serveEnsemble(), o);
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 2048;
    r.submitH = 0.0;
    ASSERT_TRUE(node.submit(r).admitted());
    std::vector<JobOutcome> first = node.drain();
    ASSERT_EQ(first.size(), 1u);
    ASSERT_FALSE(first[0].fromCache);

    // Same binding shortly after: answered without touching a QPU.
    r.submitH = first[0].completeH + 0.01;
    ASSERT_TRUE(node.submit(r).admitted());
    std::vector<JobOutcome> second = node.drain();
    ASSERT_EQ(second.size(), 1u);
    EXPECT_TRUE(second[0].fromCache);
    EXPECT_DOUBLE_EQ(second[0].energy, first[0].energy);
    EXPECT_DOUBLE_EQ(second[0].latencyH, 0.0);
    EXPECT_EQ(node.counters().workItems, 1u);
    EXPECT_EQ(node.counters().cacheHits, 1u);

    // Past the TTL the answer is stale (drift): a fresh execution.
    r.submitH = first[0].completeH + 1.0;
    ASSERT_TRUE(node.submit(r).admitted());
    std::vector<JobOutcome> third = node.drain();
    EXPECT_FALSE(third[0].fromCache);
    EXPECT_EQ(node.counters().workItems, 2u);
}

TEST(ResultCache, ExpiresOnServingClock)
{
    VirtualClock clock;
    ResultCache cache(&clock, 0.5, 4);
    WorkKey k;
    k.workload = 0;
    k.params = {1.0, 2.0};
    CachedResult r;
    r.shots = 100;
    r.completeH = 0.0;
    cache.store(k, r); // stored at clock hour 0

    EXPECT_NE(cache.lookup(k, 0.2, 100), nullptr);
    EXPECT_EQ(cache.lookup(k, 0.2, 200), nullptr); // bigger budget
    EXPECT_EQ(cache.lookup(k, 0.8, 100), nullptr); // rider-stale

    // The clock moving past the TTL expires the entry even for a
    // rider claiming an old submission hour — no time-traveling the
    // cache under a wall clock.
    clock.advanceTo(1.0);
    EXPECT_EQ(cache.lookup(k, 0.2, 100), nullptr);

    // Expired entries are purged when fresh results store.
    WorkKey k2;
    k2.workload = 1;
    k2.params = {3.0};
    CachedResult r2;
    r2.shots = 50;
    r2.completeH = 1.0;
    cache.store(k2, r2);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_NE(cache.lookup(k2, 1.1, 50), nullptr);
}

// ---------------------------------------------------------------------------
// Cache-aware shard placement
// ---------------------------------------------------------------------------

TEST(ShotScheduler, WarmBoostBiasesPlacement)
{
    std::vector<MemberView> views(2);
    for (int i = 0; i < 2; ++i) {
        views[i].member = i;
        views[i].available = true;
        views[i].pCorrect = 0.8;
        views[i].expectedLatencyS = 60.0;
    }
    views[1].planWarm = true;

    ShotSchedulerOptions so;
    so.warmBoost = 2.0;
    ShotScheduler sched(so);
    std::vector<ShardPlan> plan = sched.plan(views, 3000);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_GT(plan[1].shots, plan[0].shots);
    EXPECT_EQ(plan[0].shots + plan[1].shots, 3000);

    // warmBoost 1.0 disables the bias; below 1 clamps (a warm cache
    // never argues for less work).
    so.warmBoost = 1.0;
    plan = ShotScheduler(so).plan(views, 3000);
    EXPECT_EQ(plan[0].shots, plan[1].shots);
    so.warmBoost = 0.25;
    plan = ShotScheduler(so).plan(views, 3000);
    EXPECT_EQ(plan[0].shots, plan[1].shots);
}

TEST(ServiceNode, CacheAwarePlacementRoutesToWarmMembers)
{
    // Two nodes replay the same submission sequence; one places
    // cache-aware (strong warm boost), the control doesn't. Member 0
    // is down for the first drain, so only members 1..3 compile plans
    // — when it comes back for the re-request, the warm-boosted node
    // must route more of the budget to the warm members than the
    // control does.
    auto run = [&](double warmBoost) {
        ServiceOptions o = fastOptions(33);
        o.scheduler.warmBoost = warmBoost;
        auto node = std::make_unique<ServiceNode>(serveEnsemble(), o);
        VqaProblem p = makeHeisenbergVqe();
        WorkloadId wl = node->registerWorkload(p.ansatz, p.hamiltonian);

        JobRequest r;
        r.workload = wl;
        r.params = p.initialParams;
        r.shots = 8192;
        node->failMemberAt(0, 0.0);
        EXPECT_TRUE(node->submit(r).admitted());
        std::vector<JobOutcome> first = node->drain();
        EXPECT_EQ(first.size(), 1u);
        const uint64_t coldAfterFirst = node->memberShotCounts()[0];
        EXPECT_EQ(coldAfterFirst, 0u); // member 0 never ran

        node->restoreMember(0);
        r.submitH = first[0].completeH;
        EXPECT_TRUE(node->submit(r).admitted());
        node->drain();
        return node->memberShotCounts()[0]; // cold member's share
    };

    const uint64_t coldShareControl = run(1.0);
    const uint64_t coldShareWarm = run(8.0);
    EXPECT_GT(coldShareControl, 0u);
    EXPECT_LT(coldShareWarm, coldShareControl)
        << "warm boost must shift budget away from the cold member";
}

// ---------------------------------------------------------------------------
// Fault tolerance
// ---------------------------------------------------------------------------

TEST(ServiceNode, KilledMemberMidRunRequeuesOntoSurvivors)
{
    ServiceNode node(serveEnsemble(), fastOptions());
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    // Find the member the scheduler trusts most, then kill it a few
    // virtual seconds in — after planning, before any completion.
    const int budget = 8192;
    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = budget;
    ASSERT_TRUE(node.submit(r).admitted());
    node.failMemberAt(0, 2.0 / 3600.0);

    std::vector<JobOutcome> out = node.drain();
    ASSERT_EQ(out.size(), 1u);
    const JobOutcome &o = out[0];

    // The job still completes with its FULL shot budget, served
    // entirely by survivors.
    EXPECT_EQ(o.shotsExecuted, budget);
    EXPECT_FALSE(o.degraded);
    EXPECT_GT(o.requeues, 0);
    EXPECT_GT(node.counters().shardsRequeued, 0u);
    EXPECT_TRUE(std::isfinite(o.energy));
    EXPECT_NE(o.primaryMember, 0);
    EXPECT_GT(o.completeH, o.submitH);

    // A second job planned after the failure never touches member 0.
    r.submitH = o.completeH;
    ASSERT_TRUE(node.submit(r).admitted());
    std::vector<JobOutcome> again = node.drain();
    EXPECT_EQ(again[0].shotsExecuted, budget);
    EXPECT_EQ(again[0].requeues, 0);
    EXPECT_NE(again[0].primaryMember, 0);
}

TEST(ServiceNode, AllMembersDeadStillReturnsOutcomes)
{
    ServiceNode node(serveEnsemble(), fastOptions());
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);
    for (std::size_t m = 0; m < node.numMembers(); ++m)
        node.failMemberAt(m, 0.0);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 1024;
    r.submitH = 1.0;
    ASSERT_TRUE(node.submit(r).admitted());
    std::vector<JobOutcome> out = node.drain();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].shotsExecuted, 0);
    EXPECT_EQ(out[0].shardsExecuted, 0);
    EXPECT_TRUE(out[0].degraded);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts
// ---------------------------------------------------------------------------

std::vector<JobOutcome>
runWorkload(int threads, int tenants)
{
    ServiceNode node(serveEnsemble(), fastOptions(77));
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);
    JobRequest r;
    r.workload = wl;
    r.shots = 2048;
    for (int t = 0; t < tenants; ++t) {
        r.tenantId = t;
        r.params = p.initialParams;
        r.params[0] += 0.1 * t; // distinct bindings: no coalescing
        r.priority = t % 2;
        r.submitH = 0.01 * t;
        EXPECT_TRUE(node.submit(r).admitted());
    }
    TaskPool pool(threads);
    return node.drain(&pool);
}

TEST(ServiceNode, DrainBitIdenticalForAnyThreadCount)
{
    std::vector<JobOutcome> t1 = runWorkload(1, 5);
    std::vector<JobOutcome> t2 = runWorkload(2, 5);
    std::vector<JobOutcome> t4 = runWorkload(4, 5);
    ASSERT_EQ(t1.size(), 5u);
    ASSERT_EQ(t2.size(), t1.size());
    ASSERT_EQ(t4.size(), t1.size());
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].jobId, t2[i].jobId);
        EXPECT_DOUBLE_EQ(t1[i].energy, t2[i].energy);
        EXPECT_DOUBLE_EQ(t1[i].energy, t4[i].energy);
        EXPECT_DOUBLE_EQ(t1[i].variance, t4[i].variance);
        EXPECT_DOUBLE_EQ(t1[i].completeH, t2[i].completeH);
        EXPECT_DOUBLE_EQ(t1[i].completeH, t4[i].completeH);
        EXPECT_EQ(t1[i].shardsExecuted, t4[i].shardsExecuted);
        EXPECT_EQ(t1[i].shotsExecuted, t4[i].shotsExecuted);
    }
}

std::vector<JobOutcome>
runEventLoopWorkload(int threads)
{
    // The full event-loop surface in one workload: coalescing pairs,
    // distinct bindings, a mid-run member failure (requeue events), a
    // result cache with repeats (cache-hit events) and a second drain.
    ServiceOptions o = fastOptions(101);
    o.resultCacheTtlH = 0.5;
    ServiceNode node(serveEnsemble(), o);
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    JobRequest r;
    r.workload = wl;
    r.shots = 4096;
    for (int t = 0; t < 6; ++t) {
        r.tenantId = t;
        r.params = p.initialParams;
        r.params[0] += 0.1 * (t / 2); // pairs coalesce
        r.priority = t % 2;
        r.submitH = 0.01 * t;
        EXPECT_TRUE(node.submit(r).admitted());
    }
    node.failMemberAt(1, 30.0 / 3600.0);

    TaskPool pool(threads);
    std::vector<JobOutcome> out = node.drain(&pool);

    // Second drain: one binding repeats (cache hit), one is new.
    r.tenantId = 0;
    r.params = p.initialParams;
    r.submitH = out.back().completeH + 0.01;
    EXPECT_TRUE(node.submit(r).admitted());
    r.tenantId = 1;
    r.params[0] += 7.5;
    EXPECT_TRUE(node.submit(r).admitted());
    std::vector<JobOutcome> again = node.drain(&pool);
    out.insert(out.end(), again.begin(), again.end());
    return out;
}

TEST(ServiceNode, EventLoopBitIdenticalAcrossThreadsWithFailures)
{
    std::vector<JobOutcome> t1 = runEventLoopWorkload(1);
    std::vector<JobOutcome> t2 = runEventLoopWorkload(2);
    std::vector<JobOutcome> t4 = runEventLoopWorkload(4);
    ASSERT_EQ(t1.size(), 8u);
    ASSERT_EQ(t2.size(), t1.size());
    ASSERT_EQ(t4.size(), t1.size());
    bool sawRequeue = false, sawCacheHit = false, sawCoalesced = false;
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].jobId, t2[i].jobId);
        EXPECT_EQ(t1[i].jobId, t4[i].jobId);
        EXPECT_DOUBLE_EQ(t1[i].energy, t2[i].energy);
        EXPECT_DOUBLE_EQ(t1[i].energy, t4[i].energy);
        EXPECT_DOUBLE_EQ(t1[i].variance, t4[i].variance);
        EXPECT_DOUBLE_EQ(t1[i].completeH, t2[i].completeH);
        EXPECT_DOUBLE_EQ(t1[i].completeH, t4[i].completeH);
        EXPECT_EQ(t1[i].shotsExecuted, t4[i].shotsExecuted);
        EXPECT_EQ(t1[i].shardsExecuted, t4[i].shardsExecuted);
        EXPECT_EQ(t1[i].requeues, t4[i].requeues);
        EXPECT_EQ(t1[i].fromCache, t4[i].fromCache);
        sawRequeue = sawRequeue || t1[i].requeues > 0;
        sawCacheHit = sawCacheHit || t1[i].fromCache;
        sawCoalesced = sawCoalesced || t1[i].coalesced;
    }
    // The workload must actually exercise every event path.
    EXPECT_TRUE(sawRequeue);
    EXPECT_TRUE(sawCacheHit);
    EXPECT_TRUE(sawCoalesced);
}

// ---------------------------------------------------------------------------
// Wall-clock serving (SteadyClock)
// ---------------------------------------------------------------------------

TEST(ServiceNode, SteadyClockServesSameWorkloadEndToEnd)
{
    // A model hour takes 2 ms of wall time: the same serving code
    // runs in real time, every admitted job still completes with its
    // full budget, and coalescing still collapses identical work.
    SteadyClock clock(0.002);
    ServiceOptions o = fastOptions();
    ServiceNode node(serveEnsemble(), o, &clock);
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 2048;
    for (int t = 0; t < 3; ++t) {
        r.tenantId = t;
        if (t == 2)
            r.params[0] += 0.5; // one distinct binding
        ASSERT_TRUE(node.submit(r).admitted());
    }
    std::vector<JobOutcome> out = node.drain();
    ASSERT_EQ(out.size(), 3u);
    for (const JobOutcome &o2 : out) {
        EXPECT_EQ(o2.shotsExecuted, 2048);
        EXPECT_FALSE(o2.degraded);
        EXPECT_TRUE(std::isfinite(o2.energy));
        EXPECT_GE(o2.completeH, o2.submitH);
    }
    EXPECT_DOUBLE_EQ(out[0].energy, out[1].energy); // coalesced pair
    EXPECT_EQ(node.counters().workItems, 2u);
    EXPECT_FALSE(node.clock().isVirtual());
    // The loop really ran on the wall clock: model time advanced at
    // least to the latest completion.
    EXPECT_GE(node.loop().now(),
              std::max(out[0].completeH, out[2].completeH));
}

// ---------------------------------------------------------------------------
// Latency SLOs: deadlines and graceful shedding
// ---------------------------------------------------------------------------

TEST(ServiceNode, DeadlineRejectsInfeasibleAtAdmission)
{
    ServiceNode node(serveEnsemble(), fastOptions());
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 512;
    r.submitH = 1.0;
    r.deadlineH = 0.5; // already blown at submission
    EXPECT_EQ(node.submit(r).status, AdmitStatus::RejectedDeadline);
    r.deadlineH = 1.0; // zero-width window: equally infeasible
    EXPECT_EQ(node.submit(r).status, AdmitStatus::RejectedDeadline);
    EXPECT_EQ(node.counters().rejectedDeadline, 2u);

    r.deadlineH = 2.0;
    EXPECT_TRUE(node.submit(r).admitted());
    std::vector<JobOutcome> out = node.drain();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_FALSE(out[0].shed);
    EXPECT_DOUBLE_EQ(out[0].deadlineH, 2.0);
    EXPECT_EQ(node.counters().deadlinesMet, 1u);
}

TEST(ServiceNode, GenerousDeadlineDoesNotPerturbResults)
{
    // An SLO the job easily makes must be invisible to the numbers:
    // same seed with and without a deadline yields bit-identical
    // outcomes, and the deadline resolves to "met", never shed.
    auto run = [](double deadlineH) {
        ServiceNode node(serveEnsemble(), fastOptions(44));
        VqaProblem p = makeHeisenbergVqe();
        WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);
        JobRequest r;
        r.workload = wl;
        r.params = p.initialParams;
        r.shots = 2048;
        r.deadlineH = deadlineH;
        EXPECT_TRUE(node.submit(r).admitted());
        std::vector<JobOutcome> out = node.drain();
        EXPECT_EQ(out.size(), 1u);
        return out[0];
    };
    JobOutcome bare = run(0.0);
    JobOutcome slo = run(100.0);
    EXPECT_DOUBLE_EQ(slo.energy, bare.energy);
    EXPECT_DOUBLE_EQ(slo.variance, bare.variance);
    EXPECT_DOUBLE_EQ(slo.completeH, bare.completeH);
    EXPECT_EQ(slo.shotsExecuted, bare.shotsExecuted);
    EXPECT_FALSE(slo.shed);
    EXPECT_EQ(slo.shedShots, 0);
    EXPECT_LE(slo.completeH, slo.deadlineH);
}

JobOutcome
runShedWorkload(int threads, double deadlineH)
{
    ServiceNode node(serveEnsemble(), fastOptions(55));
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);
    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 8192;
    r.deadlineH = deadlineH;
    EXPECT_TRUE(node.submit(r).admitted());
    TaskPool pool(threads);
    std::vector<JobOutcome> out = node.drain(&pool);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_EQ(node.counters().deadlineSheds, 1u);
    EXPECT_EQ(node.counters().shotsShed,
              static_cast<uint64_t>(out[0].shedShots));
    EXPECT_EQ(node.counters().deadlinesMet, 0u);
    return out[0];
}

TEST(ServiceNode, DeadlineMidFlightShedsGracefullyAndDeterministically)
{
    // A deadline tight enough to beat the slowest shards: the job
    // finalizes AT the deadline from whatever completed, flagged
    // shed+degraded, with exact shot accounting — identically for any
    // worker thread count.
    const double deadlineH = 0.02;
    JobOutcome t1 = runShedWorkload(1, deadlineH);
    EXPECT_TRUE(t1.shed);
    EXPECT_TRUE(t1.degraded);
    EXPECT_GT(t1.shedShots, 0);
    EXPECT_GT(t1.shotsExecuted, 0) << "deadline should land between "
                                      "shard completions, not before "
                                      "the first";
    EXPECT_EQ(t1.shotsExecuted + t1.shedShots, 8192);
    EXPECT_TRUE(std::isfinite(t1.energy));
    EXPECT_DOUBLE_EQ(t1.completeH, deadlineH);

    JobOutcome t2 = runShedWorkload(2, deadlineH);
    JobOutcome t4 = runShedWorkload(4, deadlineH);
    for (const JobOutcome *o : {&t2, &t4}) {
        EXPECT_DOUBLE_EQ(o->energy, t1.energy);
        EXPECT_DOUBLE_EQ(o->variance, t1.variance);
        EXPECT_DOUBLE_EQ(o->completeH, t1.completeH);
        EXPECT_EQ(o->shotsExecuted, t1.shotsExecuted);
        EXPECT_EQ(o->shedShots, t1.shedShots);
        EXPECT_EQ(o->shed, t1.shed);
    }
}

TEST(ServiceNode, DeadlineBeforeDispatchShedsWholeBudget)
{
    // Every member down and park-retry enabled: the item waits parked
    // with nothing dispatched, so its deadline sheds the entire shot
    // budget and completes with the empty-aggregate fallback.
    ServiceOptions o = fastOptions();
    o.retryUnplannableH = 0.05;
    ServiceNode node(serveEnsemble(), o);
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);
    for (std::size_t m = 0; m < node.numMembers(); ++m)
        node.failMemberAt(m, 0.0);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 1024;
    r.deadlineH = 0.03; // beats the first park retry at 0.05
    ASSERT_TRUE(node.submit(r).admitted());
    std::vector<JobOutcome> out = node.drain();
    ASSERT_EQ(out.size(), 1u);
    EXPECT_TRUE(out[0].shed);
    EXPECT_TRUE(out[0].degraded);
    EXPECT_EQ(out[0].shedShots, 1024);
    EXPECT_EQ(out[0].shotsExecuted, 0);
    EXPECT_EQ(out[0].shardsExecuted, 0);
    EXPECT_DOUBLE_EQ(out[0].completeH, 0.03);
    EXPECT_EQ(node.counters().deadlineSheds, 1u);
    EXPECT_EQ(node.counters().shotsShed, 1024u);
}

// ---------------------------------------------------------------------------
// Continuous intake: riders joining in-flight items
// ---------------------------------------------------------------------------

TEST(ServiceNode, RiderJoinsInFlightItemBeforeCutoff)
{
    ServiceNode node(serveEnsemble(), fastOptions());
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 4096;
    r.tenantId = 0;
    ASSERT_TRUE(node.submit(r).admitted());

    // Advance the loop just past intake: shards are dispatched, none
    // has completed. This is the streaming window a batch drain never
    // exposes.
    node.runUntil(1e-4);
    EXPECT_EQ(node.counters().workItems, 1u);

    // A second tenant asks for the same binding with a budget no
    // larger than what is executing: it rides the in-flight item.
    r.tenantId = 1;
    r.shots = 2048;
    r.submitH = 1e-4;
    ASSERT_TRUE(node.submit(r).admitted());

    // A third asks for MORE shots than the dispatched budget: past
    // the cutoff, so it must get its own work item.
    r.tenantId = 2;
    r.shots = 8192;
    ASSERT_TRUE(node.submit(r).admitted());

    std::vector<JobOutcome> out = node.drain();
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(node.counters().ridersJoined, 1u);
    EXPECT_EQ(node.counters().workItems, 2u);

    // The rider shares the lead's answer bit-for-bit and reports the
    // executed (lead) budget; the oversized request ran separately.
    EXPECT_DOUBLE_EQ(out[1].energy, out[0].energy);
    EXPECT_DOUBLE_EQ(out[1].variance, out[0].variance);
    EXPECT_DOUBLE_EQ(out[1].completeH, out[0].completeH);
    EXPECT_EQ(out[0].shotsExecuted, 4096);
    EXPECT_EQ(out[1].shotsExecuted, 4096);
    EXPECT_TRUE(out[1].coalesced);
    EXPECT_EQ(out[2].shotsExecuted, 8192);
    EXPECT_NE(out[2].energy, out[0].energy);
}

// ---------------------------------------------------------------------------
// Live membership: joins, leaves, supervised restore
// ---------------------------------------------------------------------------

TEST(ServiceNode, LiveJoinAndLeaveReshapeTheEnsemble)
{
    ServiceNode node(serveEnsemble(), fastOptions());
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    // Member 0 leaves before any dispatch; a new device joins live.
    node.removeMember(0, 0.0);
    const std::size_t joined =
        node.addMember(deviceByName("ibmq_santiago"), 0.0);
    EXPECT_EQ(joined, 4u);
    EXPECT_EQ(node.numMembers(), 5u);
    EXPECT_EQ(node.counters().memberJoins, 1u);
    EXPECT_EQ(node.counters().memberLeaves, 1u);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 8192;
    ASSERT_TRUE(node.submit(r).admitted());
    // A second round well past the cold-start ramp: the joiner pulls
    // full-weight work.
    JobRequest r2 = r;
    r2.params[0] += 0.7;
    r2.submitH = 1.0;
    ASSERT_TRUE(node.submit(r2).admitted());

    std::vector<JobOutcome> out = node.drain();
    ASSERT_EQ(out.size(), 2u);
    for (const JobOutcome &o : out) {
        EXPECT_EQ(o.shotsExecuted, 8192);
        EXPECT_FALSE(o.degraded);
    }
    // The departed member never served; the joiner did.
    EXPECT_EQ(node.memberShotCounts()[0], 0u);
    EXPECT_GT(node.memberShotCounts()[joined], 0u);
}

TEST(ServiceNode, ColdStartRampPenalizesFreshJoiners)
{
    // Same submission against two nodes: in one the extra member has
    // been around forever, in the other it joined at the submission
    // hour. The cold joiner must receive strictly fewer shots.
    auto joinerShare = [](double joinH, double submitH) {
        ServiceOptions o = fastOptions(66);
        o.scheduler.coldStartPenalty = 0.2;
        o.scheduler.coldStartH = 0.5;
        ServiceNode node(serveEnsemble(), o);
        VqaProblem p = makeHeisenbergVqe();
        WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);
        const std::size_t j =
            node.addMember(deviceByName("ibmq_santiago"), joinH);
        JobRequest r;
        r.workload = wl;
        r.params = p.initialParams;
        r.shots = 8192;
        r.submitH = submitH;
        EXPECT_TRUE(node.submit(r).admitted());
        node.drain();
        return node.memberShotCounts()[j];
    };
    // Joined 10 h before the work vs joining right at it.
    const uint64_t warm = joinerShare(0.0, 10.0);
    const uint64_t cold = joinerShare(10.0, 10.0);
    EXPECT_GT(warm, 0u);
    EXPECT_LT(cold, warm);
}

TEST(ServiceNode, SupervisedRestoreBacksOffExponentially)
{
    ServiceOptions o = fastOptions();
    o.superviseBaseBackoffH = 0.01;
    ServiceNode node(serveEnsemble(), o);
    replay::EventJournal journal;
    node.setJournalSink(&journal);
    VqaProblem p = makeHeisenbergVqe();
    WorkloadId wl = node.registerWorkload(p.ansatz, p.hamiltonian);

    JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 512;

    // First failure: the supervisor restores after the base backoff.
    node.failMemberAt(0, 0.0);
    ASSERT_TRUE(node.submit(r).admitted());
    node.drain();
    EXPECT_EQ(node.counters().supervisedRestores, 1u);

    // Flapping: the second failure earns a doubled cool-down.
    const double fail2H = node.loop().now();
    node.failMemberAt(0, fail2H);
    r.submitH = fail2H;
    r.params[0] += 0.3;
    ASSERT_TRUE(node.submit(r).admitted());
    node.drain();
    EXPECT_EQ(node.counters().supervisedRestores, 2u);

    std::vector<double> restoreH;
    for (const replay::EventRecord &rec : journal.records())
        if (rec.kind == replay::EventKind::MemberRestore &&
            rec.autoRestore)
            restoreH.push_back(rec.tH);
    ASSERT_EQ(restoreH.size(), 2u);
    EXPECT_DOUBLE_EQ(restoreH[0], 0.01);
    EXPECT_DOUBLE_EQ(restoreH[1], fail2H + 0.02);
}

// ---------------------------------------------------------------------------
// The "service" engine
// ---------------------------------------------------------------------------

TEST(ServiceEngine, RegisteredAndTrainsDeterministically)
{
    std::vector<std::string> names = Runtime::engineNames();
    EXPECT_EQ(std::count(names.begin(), names.end(), "service"), 1);

    VqaProblem p = makeHeisenbergVqe();
    EqcOptions opts;
    opts.master.epochs = 3;
    opts.master.weightBounds = {0.1, 1.0};
    opts.seed = 21;
    opts.engine = "service";
    opts.recordIdealEnergy = false;

    Runtime rt;
    EqcTrace a = rt.submit(p, serveEnsemble(), opts).take();
    ASSERT_EQ(a.epochs.size(), 3u);
    EXPECT_EQ(a.label, "EQC-service");
    for (const EpochRecord &rec : a.epochs)
        EXPECT_TRUE(std::isfinite(rec.energyDevice));
    EXPECT_FALSE(a.jobsPerDevice.empty());

    // Synchronous serving: every gradient is fresh.
    EXPECT_EQ(a.staleness.max(), 0.0);

    // Bit-identical across engine thread counts.
    for (int threads : {1, 2, 4}) {
        EqcOptions o2 = opts;
        o2.engineThreads = threads;
        EqcTrace b = rt.submit(p, serveEnsemble(), o2).take();
        ASSERT_EQ(b.epochs.size(), a.epochs.size());
        for (std::size_t i = 0; i < a.epochs.size(); ++i) {
            EXPECT_DOUBLE_EQ(b.epochs[i].energyDevice,
                             a.epochs[i].energyDevice);
            EXPECT_DOUBLE_EQ(b.epochs[i].timeH, a.epochs[i].timeH);
        }
        EXPECT_EQ(b.finalParams, a.finalParams);
    }
}

} // namespace
} // namespace eqc
