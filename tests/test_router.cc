/**
 * @file
 * Router-tier tests: consistent-hash ring keyspace balance and
 * minimal remapping under membership change, key-affine routing with
 * disjoint per-node job-id spans, overflow forwarding on capacity
 * backpressure (least-loaded successor first, never on final
 * rejections), NodeLoad snapshots, bit-determinism of the threaded
 * node drain against the inline node-order drain (full drains and
 * finite-horizon runUntil steps, and across shard-pool widths), and
 * routed journals that audit clean and replay bit-identically.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/task_pool.h"
#include "device/catalog.h"
#include "replay/chaos.h"
#include "replay/replayer.h"
#include "serve/router.h"
#include "vqa/problem.h"

namespace eqc {
namespace {

using namespace eqc::serve;

// ---------------------------------------------------------------------------
// Hash ring properties
// ---------------------------------------------------------------------------

constexpr int kVnodes = 64;
constexpr std::size_t kKeys = 10000;

std::vector<uint64_t>
sampleKeys()
{
    std::vector<uint64_t> keys(kKeys);
    for (std::size_t i = 0; i < kKeys; ++i)
        keys[i] = splitmix64(0x5EEDull + i);
    return keys;
}

TEST(HashRing, KeyspaceBalancedAcrossMemberCounts)
{
    const std::vector<uint64_t> keys = sampleKeys();
    for (int n = 2; n <= 16; ++n) {
        HashRing ring;
        for (int node = 0; node < n; ++node)
            ring.addNode(node, kVnodes);
        std::map<int, std::size_t> share;
        for (uint64_t k : keys)
            ++share[ring.owner(k)];
        const double mean =
            static_cast<double>(kKeys) / static_cast<double>(n);
        ASSERT_EQ(share.size(), static_cast<std::size_t>(n))
            << n << " nodes but only " << share.size()
            << " own any keyspace";
        for (const auto &kv : share) {
            const double rel =
                static_cast<double>(kv.second) / mean;
            // 64 virtual nodes keep every member within a modest
            // factor of the fair share at any fleet size.
            EXPECT_GT(rel, 0.45) << "node " << kv.first << " of "
                                 << n << " owns only " << kv.second
                                 << " of " << kKeys << " keys";
            EXPECT_LT(rel, 1.80) << "node " << kv.first << " of "
                                 << n << " owns " << kv.second
                                 << " of " << kKeys << " keys";
        }
    }
}

TEST(HashRing, AddingANodeMovesOnlyItsShare)
{
    const std::vector<uint64_t> keys = sampleKeys();
    for (int n : {2, 4, 8, 15}) {
        HashRing ring;
        for (int node = 0; node < n; ++node)
            ring.addNode(node, kVnodes);
        std::vector<int> before(kKeys);
        for (std::size_t i = 0; i < kKeys; ++i)
            before[i] = ring.owner(keys[i]);

        ring.addNode(n, kVnodes);
        std::size_t moved = 0;
        for (std::size_t i = 0; i < kKeys; ++i) {
            const int now = ring.owner(keys[i]);
            if (now != before[i]) {
                ++moved;
                // Consistent hashing: a key only ever moves TO the
                // new node, never between the old ones.
                EXPECT_EQ(now, n)
                    << "key " << i << " moved from node "
                    << before[i] << " to old node " << now;
            }
        }
        const double expect =
            static_cast<double>(kKeys) / static_cast<double>(n + 1);
        EXPECT_GT(static_cast<double>(moved), 0.3 * expect)
            << "adding node " << n << " moved almost nothing";
        EXPECT_LT(static_cast<double>(moved), 2.0 * expect)
            << "adding node " << n << " moved " << moved
            << " of " << kKeys << " keys (~1/" << (n + 1)
            << " expected)";

        // Removing it again restores the original map exactly.
        ring.removeNode(n);
        for (std::size_t i = 0; i < kKeys; ++i)
            ASSERT_EQ(ring.owner(keys[i]), before[i]);
    }
}

TEST(HashRing, SuccessorsAreDistinctAndExcludeOwner)
{
    HashRing ring;
    for (int node = 0; node < 5; ++node)
        ring.addNode(node, kVnodes);
    for (uint64_t k : sampleKeys()) {
        const int home = ring.owner(k);
        const std::vector<int> succ = ring.successors(k, 3);
        ASSERT_EQ(succ.size(), 3u);
        std::vector<int> all = succ;
        all.push_back(home);
        std::sort(all.begin(), all.end());
        ASSERT_EQ(std::unique(all.begin(), all.end()), all.end())
            << "successor list repeats a node (or the owner)";
    }
}

// ---------------------------------------------------------------------------
// Router fixtures
// ---------------------------------------------------------------------------

std::vector<Device>
smallEnsemble(int shift)
{
    std::vector<Device> catalog = evaluationEnsemble();
    return {catalog[static_cast<std::size_t>(shift) % catalog.size()],
            catalog[static_cast<std::size_t>(shift + 1) %
                    catalog.size()]};
}

ServiceOptions
nodeOptions(uint64_t seed = 11)
{
    ServiceOptions o;
    o.seed = seed;
    o.scheduler.minShardShots = 32;
    return o;
}

/** Fleet of @p n two-member nodes with one registered workload. */
WorkloadId
buildFleet(Router &router, int n, const VqaProblem &prob,
           ServiceOptions base = nodeOptions())
{
    for (int i = 0; i < n; ++i)
        router.addNode(smallEnsemble(i), base);
    return router.registerWorkload(prob.ansatz, prob.hamiltonian);
}

JobRequest
requestFor(WorkloadId wl, const VqaProblem &prob, int tenant,
           double bindShift, int shots = 128)
{
    JobRequest req;
    req.tenantId = tenant;
    req.workload = wl;
    req.params = prob.initialParams;
    req.params[0] += bindShift;
    req.shots = shots;
    return req;
}

// ---------------------------------------------------------------------------
// Routing + id spans
// ---------------------------------------------------------------------------

TEST(Router, RoutesKeysToTheirHomeNodeWithSpannedIds)
{
    VqaProblem prob = makeHeisenbergVqe(7);
    Router router;
    const WorkloadId wl = buildFleet(router, 4, prob);

    std::map<int, int> homes;
    for (int b = 0; b < 12; ++b) {
        JobRequest req = requestFor(wl, prob, b % 3, 0.07 * b);
        const int home = router.homeNode(req);
        Ticket t = router.submit(req);
        ASSERT_TRUE(t.admitted());
        // The admitting node is encoded in the id span: node i hands
        // out ids starting at i * 2^32 + 1.
        EXPECT_EQ(static_cast<int>(t.jobId >> 32), home);
        ++homes[home];

        // Same binding, different tenant: same home (key affinity).
        JobRequest again = requestFor(wl, prob, 5, 0.07 * b);
        EXPECT_EQ(router.homeNode(again), home);
    }
    EXPECT_GT(homes.size(), 1u)
        << "12 distinct bindings all hashed to one node";

    std::vector<JobOutcome> out = router.drain();
    EXPECT_EQ(out.size(), 12u);
    EXPECT_EQ(router.counters().routed, 12u);
    EXPECT_EQ(router.counters().forwards, 0u);
}

TEST(Router, ForwardsOverflowToSuccessorsAndCountsIt)
{
    VqaProblem prob = makeHeisenbergVqe(7);
    ServiceOptions tight = nodeOptions();
    tight.admission.maxQueueDepth = 2;
    tight.admission.maxQueuedPerTenant = 64;
    Router router;
    const WorkloadId wl = buildFleet(router, 4, prob, tight);

    // One binding hammered: 2 fill the home queue, the rest must
    // overflow along the ring (2 hops => 2 more nodes of depth 2),
    // and past that the fleet is saturated.
    JobRequest req = requestFor(wl, prob, 0, 0.11);
    const int home = router.homeNode(req);
    std::map<int, int> admittedOn;
    int rejected = 0;
    for (int i = 0; i < 9; ++i) {
        Ticket t = router.submit(req);
        if (t.admitted())
            ++admittedOn[static_cast<int>(t.jobId >> 32)];
        else {
            ++rejected;
            EXPECT_GT(t.retryAfterS, 0.0)
                << "fleet-wide rejection lost its backpressure hint";
        }
    }
    EXPECT_EQ(admittedOn.size(), 3u) // home + both forward hops
        << "overflow did not spread across the ring";
    EXPECT_EQ(admittedOn[home], 2);
    EXPECT_EQ(rejected, 3);
    EXPECT_GT(router.counters().forwards, 0u);
    EXPECT_EQ(router.counters().forwardAdmits, 4u);
    EXPECT_EQ(router.counters().rejectedEverywhere, 3u);

    // A bad request is final — no forwarding on non-capacity
    // rejections.
    const uint64_t forwardsBefore = router.counters().forwards;
    JobRequest bad = req;
    bad.workload = 99;
    Ticket t = router.submit(bad);
    EXPECT_EQ(t.status, AdmitStatus::RejectedBadRequest);
    EXPECT_EQ(router.counters().forwards, forwardsBefore);

    router.drain();
}

TEST(Router, ForwardPrefersTheLeastLoadedSuccessor)
{
    VqaProblem prob = makeHeisenbergVqe(7);
    ServiceOptions tight = nodeOptions();
    tight.admission.maxQueueDepth = 2;
    Router router;
    const WorkloadId wl = buildFleet(router, 4, prob, tight);

    JobRequest req = requestFor(wl, prob, 0, 0.23);
    const uint64_t kh = Router::keyHash(req.workload, req.params);
    const int home = router.ring().owner(kh);
    const std::vector<int> succ = router.ring().successors(kh, 2);
    ASSERT_EQ(succ.size(), 2u);

    // Pile queued work onto the FIRST ring successor so its
    // NodeLoad::score() dominates; the router must then overflow to
    // the second successor first.
    JobRequest filler = requestFor(wl, prob, 3, 0.71);
    router.node(static_cast<std::size_t>(succ[0])).submit(filler);
    filler.params[0] += 0.013;
    router.node(static_cast<std::size_t>(succ[0])).submit(filler);

    Ticket a = router.submit(req);
    Ticket b = router.submit(req);
    ASSERT_TRUE(a.admitted());
    ASSERT_TRUE(b.admitted());
    EXPECT_EQ(static_cast<int>(a.jobId >> 32), home);

    Ticket c = router.submit(req); // home is full now
    ASSERT_TRUE(c.admitted());
    EXPECT_EQ(static_cast<int>(c.jobId >> 32), succ[1])
        << "overflow went to the busier successor";
    EXPECT_EQ(router.counters().forwardAdmits, 1u);

    router.drain();
}

// ---------------------------------------------------------------------------
// NodeLoad snapshots
// ---------------------------------------------------------------------------

TEST(ServiceNodeLoad, SnapshotTracksQueueAndMembership)
{
    VqaProblem prob = makeHeisenbergVqe(7);
    ServiceNode node(smallEnsemble(0), nodeOptions());
    const WorkloadId wl =
        node.registerWorkload(prob.ansatz, prob.hamiltonian);

    NodeLoad idle = node.loadSnapshot();
    EXPECT_EQ(idle.queuedJobs, 0u);
    EXPECT_EQ(idle.activeItems, 0u);
    EXPECT_EQ(idle.inflightShards, 0);
    EXPECT_EQ(idle.aliveMembers, 2u);
    EXPECT_EQ(idle.score(), 0.0);

    JobRequest req = requestFor(wl, prob, 0, 0.0);
    node.submit(req);
    req.params[0] += 0.05;
    node.submit(req);
    NodeLoad queued = node.loadSnapshot();
    EXPECT_EQ(queued.queuedJobs, 2u);
    EXPECT_GT(queued.score(), idle.score());

    TaskPool pool(1);
    node.drain(&pool);
    NodeLoad drained = node.loadSnapshot();
    EXPECT_EQ(drained.queuedJobs, 0u);
    EXPECT_EQ(drained.inflightShards, 0);
    // The drain compiled and executed on both members: their plan
    // caches are warm for this workload now.
    EXPECT_GT(drained.warmKeys, 0u);

    node.failMemberAt(0, node.loop().now());
    EXPECT_EQ(node.loadSnapshot().aliveMembers, 1u);
    // A dead fleet prices itself out of forwarding entirely.
    node.failMemberAt(1, node.loop().now());
    EXPECT_GT(node.loadSnapshot().score(), 1e8);
}

// ---------------------------------------------------------------------------
// Determinism: threaded node drain == inline node-order drain
// ---------------------------------------------------------------------------

/** One mixed schedule: two drains with submissions between them. */
std::vector<JobOutcome>
runSchedule(Router &router, WorkloadId wl, const VqaProblem &prob)
{
    std::vector<JobOutcome> all;
    Rng rng = Rng(404).fork("schedule");
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 10; ++i) {
            JobRequest req =
                requestFor(wl, prob, i % 4,
                           0.05 * (i % 5), 64 * rng.uniformInt(1, 3));
            req.priority = rng.uniformInt(0, 2);
            req.submitH = router.node(0).loop().now() +
                          rng.uniform(0.0, 0.05);
            router.submit(req);
        }
        std::vector<JobOutcome> got = router.drain();
        all.insert(all.end(), got.begin(), got.end());
    }
    return all;
}

void
expectBitIdentical(const std::vector<JobOutcome> &a,
                   const std::vector<JobOutcome> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].jobId, b[i].jobId);
        EXPECT_TRUE(replay::bitEqual(a[i].energy, b[i].energy))
            << "job " << a[i].jobId << ": "
            << replay::hexBits(a[i].energy) << " vs "
            << replay::hexBits(b[i].energy);
        EXPECT_TRUE(replay::bitEqual(a[i].variance, b[i].variance));
        EXPECT_TRUE(replay::bitEqual(a[i].pCorrect, b[i].pCorrect));
        EXPECT_TRUE(replay::bitEqual(a[i].completeH, b[i].completeH));
        EXPECT_EQ(a[i].shotsExecuted, b[i].shotsExecuted);
        EXPECT_EQ(a[i].shardsExecuted, b[i].shardsExecuted);
        EXPECT_EQ(a[i].primaryMember, b[i].primaryMember);
        EXPECT_EQ(a[i].coalesced, b[i].coalesced);
    }
}

TEST(RouterDeterminism, ThreadedBarrierDrainMatchesInline)
{
    VqaProblem prob = makeHeisenbergVqe(7);

    RouterOptions inlineOpts;
    Router inlineRouter(inlineOpts);
    const WorkloadId wlA = buildFleet(inlineRouter, 3, prob);
    std::vector<JobOutcome> inlineOut =
        runSchedule(inlineRouter, wlA, prob);

    RouterOptions threadedOpts;
    threadedOpts.threadedDrain = true;
    Router threadedRouter(threadedOpts);
    const WorkloadId wlB = buildFleet(threadedRouter, 3, prob);
    ASSERT_EQ(wlA, wlB);
    std::vector<JobOutcome> threadedOut =
        runSchedule(threadedRouter, wlB, prob);
    threadedRouter.stopServe();

    ASSERT_FALSE(inlineOut.empty());
    expectBitIdentical(inlineOut, threadedOut);
}

/**
 * Streaming schedule: finite-horizon runUntil steps with submissions
 * between them, so work items stay open across steps (late jobs join
 * as riders) before a final drain collects the rest.
 */
std::vector<std::vector<JobOutcome>>
runStreaming(Router &router, WorkloadId wl, const VqaProblem &prob)
{
    std::vector<std::vector<JobOutcome>> steps;
    Rng rng = Rng(505).fork("streaming");
    double horizonH = 0.0;
    for (int step = 0; step < 5; ++step) {
        for (int i = 0; i < 8; ++i) {
            JobRequest req = requestFor(wl, prob, i % 4, 0.05 * (i % 6),
                                        64 * rng.uniformInt(1, 3));
            req.submitH = horizonH + rng.uniform(0.0, 0.01);
            router.submit(req);
        }
        horizonH += 0.02;
        steps.push_back(router.runUntil(horizonH));
    }
    steps.push_back(router.drain());
    return steps;
}

TEST(RouterDeterminism, ThreadedRunUntilMatchesInline)
{
    VqaProblem prob = makeHeisenbergVqe(7);

    Router inlineRouter;
    const WorkloadId wlA = buildFleet(inlineRouter, 3, prob);
    const std::vector<std::vector<JobOutcome>> inlineSteps =
        runStreaming(inlineRouter, wlA, prob);

    RouterOptions threadedOpts;
    threadedOpts.threadedDrain = true;
    Router threadedRouter(threadedOpts);
    const WorkloadId wlB = buildFleet(threadedRouter, 3, prob);
    ASSERT_EQ(wlA, wlB);
    const std::vector<std::vector<JobOutcome>> threadedSteps =
        runStreaming(threadedRouter, wlB, prob);
    threadedRouter.stopServe();

    // The schedule must exercise both halves of streaming: some jobs
    // finish inside a horizon, some are still in flight at one.
    std::size_t early = 0;
    for (std::size_t i = 0; i + 1 < inlineSteps.size(); ++i)
        early += inlineSteps[i].size();
    EXPECT_GT(early, 0u);
    EXPECT_GT(inlineSteps.back().size(), 0u);

    ASSERT_EQ(inlineSteps.size(), threadedSteps.size());
    for (std::size_t i = 0; i < inlineSteps.size(); ++i) {
        ASSERT_EQ(inlineSteps[i].size(), threadedSteps[i].size())
            << "step " << i;
        expectBitIdentical(inlineSteps[i], threadedSteps[i]);
    }
}

TEST(RouterDeterminism, ShardPoolWidthDoesNotChangeBits)
{
    // 1-, 2- and 4-wide shard fan-out must agree bit for bit (shard
    // RNG forks from pure ids, aggregation is seq-ordered).
    VqaProblem prob = makeHeisenbergVqe(7);
    auto runWith = [&prob](int width) {
        ServiceNode node(smallEnsemble(0), nodeOptions());
        const WorkloadId wl =
            node.registerWorkload(prob.ansatz, prob.hamiltonian);
        for (int i = 0; i < 8; ++i) {
            JobRequest req = requestFor(wl, prob, i % 3, 0.04 * i,
                                        128 + 64 * (i % 2));
            node.submit(req);
        }
        TaskPool pool(width);
        return node.drain(&pool);
    };
    std::vector<JobOutcome> w1 = runWith(1);
    std::vector<JobOutcome> w2 = runWith(2);
    std::vector<JobOutcome> w4 = runWith(4);
    ASSERT_EQ(w1.size(), 8u);
    expectBitIdentical(w1, w2);
    expectBitIdentical(w1, w4);
}

// ---------------------------------------------------------------------------
// Routed journal: clean audit + bit-identical replay
// ---------------------------------------------------------------------------

TEST(RouterJournal, RoutedRunAuditsCleanAndReplaysBitIdentical)
{
    replay::ChaosOptions o;
    o.seed = 20260809;
    o.nodes = 3;
    o.members = 2;
    o.rounds = 3;
    o.deadlineProb = 0.2;
    o.verifyReplay = true;
    replay::ChaosEngine engine(o);
    TaskPool pool(1);
    replay::ChaosReport rep = engine.run(&pool);

    EXPECT_TRUE(rep.passed())
        << (rep.violations.empty()
                ? ""
                : rep.violations.front().invariant + ": " +
                      rep.violations.front().detail);
    EXPECT_TRUE(rep.replayVerified);
    EXPECT_GT(rep.jobsCompleted, 0);
    EXPECT_EQ(engine.journal().config.nodes, 3);

    // The journal survives a serialize->parse round trip with its
    // router shape intact.
    std::string err;
    replay::EventJournal parsed =
        replay::EventJournal::parse(engine.journal().serialize(),
                                    &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(parsed.config.nodes, 3);
    EXPECT_EQ(parsed.config.virtualNodes, 64);
    EXPECT_EQ(parsed.config.forwardHops, 2);
    EXPECT_EQ(parsed.size(), engine.journal().size());
}

TEST(RouterJournal, FloodedRoutedRunForwardsAndStaysClean)
{
    replay::ChaosOptions o;
    o.seed = 77;
    o.nodes = 3;
    o.members = 2;
    o.rounds = 3;
    o.floodProb = 1.0; // force overflow forwarding every round
    o.verifyReplay = true;
    replay::ChaosEngine engine(o);
    TaskPool pool(1);
    replay::ChaosReport rep = engine.run(&pool);

    EXPECT_TRUE(rep.passed())
        << (rep.violations.empty()
                ? ""
                : rep.violations.front().invariant + ": " +
                      rep.violations.front().detail);
    EXPECT_GT(rep.forwards, 0)
        << "forced floods never overflowed across nodes";
    EXPECT_GT(rep.forwardAdmits, 0);
    EXPECT_TRUE(rep.replayVerified);
}

} // namespace
} // namespace eqc
