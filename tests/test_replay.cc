/**
 * @file
 * Replay-subsystem tests: JSONL journal round-trips that preserve
 * every double bit-for-bit (denormals, negative zero, non-dyadic
 * fractions), live ServiceNode scenarios (coalescing, a mid-run kill,
 * cache hits) replayed hex-bit-identically from the serialized
 * journal alone — including a deadline shed, a live member join and a
 * mid-flight rider join — chaos schedules that stay clean and
 * byte-identical across TaskPool thread counts (with deadline/churn
 * injection on, and on a SteadyClock where only the timing invariants
 * are checkable), pinned digests of single-node, streaming and routed
 * chaos journals plus a replay of the committed routed journal
 * fixture, hand-built journals that trip each invariant or name a
 * member the replayed node lacks, and the shard-resolution decay of
 * per-member queue depths.
 */

#include <gtest/gtest.h>

#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/task_pool.h"
#include "device/catalog.h"
#include "replay/chaos.h"
#include "replay/replayer.h"
#include "serve/aggregator.h"
#include "serve/service_node.h"
#include "vqa/problem.h"

namespace eqc {
namespace {

using namespace eqc::replay;

// ---------------------------------------------------------------------------
// Journal serialization
// ---------------------------------------------------------------------------

TEST(Journal, RoundTripPreservesAdversarialDoubleBits)
{
    // Doubles that break naive printf round-trips: the smallest
    // denormal, negative zero, non-dyadic fractions, the largest
    // finite double, and a classic accumulated-rounding value.
    const std::vector<double> nasty = {
        5e-324,       -0.0,    1.0 / 3.0, 1.7976931348623157e308,
        -2.2250738585072014e-308, 0.1 + 0.2,
    };

    EventJournal j;
    j.config.options.seed = 0xDEADBEEFCAFEULL;
    j.config.options.resultCacheTtlH = 1.0 / 3.0;
    j.config.options.scheduler.minLatencyS = 5e-324;
    j.config.options.scheduler.warmBoost = 0.1 + 0.2;
    j.config.devices = {
        {"ibmq_lima", 0.30000000000000004, 9.999999999999998},
        {"ibmq_quito", -1.0, -1.0},
        {"dev\"quote\\slash", -1.0, -1.0}, // exercises escaping
    };
    j.config.workloads = {{"heisenberg_vqe", 7},
                          {"ring_maxcut_qaoa", 99}};

    EventRecord admit;
    admit.kind = EventKind::Admit;
    admit.tH = 1.0 / 7.0;
    admit.jobId = ~0ULL;
    admit.tenant = 3;
    admit.workload = 1;
    admit.shots = 4096;
    admit.priority = 2;
    admit.submitH = -0.0;
    admit.params = nasty;
    j.record(admit);

    EventRecord hit;
    hit.kind = EventKind::CacheHit;
    hit.tH = 0.3;
    hit.workUid = 12;
    hit.storedAtH = -0.0;
    hit.servedShots = 4096;
    hit.shots = 2048;
    hit.energy = -1.0 / 3.0;
    hit.riders = 2;
    j.record(hit);

    EventRecord fin;
    fin.kind = EventKind::Finalize;
    fin.tH = 0.5;
    fin.jobId = 1;
    fin.workUid = 12;
    fin.energy = -0.0;
    fin.variance = 5e-324;
    fin.pCorrect = 0.99999999999999989; // nextafter(1.0, 0.0)
    fin.doneH = 1.0 / 3.0;
    fin.shots = 2048;
    fin.shardsRun = 3;
    fin.circuits = 33;
    fin.degraded = true;
    j.record(fin);

    const std::string text = j.serialize();
    std::string err;
    EventJournal parsed = EventJournal::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(parsed.size(), j.size());

    EXPECT_EQ(parsed.config.options.seed, j.config.options.seed);
    const serve::ServiceOptions &po = parsed.config.options;
    EXPECT_TRUE(bitEqual(po.resultCacheTtlH, 1.0 / 3.0));
    EXPECT_TRUE(bitEqual(po.scheduler.minLatencyS, 5e-324));
    EXPECT_TRUE(bitEqual(po.scheduler.warmBoost, 0.1 + 0.2));
    ASSERT_EQ(parsed.config.devices.size(), 3u);
    EXPECT_TRUE(bitEqual(parsed.config.devices[0].spikeRatePerHour,
                         0.30000000000000004));
    EXPECT_EQ(parsed.config.devices[2].name, "dev\"quote\\slash");
    ASSERT_EQ(parsed.config.workloads.size(), 2u);
    EXPECT_EQ(parsed.config.workloads[1].initSeed, 99u);

    const EventRecord &pa = parsed.records()[0];
    EXPECT_EQ(pa.kind, EventKind::Admit);
    EXPECT_EQ(pa.jobId, ~0ULL);
    EXPECT_TRUE(bitEqual(pa.submitH, -0.0)); // sign bit survives
    ASSERT_EQ(pa.params.size(), nasty.size());
    for (std::size_t i = 0; i < nasty.size(); ++i)
        EXPECT_TRUE(bitEqual(pa.params[i], nasty[i]))
            << "param " << i << ": " << hexBits(pa.params[i])
            << " vs " << hexBits(nasty[i]);

    const EventRecord &ph = parsed.records()[1];
    EXPECT_TRUE(bitEqual(ph.storedAtH, -0.0));
    EXPECT_TRUE(bitEqual(ph.energy, -1.0 / 3.0));
    EXPECT_EQ(ph.servedShots, 4096);

    const EventRecord &pf = parsed.records()[2];
    EXPECT_TRUE(bitEqual(pf.energy, -0.0));
    EXPECT_TRUE(bitEqual(pf.variance, 5e-324));
    EXPECT_TRUE(bitEqual(pf.pCorrect, 0.99999999999999989));
    EXPECT_TRUE(pf.degraded);

    // Serialization is a fixed point: text -> journal -> same text.
    EXPECT_TRUE(parsed.serialize() == text);
}

TEST(Journal, ParseReportsMalformedInput)
{
    std::string err;
    EventJournal::parse("{\"k\": \"admit\", \"t\": }\n", &err);
    EXPECT_FALSE(err.empty());
}

TEST(Journal, RoundTripPreservesStreamingRecordKinds)
{
    // The four streaming kinds and their fields survive text exactly:
    // deadline sheds, live joins/leaves, riders, supervised restores,
    // late shard resolutions, and a bounded (runUntil) drain.
    EventJournal j;
    j.config.devices = {{"ibmq_lima"}};
    j.config.options.retryUnplannableH = 1.0 / 3.0;
    j.config.options.superviseBaseBackoffH = 0.1 + 0.2;
    j.config.options.superviseMaxBackoffH = 5e-324;
    j.config.options.scheduler.coldStartPenalty = 0.30000000000000004;
    j.config.options.scheduler.coldStartH = 1.0 / 7.0;

    EventRecord admit;
    admit.kind = EventKind::Admit;
    admit.jobId = 9;
    admit.shots = 256;
    admit.deadlineH = 1.0 / 3.0;
    admit.params = {0.5};
    j.record(admit);

    EventRecord shed;
    shed.kind = EventKind::DeadlineShed;
    shed.tH = 1.0 / 3.0;
    shed.jobId = 9;
    shed.workUid = 4;
    shed.shots = 128;
    shed.shedShots = 128;
    shed.deadlineH = 1.0 / 3.0;
    j.record(shed);

    EventRecord join;
    join.kind = EventKind::MemberJoin;
    join.member = 1;
    join.atH = -0.0;
    join.name = "ibmq_santiago";
    j.record(join);

    EventRecord leave;
    leave.kind = EventKind::MemberLeave;
    leave.member = 0;
    leave.atH = 0.1 + 0.2;
    j.record(leave);

    EventRecord rider;
    rider.kind = EventKind::RiderJoin;
    rider.jobId = 11;
    rider.workUid = 4;
    rider.shots = 64;
    j.record(rider);

    EventRecord restore;
    restore.kind = EventKind::MemberRestore;
    restore.member = 0;
    restore.autoRestore = true;
    j.record(restore);

    EventRecord lateDone;
    lateDone.kind = EventKind::ShardDone;
    lateDone.workUid = 4;
    lateDone.late = true;
    j.record(lateDone);

    EventRecord bounded;
    bounded.kind = EventKind::Drain;
    bounded.atH = 2.5;
    j.record(bounded);

    EventRecord fin;
    fin.kind = EventKind::Finalize;
    fin.jobId = 9;
    fin.shedShots = 128;
    fin.shed = true;
    fin.degraded = true;
    j.record(fin);

    const std::string text = j.serialize();
    std::string err;
    EventJournal parsed = EventJournal::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(parsed.size(), j.size());

    const serve::ServiceOptions &po = parsed.config.options;
    EXPECT_TRUE(bitEqual(po.retryUnplannableH, 1.0 / 3.0));
    EXPECT_TRUE(bitEqual(po.superviseBaseBackoffH, 0.1 + 0.2));
    EXPECT_TRUE(bitEqual(po.superviseMaxBackoffH, 5e-324));
    EXPECT_TRUE(
        bitEqual(po.scheduler.coldStartPenalty, 0.30000000000000004));

    const auto &recs = parsed.records();
    EXPECT_TRUE(bitEqual(recs[0].deadlineH, 1.0 / 3.0));
    EXPECT_EQ(recs[1].kind, EventKind::DeadlineShed);
    EXPECT_EQ(recs[1].shedShots, 128);
    EXPECT_TRUE(bitEqual(recs[1].deadlineH, 1.0 / 3.0));
    EXPECT_EQ(recs[2].kind, EventKind::MemberJoin);
    EXPECT_EQ(recs[2].name, "ibmq_santiago");
    EXPECT_TRUE(bitEqual(recs[2].atH, -0.0));
    EXPECT_EQ(recs[3].kind, EventKind::MemberLeave);
    EXPECT_TRUE(bitEqual(recs[3].atH, 0.1 + 0.2));
    EXPECT_EQ(recs[4].kind, EventKind::RiderJoin);
    EXPECT_EQ(recs[4].jobId, 11u);
    EXPECT_TRUE(recs[5].autoRestore);
    EXPECT_TRUE(recs[6].late);
    EXPECT_TRUE(bitEqual(recs[7].atH, 2.5));
    EXPECT_TRUE(recs[8].shed);
    EXPECT_EQ(recs[8].shedShots, 128);

    EXPECT_TRUE(parsed.serialize() == text);
}

// ---------------------------------------------------------------------------
// Live scenario -> journal -> bit-identical replay
// ---------------------------------------------------------------------------

TEST(Replayer, LiveScenarioReplaysBitIdentical)
{
    // The full event surface in one run: coalescing pairs, a member
    // killed mid-drain (requeues), then a second drain with a cache
    // hit and a fresh binding. The node is built from the journal
    // config so the replayer reconstructs exactly this node.
    serve::ServiceOptions o;
    o.seed = 101;
    o.scheduler.minShardShots = 32;
    o.resultCacheTtlH = 0.5;
    EventJournal journal;
    journal.config.options = o;
    journal.config.devices = {{"ibmq_bogota"},
                              {"ibmq_manila"},
                              {"ibmq_quito"},
                              {"ibmq_lima"}};
    journal.config.workloads = {{"heisenberg_vqe", 7}};

    serve::ServiceNode node(devicesFor(journal.config),
                            journal.config.options);
    VqaProblem p = problemByName("heisenberg_vqe", 7);
    serve::WorkloadId wl =
        node.registerWorkload(p.ansatz, p.hamiltonian);
    node.setJournalSink(&journal);

    serve::JobRequest r;
    r.workload = wl;
    r.shots = 4096;
    for (int t = 0; t < 6; ++t) {
        r.tenantId = t;
        r.params = p.initialParams;
        r.params[0] += 0.1 * (t / 2); // pairs coalesce
        r.priority = t % 2;
        r.submitH = 0.01 * t;
        ASSERT_TRUE(node.submit(r).admitted());
    }
    node.failMemberAt(1, 30.0 / 3600.0);
    TaskPool pool(2);
    std::vector<serve::JobOutcome> out = node.drain(&pool);
    ASSERT_EQ(out.size(), 6u);

    r.tenantId = 0;
    r.params = p.initialParams; // repeats drain 1: cache hit
    r.submitH = out.back().completeH + 0.01;
    ASSERT_TRUE(node.submit(r).admitted());
    r.tenantId = 1;
    r.params[0] += 7.5; // fresh binding: executes
    ASSERT_TRUE(node.submit(r).admitted());
    std::vector<serve::JobOutcome> again = node.drain(&pool);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_TRUE(again[0].fromCache);
    node.setJournalSink(nullptr);

    // A healthy live journal carries no invariant violations.
    std::vector<Violation> v = InvariantChecker::check(journal);
    EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v.front().detail);

    // The serialized text alone reproduces all 8 outcomes to the bit,
    // on a different thread count than the recording run.
    std::string err;
    EventJournal parsed = EventJournal::parse(journal.serialize(), &err);
    ASSERT_TRUE(err.empty()) << err;
    Replayer replayer(std::move(parsed));
    TaskPool replayPool(3);
    ReplayResult res = replayer.run(&replayPool);
    EXPECT_EQ(res.jobsCompared, 8u);
    EXPECT_TRUE(res.identical())
        << (res.mismatches.empty() ? "" : res.mismatches.front());
}

TEST(Replayer, ShedJoinAndRiderReplayBitIdentical)
{
    // Acceptance scenario for the streaming front door: one job sheds
    // at its deadline mid-flight, a new member joins live, and a rider
    // joins an already-dispatched item through a bounded runUntil —
    // all from the journal text alone, bit-for-bit.
    serve::ServiceOptions o;
    o.seed = 202;
    o.scheduler.minShardShots = 32;
    EventJournal journal;
    journal.config.options = o;
    journal.config.devices = {{"ibmq_bogota"},
                              {"ibmq_manila"},
                              {"ibmq_quito"},
                              {"ibmq_lima"}};
    journal.config.workloads = {{"heisenberg_vqe", 7}};

    serve::ServiceNode node(devicesFor(journal.config),
                            journal.config.options);
    VqaProblem p = problemByName("heisenberg_vqe", 7);
    serve::WorkloadId wl =
        node.registerWorkload(p.ansatz, p.hamiltonian);
    node.setJournalSink(&journal);

    serve::JobRequest r;
    r.workload = wl;
    r.params = p.initialParams;
    r.shots = 8192;
    r.tenantId = 0;
    r.deadlineH = 0.02; // sheds mid-flight (see test_serve)
    ASSERT_TRUE(node.submit(r).admitted());

    r.tenantId = 1;
    r.params[0] += 0.5;
    r.shots = 4096;
    r.deadlineH = 0.0;
    ASSERT_TRUE(node.submit(r).admitted());

    // Bounded run past intake: both items dispatched, nothing done.
    node.runUntil(1e-4);

    // A rider joins tenant 1's in-flight item...
    r.tenantId = 2;
    r.shots = 2048;
    r.submitH = 1e-4;
    ASSERT_TRUE(node.submit(r).admitted());
    // ...and a fifth device joins the ensemble live.
    node.addMember(
        deviceByName("ibmq_santiago", journal.config.catalogSeed),
        2e-4);

    std::vector<serve::JobOutcome> out = node.drain();
    ASSERT_EQ(out.size(), 3u);
    node.setJournalSink(nullptr);
    EXPECT_TRUE(out[0].shed);
    EXPECT_GT(out[0].shedShots, 0);
    EXPECT_EQ(node.counters().ridersJoined, 1u);
    EXPECT_EQ(node.counters().memberJoins, 1u);

    std::vector<Violation> v = InvariantChecker::check(journal);
    EXPECT_TRUE(v.empty())
        << (v.empty() ? ""
                      : v.front().invariant + ": " + v.front().detail);

    std::string err;
    EventJournal parsed =
        EventJournal::parse(journal.serialize(), &err);
    ASSERT_TRUE(err.empty()) << err;
    Replayer replayer(std::move(parsed));
    TaskPool replayPool(3);
    ReplayResult res = replayer.run(&replayPool);
    EXPECT_EQ(res.jobsCompared, 3u);
    EXPECT_TRUE(res.identical())
        << (res.mismatches.empty() ? "" : res.mismatches.front());
}

// ---------------------------------------------------------------------------
// Chaos schedules: clean, deterministic, thread-count independent
// ---------------------------------------------------------------------------

std::string
chaosJournalText(uint64_t seed, int threads, ChaosReport *rep)
{
    ChaosOptions co;
    co.seed = seed;
    co.verifyReplay = true;
    ChaosEngine engine(co);
    TaskPool pool(threads);
    ChaosReport r = engine.run(&pool);
    if (rep)
        *rep = r;
    return engine.journal().serialize();
}

TEST(ChaosEngine, SchedulesCleanAndBitIdenticalAcrossThreadCounts)
{
    // Property satellite: randomized drains full of kills, coalescing
    // and cache traffic serialize -> parse -> replay bit-identically,
    // and the journal text itself is byte-identical for 1/2/4 worker
    // threads.
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        ChaosReport r1, r2, r4;
        const std::string t1 = chaosJournalText(seed, 1, &r1);
        const std::string t2 = chaosJournalText(seed, 2, &r2);
        const std::string t4 = chaosJournalText(seed, 4, &r4);
        for (const ChaosReport *r : {&r1, &r2, &r4}) {
            EXPECT_TRUE(r->replayVerified);
            EXPECT_TRUE(r->passed())
                << "seed " << seed << ": "
                << (r->violations.empty()
                        ? ""
                        : r->violations.front().invariant + ": " +
                              r->violations.front().detail);
        }
        EXPECT_GT(r1.jobsCompleted, 0);
        EXPECT_TRUE(t1 == t2) << "seed " << seed;
        EXPECT_TRUE(t1 == t4) << "seed " << seed;
    }
}

TEST(ChaosEngine, SameSeedReproducesTheExactJournal)
{
    ChaosOptions co;
    co.seed = 42;
    ChaosEngine a(co);
    ChaosEngine b(co);
    TaskPool pool(2);
    ChaosReport ra = a.run(&pool);
    ChaosReport rb = b.run(&pool);
    EXPECT_TRUE(ra.passed())
        << (ra.violations.empty() ? "" : ra.violations.front().detail);
    EXPECT_EQ(ra.jobsCompleted, rb.jobsCompleted);
    EXPECT_EQ(ra.kills, rb.kills);
    EXPECT_EQ(ra.restores, rb.restores);
    EXPECT_EQ(ra.floods, rb.floods);
    EXPECT_TRUE(a.journal().serialize() == b.journal().serialize());
}

std::string
streamingChaosText(uint64_t seed, int threads, ChaosReport *rep)
{
    ChaosOptions co;
    co.seed = seed;
    co.rounds = 4;
    co.deadlineProb = 0.5;
    co.churnProb = 0.5;
    co.verifyReplay = true;
    ChaosEngine engine(co);
    TaskPool pool(threads);
    ChaosReport r = engine.run(&pool);
    if (rep)
        *rep = r;
    return engine.journal().serialize();
}

TEST(ChaosEngine, DeadlineAndChurnSchedulesStayCleanAcrossThreads)
{
    // The streaming adversary — deadline sheds plus live joins and
    // leaves on top of kills, floods and skew — still violates no
    // invariant, still replays from text, and still produces
    // byte-identical journals for 1/2/4 worker threads.
    int sheds = 0, joins = 0, leaves = 0;
    for (uint64_t seed = 5; seed <= 7; ++seed) {
        ChaosReport r1, r2, r4;
        const std::string t1 = streamingChaosText(seed, 1, &r1);
        const std::string t2 = streamingChaosText(seed, 2, &r2);
        const std::string t4 = streamingChaosText(seed, 4, &r4);
        for (const ChaosReport *r : {&r1, &r2, &r4}) {
            EXPECT_TRUE(r->replayVerified);
            EXPECT_TRUE(r->passed())
                << "seed " << seed << ": "
                << (r->violations.empty()
                        ? ""
                        : r->violations.front().invariant + ": " +
                              r->violations.front().detail);
        }
        sheds += r1.sheds;
        joins += r1.joins;
        leaves += r1.leaves;
        EXPECT_TRUE(t1 == t2) << "seed " << seed;
        EXPECT_TRUE(t1 == t4) << "seed " << seed;
    }
    // The schedules must actually exercise the streaming paths.
    EXPECT_GT(sheds, 0);
    EXPECT_GT(joins, 0);
    EXPECT_GT(leaves, 0);
}

TEST(ChaosEngine, SteadyClockSchedulesHoldTimingInvariants)
{
    // Chaos on a wall clock: event fire order is real, journals are
    // not bit-replayable, but every invariant — including event-order
    // and shed-before-finalize — must still hold.
    for (uint64_t seed = 21; seed <= 23; ++seed) {
        ChaosOptions co;
        co.seed = seed;
        co.rounds = 3;
        co.deadlineProb = 0.5;
        co.churnProb = 0.4;
        co.steadyClock = true;
        co.timescaleS = 0.001;
        co.verifyReplay = true; // must be skipped, not attempted
        ChaosEngine engine(co);
        ChaosReport rep = engine.run(&TaskPool::shared());
        EXPECT_FALSE(rep.replayVerified);
        EXPECT_TRUE(rep.passed())
            << "seed " << seed << ": "
            << (rep.violations.empty()
                    ? ""
                    : rep.violations.front().invariant + ": " +
                          rep.violations.front().detail);
        EXPECT_EQ(engine.journal().config.clock, "steady");
    }
}

// ---------------------------------------------------------------------------
// Pinned journal bytes: the schedule's draw order is part of the contract
// ---------------------------------------------------------------------------

/** FNV-1a 64 over the exact bytes of @p text. */
uint64_t
fnv1a64(const std::string &text)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    return h;
}

enum class PinnedMode
{
    Single,
    Streaming,
    Routed,
    RoutedFlood,
};

ChaosOptions
pinnedOptions(PinnedMode mode, uint64_t seed)
{
    ChaosOptions co;
    co.seed = seed;
    switch (mode) {
    case PinnedMode::Single:
        break;
    case PinnedMode::Streaming:
        co.rounds = 4;
        co.deadlineProb = 0.5;
        co.churnProb = 0.5;
        break;
    case PinnedMode::RoutedFlood:
        co.floodProb = 1.0;
        // fall through
    case PinnedMode::Routed:
        co.nodes = 3;
        co.members = 2;
        co.deadlineProb = 0.25;
        break;
    }
    return co;
}

TEST(ChaosEngine, JournalBytesArePinned)
{
    // Digests of journal().serialize() per mode. Any reordered, added
    // or dropped draw changes the journal text and so its digest, so a
    // rework of the schedule must leave every one of them unchanged.
    struct Pin
    {
        PinnedMode mode;
        uint64_t seed;
        uint64_t digest;
    };
    const Pin pins[] = {
        {PinnedMode::Single, 1, 0xC073AA1945A127B4ULL},
        {PinnedMode::Single, 2, 0x21980141A1D0DE95ULL},
        {PinnedMode::Single, 42, 0x58AB0D7EBCBCDDA9ULL},
        {PinnedMode::Streaming, 5, 0xEA54688BDB81B41BULL},
        {PinnedMode::Streaming, 6, 0xDE9AA3F8E5EF2F3EULL},
        {PinnedMode::Streaming, 7, 0x2C165B9C25B394E9ULL},
        {PinnedMode::Routed, 11, 0x2B2A73F55CD6341EULL},
        {PinnedMode::Routed, 12, 0x4662F5DA2DE30E3CULL},
        {PinnedMode::Routed, 13, 0x50BF60CD0E6665C0ULL},
        {PinnedMode::RoutedFlood, 77, 0xEC27F4DF9B101F43ULL},
    };
    TaskPool pool(1);
    for (const Pin &p : pins) {
        ChaosEngine engine(pinnedOptions(p.mode, p.seed));
        ChaosReport rep = engine.run(&pool);
        EXPECT_TRUE(rep.passed()) << "seed " << p.seed;
        if (p.mode == PinnedMode::RoutedFlood) {
            EXPECT_GT(rep.forwards, 0) << "seed " << p.seed;
        }
        const uint64_t got = fnv1a64(engine.journal().serialize());
        EXPECT_EQ(got, p.digest)
            << "mode " << static_cast<int>(p.mode) << " seed " << p.seed
            << ": journal digest 0x" << std::hex << got;
    }

    // A routed journal captured by an older build and committed as a
    // fixture: the current code must re-derive every routed verdict
    // and finalize it records.
    std::ifstream in(std::string(EQC_TEST_DATA_DIR) +
                         "/mini_journal.jsonl",
                     std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    ASSERT_FALSE(buf.str().empty())
        << "tests/data/mini_journal.jsonl missing";
    std::string err;
    EventJournal parsed = EventJournal::parse(buf.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(parsed.config.nodes, 3);
    EXPECT_EQ(parsed.size(), 335u);
    ReplayResult res = Replayer(std::move(parsed)).run(&pool);
    EXPECT_EQ(res.jobsCompared, 20u);
    EXPECT_TRUE(res.identical())
        << (res.mismatches.empty() ? "" : res.mismatches.front());
}

// ---------------------------------------------------------------------------
// Invariant checker on hand-built journals
// ---------------------------------------------------------------------------

/** A Finalize whose aggregate exactly matches re-adding @p s. */
EventRecord
consistentFinalize(uint64_t jobId, uint64_t uid,
                   const serve::ShardResult &s)
{
    serve::Aggregator agg(serve::AggregationMode::FidelityWeighted);
    agg.add(s);
    EventRecord fin;
    fin.kind = EventKind::Finalize;
    fin.tH = s.completeH;
    fin.jobId = jobId;
    fin.workUid = uid;
    fin.shots = agg.shotsExecuted();
    fin.shardsRun = agg.shardsExecuted();
    fin.circuits = agg.circuitsRun();
    fin.energy = agg.energy();
    fin.variance = agg.variance();
    fin.pCorrect = agg.pCorrect();
    fin.doneH = agg.completeH();
    return fin;
}

EventRecord
admitRecord(uint64_t jobId, int shots)
{
    EventRecord r;
    r.kind = EventKind::Admit;
    r.jobId = jobId;
    r.shots = shots;
    r.params = {0.5};
    return r;
}

TEST(InvariantChecker, FlagsAdmittedJobThatNeverFinalizes)
{
    EventJournal j;
    j.config.devices = {{"ibmq_lima"}};
    j.record(admitRecord(7, 64));
    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].invariant, "admitted-completes");
}

TEST(InvariantChecker, FlagsExpiredCacheHit)
{
    EventJournal j;
    j.config.devices = {{"ibmq_lima"}};
    j.config.options.resultCacheTtlH = 0.4;

    serve::ShardResult s;
    s.member = 0;
    s.shots = 128;
    s.pCorrect = 0.8;
    s.energy = -3.25;
    s.variance = 0.5;
    s.completeH = 0.02;
    s.circuitsRun = 11;

    j.record(admitRecord(1, 128));
    EventRecord d;
    d.kind = EventKind::Dispatch;
    d.workUid = 5;
    d.seq = 0;
    d.member = 0;
    d.shots = 128;
    d.pCorrect = s.pCorrect;
    j.record(d);
    EventRecord done;
    done.kind = EventKind::ShardDone;
    done.workUid = 5;
    done.seq = 0;
    done.member = 0;
    done.shots = 128;
    done.energy = s.energy;
    done.variance = s.variance;
    done.pCorrect = s.pCorrect;
    done.circuits = s.circuitsRun;
    done.doneH = s.completeH;
    j.record(done);
    EventRecord fin = consistentFinalize(1, 5, s);
    j.record(fin);

    // An otherwise-plausible hit served 1.0h after the store against
    // a 0.4h TTL.
    EventRecord hit;
    hit.kind = EventKind::CacheHit;
    hit.tH = 1.0;
    hit.workUid = 5;
    hit.storedAtH = 0.0;
    hit.servedShots = 128;
    hit.shots = 128;
    hit.energy = fin.energy;
    j.record(hit);

    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].invariant, "cache-freshness");
}

TEST(InvariantChecker, FlagsShardCompletingAfterMemberKill)
{
    EventJournal j;
    j.config.devices = {{"ibmq_lima"}};

    serve::ShardResult s;
    s.member = 0;
    s.shots = 128;
    s.pCorrect = 0.8;
    s.energy = -3.25;
    s.variance = 0.5;
    s.completeH = 0.6; // past the kill hour below
    s.circuitsRun = 11;

    j.record(admitRecord(1, 128));
    EventRecord kill;
    kill.kind = EventKind::MemberFail;
    kill.member = 0;
    kill.atH = 0.5;
    j.record(kill);
    EventRecord d;
    d.kind = EventKind::Dispatch;
    d.workUid = 5;
    d.seq = 0;
    d.member = 0;
    d.shots = 128;
    d.pCorrect = s.pCorrect;
    j.record(d);
    EventRecord done;
    done.kind = EventKind::ShardDone;
    done.workUid = 5;
    done.seq = 0;
    done.member = 0;
    done.shots = 128;
    done.energy = s.energy;
    done.variance = s.variance;
    done.pCorrect = s.pCorrect;
    done.circuits = s.circuitsRun;
    done.doneH = s.completeH;
    j.record(done);
    j.record(consistentFinalize(1, 5, s));

    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].invariant, "no-zombie-shards");
}

/** Admit + Dispatch + ShardDone scaffolding for one 128-shot shard. */
void
recordShardLifecycle(EventJournal &j, uint64_t jobId, uint64_t uid,
                     const serve::ShardResult &s, double deadlineH,
                     double dispatchH = 0.0)
{
    EventRecord a = admitRecord(jobId, s.shots);
    a.deadlineH = deadlineH;
    j.record(a);
    EventRecord d;
    d.kind = EventKind::Dispatch;
    d.tH = dispatchH;
    d.workUid = uid;
    d.seq = 0;
    d.member = s.member;
    d.shots = s.shots;
    d.pCorrect = s.pCorrect;
    j.record(d);
    EventRecord done;
    done.kind = EventKind::ShardDone;
    done.tH = s.completeH;
    done.workUid = uid;
    done.seq = 0;
    done.member = s.member;
    done.shots = s.shots;
    done.energy = s.energy;
    done.variance = s.variance;
    done.pCorrect = s.pCorrect;
    done.circuits = s.circuitsRun;
    done.doneH = s.completeH;
    j.record(done);
}

serve::ShardResult
plainShard()
{
    serve::ShardResult s;
    s.member = 0;
    s.shots = 128;
    s.pCorrect = 0.8;
    s.energy = -3.25;
    s.variance = 0.5;
    s.completeH = 0.6;
    s.circuitsRun = 11;
    return s;
}

TEST(InvariantChecker, FlagsDeadlineMissedWithoutShed)
{
    // The job carried a 0.5h SLO, finalized at 0.6h, and no
    // DeadlineShed ever fired: the deadline neither was met nor shed.
    EventJournal j;
    j.config.devices = {{"ibmq_lima"}};
    serve::ShardResult s = plainShard();
    recordShardLifecycle(j, 1, 5, s, 0.5);
    EventRecord fin = consistentFinalize(1, 5, s);
    fin.deadlineH = 0.5;
    j.record(fin);

    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].invariant, "deadline-resolution");
}

TEST(InvariantChecker, FlagsShedShotMisaccounting)
{
    // Completed (128) plus shed (64) shots must equal the admitted
    // budget (256); here 64 shots simply vanish.
    EventJournal j;
    j.config.devices = {{"ibmq_lima"}};
    serve::ShardResult s = plainShard();
    EventRecord a = admitRecord(1, 256);
    a.deadlineH = 0.7;
    j.record(a);
    EventRecord d;
    d.kind = EventKind::Dispatch;
    d.workUid = 5;
    d.seq = 0;
    d.member = 0;
    d.shots = 128;
    d.pCorrect = s.pCorrect;
    j.record(d);
    EventRecord done;
    done.kind = EventKind::ShardDone;
    done.tH = s.completeH;
    done.workUid = 5;
    done.seq = 0;
    done.member = 0;
    done.shots = 128;
    done.energy = s.energy;
    done.variance = s.variance;
    done.pCorrect = s.pCorrect;
    done.circuits = s.circuitsRun;
    done.doneH = s.completeH;
    j.record(done);

    EventRecord shedRec;
    shedRec.kind = EventKind::DeadlineShed;
    shedRec.tH = 0.7;
    shedRec.jobId = 1;
    shedRec.workUid = 5;
    shedRec.shots = 128;
    shedRec.shedShots = 64; // should be 128: budget 256 - done 128
    shedRec.deadlineH = 0.7;
    j.record(shedRec);

    serve::Aggregator agg(serve::AggregationMode::EquiWeighted);
    agg.add(s);
    EventRecord fin;
    fin.kind = EventKind::Finalize;
    fin.tH = 0.7;
    fin.jobId = 1;
    fin.workUid = 5;
    fin.shots = 128;
    fin.shedShots = 64;
    fin.shardsRun = 1;
    fin.circuits = s.circuitsRun;
    fin.energy = agg.energy();
    fin.variance = agg.variance();
    fin.pCorrect = agg.pCorrect();
    fin.doneH = 0.7; // shed items complete at the shed hour
    fin.deadlineH = 0.7;
    fin.shed = true;
    fin.degraded = true;
    j.record(fin);

    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].invariant, "shed-shot-accounting");
}

TEST(InvariantChecker, FlagsDispatchBeforeMemberJoin)
{
    // Member 1 joins at 0.5h but a shard lands on it at 0.2h.
    EventJournal j;
    j.config.devices = {{"ibmq_lima"}};
    EventRecord join;
    join.kind = EventKind::MemberJoin;
    join.member = 1;
    join.atH = 0.5;
    join.name = "ibmq_santiago";
    j.record(join);

    serve::ShardResult s = plainShard();
    s.member = 1;
    recordShardLifecycle(j, 1, 5, s, 0.0, /*dispatchH=*/0.2);
    j.record(consistentFinalize(1, 5, s));

    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].invariant, "membership-window");
}

TEST(InvariantChecker, FlagsShedAfterFinalize)
{
    // The deadline event must never fire once its item completed.
    EventJournal j;
    j.config.devices = {{"ibmq_lima"}};
    serve::ShardResult s = plainShard();
    recordShardLifecycle(j, 1, 5, s, 0.7);
    EventRecord fin = consistentFinalize(1, 5, s);
    fin.deadlineH = 0.7;
    j.record(fin);

    EventRecord shedRec;
    shedRec.kind = EventKind::DeadlineShed;
    shedRec.tH = 0.7;
    shedRec.jobId = 1;
    shedRec.workUid = 5;
    shedRec.shedShots = 128;
    shedRec.deadlineH = 0.7;
    j.record(shedRec);

    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_FALSE(v.empty());
    bool found = false;
    for (const Violation &viol : v)
        found = found || viol.invariant == "shed-before-finalize";
    EXPECT_TRUE(found);
}

TEST(InvariantChecker, FlagsBackwardsLoopEvents)
{
    // Loop-fired events running backwards in journal time: a finalize
    // recorded at 0.6h followed by a shard completion at 0.4h.
    EventJournal j;
    j.config.devices = {{"ibmq_lima"}};
    serve::ShardResult s1 = plainShard();
    recordShardLifecycle(j, 1, 5, s1, 0.0);
    j.record(consistentFinalize(1, 5, s1));

    serve::ShardResult s2 = plainShard();
    s2.completeH = 0.4; // fires BEFORE the finalize above
    recordShardLifecycle(j, 2, 6, s2, 0.0);
    j.record(consistentFinalize(2, 6, s2));

    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_FALSE(v.empty());
    bool found = false;
    for (const Violation &viol : v)
        found = found || viol.invariant == "event-order";
    EXPECT_TRUE(found);
}

/** Two-node journal scaffold for the routed invariants I13/I14. */
EventJournal
routedJournalScaffold()
{
    EventJournal j;
    DeviceSpec home;
    home.name = "ibmq_lima";
    DeviceSpec remote;
    remote.name = "ibmq_lima";
    remote.node = 1;
    j.config.devices = {home, remote};
    j.config.nodes = 2;
    return j;
}

/** Route record sending routed request @p ruid to @p node. */
EventRecord
routeRecord(uint64_t ruid, int node, int shots)
{
    EventRecord r;
    r.kind = EventKind::Route;
    r.ruid = ruid;
    r.node = node;
    r.shots = shots;
    r.params = {0.5};
    return r;
}

/** Full consistent shard lifecycle stamped onto @p node. */
void
recordRoutedLifecycle(EventJournal &j, int node, uint64_t ruid,
                      uint64_t jobId, uint64_t uid,
                      const serve::ShardResult &s)
{
    EventRecord a = admitRecord(jobId, s.shots);
    a.node = node;
    a.ruid = ruid;
    j.record(a);
    EventRecord d;
    d.kind = EventKind::Dispatch;
    d.workUid = uid;
    d.seq = 0;
    d.member = s.member;
    d.shots = s.shots;
    d.pCorrect = s.pCorrect;
    d.node = node;
    j.record(d);
    EventRecord done;
    done.kind = EventKind::ShardDone;
    done.tH = s.completeH;
    done.workUid = uid;
    done.seq = 0;
    done.member = s.member;
    done.shots = s.shots;
    done.energy = s.energy;
    done.variance = s.variance;
    done.pCorrect = s.pCorrect;
    done.circuits = s.circuitsRun;
    done.doneH = s.completeH;
    done.node = node;
    j.record(done);
    EventRecord fin = consistentFinalize(jobId, uid, s);
    fin.node = node;
    j.record(fin);
}

TEST(InvariantChecker, FlagsDoubleRoutedWork)
{
    // One routed request, one Route record — but TWO admissions. Both
    // jobs execute and finalize consistently on their node, so only
    // the exactly-once routing guarantee is broken.
    EventJournal j = routedJournalScaffold();
    j.record(routeRecord(1, 0, 128));
    serve::ShardResult s1 = plainShard();
    recordRoutedLifecycle(j, 0, 1, 1, 5, s1);
    serve::ShardResult s2 = plainShard();
    s2.completeH = 0.7; // keeps node 0's loop-event order monotone
    recordRoutedLifecycle(j, 0, 1, 2, 6, s2);

    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].invariant, "routed-exactly-once");
}

TEST(InvariantChecker, FlagsForwardWithoutRejection)
{
    // The router forwarded a request its home node never rejected:
    // the Forward record has no preceding Reject on its from-node.
    // The forward target's admission and execution are themselves
    // consistent, so only I14 fires.
    EventJournal j = routedJournalScaffold();
    j.record(routeRecord(1, 0, 128));
    EventRecord fwd;
    fwd.kind = EventKind::Forward;
    fwd.ruid = 1;
    fwd.fromNode = 0;
    fwd.node = 1;
    fwd.retryAfterS = 5.0;
    j.record(fwd);
    serve::ShardResult s = plainShard();
    recordRoutedLifecycle(j, 1, 1, (uint64_t(1) << 32) + 1,
                          (uint64_t(1) << 32) + 5, s);

    std::vector<Violation> v = InvariantChecker::check(j);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0].invariant, "forward-only-on-rejection");
}

// ---------------------------------------------------------------------------
// Replay of hand-built journals naming members a node lacks
// ---------------------------------------------------------------------------

TEST(Replayer, BadMemberIndexIsAMismatchNotAThrow)
{
    // A member-health record naming a member index outside its node's
    // ensemble is a divergence to report, in both the single-node and
    // the routed replay, never an exception out of Replayer::run.
    TaskPool pool(1);
    for (int nodes : {1, 2}) {
        for (EventKind kind : {EventKind::MemberFail,
                               EventKind::MemberRestore,
                               EventKind::MemberLeave}) {
            for (int member : {99, -1}) {
                EventJournal j;
                j.config.nodes = nodes;
                for (int n = 0; n < nodes; ++n)
                    for (const char *name : {"ibmq_lima", "ibmq_quito"}) {
                        DeviceSpec d;
                        d.name = name;
                        d.node = n;
                        j.config.devices.push_back(d);
                    }
                EventRecord r;
                r.kind = kind;
                r.node = nodes - 1;
                r.member = member;
                r.atH = 0.5;
                j.record(r);

                ReplayResult res;
                bool threw = false;
                try {
                    res = Replayer(std::move(j)).run(&pool);
                } catch (const std::exception &) {
                    threw = true;
                }
                const std::string what =
                    std::string(kindName(kind)) + " member " +
                    std::to_string(member) + " on " +
                    std::to_string(nodes) + " node(s)";
                EXPECT_FALSE(threw) << what;
                EXPECT_FALSE(res.identical()) << what;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Member depth decay (shard-resolution events, not intake resets)
// ---------------------------------------------------------------------------

TEST(ServiceNode, MemberDepthsDecayToZeroAfterDrain)
{
    serve::ServiceOptions o;
    o.seed = 11;
    o.scheduler.minShardShots = 32;
    serve::ServiceNode node({deviceByName("ibmq_bogota"),
                             deviceByName("ibmq_manila"),
                             deviceByName("ibmq_quito"),
                             deviceByName("ibmq_lima")},
                            o);
    VqaProblem p = makeHeisenbergVqe();
    serve::WorkloadId wl =
        node.registerWorkload(p.ansatz, p.hamiltonian);

    serve::JobRequest r;
    r.workload = wl;
    r.shots = 4096;
    for (int t = 0; t < 4; ++t) {
        r.tenantId = t;
        r.params = p.initialParams;
        r.params[0] += 0.1 * t;
        ASSERT_TRUE(node.submit(r).admitted());
    }
    // Submission plans nothing: depths only move once shards dispatch.
    for (std::size_t m = 0; m < node.numMembers(); ++m)
        EXPECT_EQ(node.memberQueueDepth(m), 0);

    // A mid-run kill forces requeues: extra dispatches on survivors,
    // failure timeouts on the victim — all must decay back to zero.
    node.failMemberAt(0, 2.0 / 3600.0);
    TaskPool pool(2);
    std::vector<serve::JobOutcome> out = node.drain(&pool);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_GT(node.counters().shardsRequeued, 0u);
    for (std::size_t m = 0; m < node.numMembers(); ++m)
        EXPECT_EQ(node.memberQueueDepth(m), 0);

    // And a second batch starts from those zeros, not stale backlog.
    r.tenantId = 0;
    r.params = p.initialParams;
    r.params[0] += 9.0;
    r.submitH = out.back().completeH + 0.01;
    ASSERT_TRUE(node.submit(r).admitted());
    ASSERT_EQ(node.drain(&pool).size(), 1u);
    for (std::size_t m = 0; m < node.numMembers(); ++m)
        EXPECT_EQ(node.memberQueueDepth(m), 0);
}

} // namespace
} // namespace eqc
