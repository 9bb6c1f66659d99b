/**
 * @file
 * Chaos harness for the serving layer: seeded fault-injection
 * schedules plus a journal-auditing invariant suite.
 *
 * The paper's EQC keeps a VQA campaign alive through exactly the
 * conditions this harness manufactures — members dropping mid-run,
 * calibration falling off a cliff, demand spikes — via its
 * monitoring/adjustment daemon. ChaosEngine plays the adversary: one
 * seed deterministically composes
 *
 *  - randomized member kills (ServiceNode::failMemberAt) aimed with
 *    EventLoop::nextTimeH() at the window the next drain executes,
 *    plus probabilistic restores;
 *  - calibration drift spikes (DriftParams::spiked incident storms)
 *    flowing through the normal noise-context path;
 *  - tenant floods against a deliberately tight admission policy,
 *    exercising queue-full and per-tenant-quota rejections;
 *  - clock-skewed submit bursts (past-clamped and far-future hours);
 *  - coalescing tenant pairs and repeated bindings (cache hits).
 *
 * Every run records through an EventJournal, and InvariantChecker
 * audits the record for the system's core guarantees:
 *
 *  I1 admitted-completes: every Admit has exactly one Finalize, with
 *     the full requested shot budget unless the outcome is degraded —
 *     and degradation only ever follows a member failure;
 *  I2 backpressure-monotone: retry-after hints of capacity rejections
 *     at the same instant (and member-health epoch) strictly increase
 *     with observed backlog depth, and are always positive;
 *  I3 cache-freshness: no CacheHit serves an entry past the TTL, with
 *     fewer shots than requested, with reuse disabled, or with an
 *     energy no prior execution produced;
 *  I4 survivor-renormalization: re-aggregating each item's journaled
 *     shard results (failed shards excluded, so survivor weights
 *     renormalize to 1) reproduces the finalized energy/variance/
 *     pCorrect bit-for-bit;
 *  I5 no-zombie-shards: no shard completes at or after its member's
 *     active kill hour;
 *  I6 dispatch-resolution: every dispatched shard resolves exactly
 *     once (completion xor failure timeout, matching member/shots);
 *  I7 deadline-resolution: every admitted job with an SLO resolves to
 *     exactly one of met (finalized at or before the deadline) or shed
 *     (exactly one DeadlineShed record, outcome marked shed+degraded);
 *  I8 shed-shot-accounting: a shed item finalizes with exactly the
 *     shots its non-late completed shards produced, and completed +
 *     shed shots equal the item's budget (largest rider request);
 *  I9 membership-window: no shard dispatches onto a member before its
 *     join hour or at/after its leave hour;
 *  I10 coalesced-rider-consistency: all riders of one work item
 *     finalize with bitwise-identical aggregates and identical
 *     degraded/shed/shed-shot outcome bits;
 *  I11 event-order: journal timestamps of loop-fired events (shard
 *     resolutions, finalizes, deadline sheds) never run backwards;
 *  I12 shed-before-finalize: a work item's DeadlineShed record always
 *     precedes its first Finalize — no deadline fires after the
 *     item completed;
 *  I13 routed-exactly-once: in a routed (multi-node) journal every
 *     routed request has exactly one Route record, its Admit/Reject
 *     chain starts on the routed home node and hops only along the
 *     journaled Forward records, and at most one Admit ends the
 *     chain — no request is admitted twice or lands on a node the
 *     router never sent it to;
 *  I14 forward-only-on-rejection: every Forward record is preceded by
 *     a Reject on its from-node carrying a positive retry-after hint
 *     — the router never forwards admitted work or rejections that
 *     backpressure cannot fix (bad request, missed deadline).
 *
 * All per-node state (member health windows, backpressure epochs,
 * event-order clocks, cache energy sets) is keyed by the record's
 * node stamp, so single-node journals audit exactly as before and
 * multi-node journals audit each node's timeline independently.
 *
 * bench/chaos_storm.cc drives thousands of these schedules; a failing
 * seed's journal replays through replay::Replayer for a local repro.
 */

#ifndef EQC_REPLAY_CHAOS_H
#define EQC_REPLAY_CHAOS_H

#include <cstdint>
#include <string>
#include <vector>

#include "replay/journal.h"
#include "serve/service.h"

namespace eqc {

class TaskPool;

namespace replay {

/** Knobs of one chaos schedule (all derived draws come from seed). */
struct ChaosOptions
{
    uint64_t seed = 1;
    /** Ensemble members drawn from the evaluation catalog. */
    int members = 4;
    int tenants = 6;
    /** Submit/drain rounds per schedule. */
    int rounds = 3;
    /** Per-job shot budgets are multiples of 64 up to this. */
    int maxShots = 256;
    /** Per member per round: kill an alive member. */
    double killProb = 0.35;
    /** Per member per round: restore a killed member. */
    double restoreProb = 0.5;
    /** Per member at setup: dial its drift incidents up. */
    double driftSpikeProb = 0.35;
    /** Per round: one tenant floods the admission queue. */
    double floodProb = 0.5;
    /** Per submission: skew submitH into the past or far future. */
    double skewProb = 0.25;
    /** Per tenant pair per round: resubmit last round's binding. */
    double repeatProb = 0.35;
    /** Result-cache TTL (serving hours); > 0 so hits occur. */
    double cacheTtlH = 0.4;
    /** Deliberately tight admission: floods must bounce. */
    std::size_t queueDepth = 10;
    int tenantQuota = 3;
    /** Also serialize->parse->replay the journal and cross-check. */
    bool verifyReplay = false;
    /**
     * Per submission: attach a latency SLO — deadlineH = submitH +
     * U(0.05, 0.6) — exercising graceful shedding and SLO rejections.
     * 0 draws nothing, keeping legacy seeds byte-stable.
     */
    double deadlineProb = 0.0;
    /**
     * Per round: live membership churn — join a spare catalog device
     * or retire an active member mid-schedule. 0 draws nothing.
     */
    double churnProb = 0.0;
    /**
     * Drive the schedule on a SteadyClock (real time at timescaleS
     * wall-seconds per serving hour) instead of a VirtualClock. Wall
     * journals are not bit-replayable — verifyReplay is skipped — but
     * every invariant is still audited, including the timing ones.
     */
    bool steadyClock = false;
    /** SteadyClock scale: wall seconds per serving hour. */
    double timescaleS = 0.002;
    /**
     * Service nodes in the schedule. 1 (the default) drives one
     * ServiceNode. > 1 routes every submission through a
     * consistent-hash Router with overflow forwarding: floods
     * overflow across nodes, kills are drawn per node, and I13/I14
     * are audited on top of I1..I12. Each node gets `members`
     * ensemble members drawn with replacement; churnProb and
     * steadyClock are ignored (routed schedules run on the virtual
     * clock).
     */
    int nodes = 1;
};

/** One invariant violation found in a journal. */
struct Violation
{
    /** Invariant id, e.g. "admitted-completes". */
    std::string invariant;
    std::string detail;
};

/** Audits a journal against invariants I1..I14 (see file comment). */
class InvariantChecker
{
  public:
    static std::vector<Violation> check(const EventJournal &journal);
};

/** Summary of one chaos schedule. */
struct ChaosReport
{
    uint64_t seed = 0;
    int jobsCompleted = 0;
    int kills = 0;
    int restores = 0;
    int driftSpikes = 0;
    int floods = 0;
    int skewed = 0;
    /** Live membership joins/leaves injected by churn. */
    int joins = 0;
    int leaves = 0;
    /** Deadline sheds the node performed (from its counters). */
    int sheds = 0;
    /** Overflow forwards attempted by the router (routed schedules). */
    int forwards = 0;
    /** Forwards that ended in an admission on the target node. */
    int forwardAdmits = 0;
    serve::ServiceCounters counters;
    std::vector<Violation> violations;
    /** A serialize->parse->replay cross-check ran. */
    bool replayVerified = false;

    bool passed() const { return violations.empty(); }
};

/**
 * Deterministic chaos-schedule generator/driver: same options (seed
 * included) => same journal text, same report, for any TaskPool
 * thread count. One schedule body serves one node and a routed
 * fleet alike; the modes differ only in their RNG fork label, lineup
 * draw, flood binding and burst, drain call and report counters
 * (docs/ARCHITECTURE.md, "Replay & chaos"). The journal of the last
 * run() stays accessible for artifact dumps of failing seeds.
 */
class ChaosEngine
{
  public:
    explicit ChaosEngine(ChaosOptions opts = {}) : opts_(opts) {}

    /** Run one schedule; audits the journal before returning. */
    ChaosReport run(TaskPool *pool = nullptr);

    const EventJournal &journal() const { return journal_; }
    const ChaosOptions &options() const { return opts_; }

  private:
    ChaosOptions opts_;
    EventJournal journal_;
};

} // namespace replay
} // namespace eqc

#endif // EQC_REPLAY_CHAOS_H
