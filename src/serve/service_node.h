/**
 * @file
 * ServiceNode — the multi-tenant front end of the EQC runtime.
 *
 * One node fronts one ensemble of QPUs and serves expectation-
 * estimation jobs from many tenants. The node is *event-driven*: it
 * owns an eqc::EventLoop on a pluggable Clock, and every stage of a
 * job's lifecycle is an event on that loop —
 *
 *   submit     -> admission control (JobQueue; capacity rejections
 *                 carry a retry-after backpressure hint) and an
 *                 intake event is scheduled
 *   intake     -> coalesce identical (workload, binding) work items,
 *                 probe the result cache, shard each executing item's
 *                 shot budget across members (ShotScheduler over
 *                 queue-model wait estimates, Eq. 2 calibration
 *                 scores, and plan-cache warmth), fan the shard
 *                 computations out through a TaskPool
 *   completion -> one event per shard at its own completion hour:
 *                 members make progress independently — there is no
 *                 global round barrier
 *   requeue    -> a member that died mid-shard surfaces as a timeout
 *                 event; the lost shots replan onto survivors
 *   finalize   -> when an item's last shard resolves, shard results
 *                 aggregate (Aggregator, pluggable weighting) in
 *                 shard-sequence order and every rider completes
 *
 * Under a VirtualClock the loop replays deterministically: identical
 * submission sequences produce identical outcomes, bit for bit,
 * regardless of EQC_THREADS (shard randomness is forked from (work
 * uid, shard seq), pure ids; aggregation order is shard-sequence
 * order; planning happens in pop order at intake). Drains are also
 * bit-identical to the pre-event-loop synchronous drain whenever at
 * most one work item of a batch loses shards — the verified
 * determinism/coalescing/cache/requeue scenarios; when several items
 * fail concurrently, replacement planning now runs in
 * failure-detection order instead of item pop order (that reordering
 * *is* the round barrier's removal), still deterministically. Under
 * a SteadyClock the same code serves in real time: events fire at
 * wall deadlines and cache TTLs mean wall time.
 *
 * drain() survives as the batch entry point: "run the loop until
 * idle, hand back the completed outcomes".
 */

#ifndef EQC_SERVE_SERVICE_NODE_H
#define EQC_SERVE_SERVICE_NODE_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/event_loop.h"
#include "core/weighting.h"
#include "device/backend.h"
#include "obs/metrics.h"
#include "serve/aggregator.h"
#include "serve/coalescer.h"
#include "serve/job_queue.h"
#include "serve/shot_scheduler.h"
#include "vqa/expectation.h"

namespace eqc {

class TaskPool;

namespace replay {
class JournalSink;
} // namespace replay

namespace serve {

/** Full configuration of one ServiceNode. */
struct ServiceOptions
{
    AdmissionPolicy admission;
    ShotSchedulerOptions scheduler;
    AggregationMode aggregation = AggregationMode::FidelityWeighted;
    ShotMode shotMode = ShotMode::Gaussian;
    PCorrectMode pCorrectMode = PCorrectMode::Physical;
    /** Reported-calibration readout-error mitigation. */
    bool readoutMitigation = true;
    /**
     * Rounds of shard requeueing after member failures before a work
     * item completes with whatever survived.
     */
    int maxRequeueRounds = 4;
    /** Result-cache TTL in serving-clock hours (0 disables reuse). */
    double resultCacheTtlH = 0.0;
    std::size_t resultCacheCapacity = 256;
    /**
     * When no member can plan a fresh work item, park it and retry
     * every this many hours (a member may restore or join meanwhile)
     * instead of finalizing empty immediately. Bounded by
     * maxRequeueRounds park rounds so drains always terminate.
     * 0 keeps the legacy immediate empty-degraded finalize.
     */
    double retryUnplannableH = 0.0;
    /**
     * Supervised restore: a failed member is automatically restored
     * after base * 2^consecutiveFails hours (capped below), modeling a
     * watchdog that reboots flapping QPUs with exponential backoff.
     * 0 disables supervision (the default; restores stay manual).
     */
    double superviseBaseBackoffH = 0.0;
    /** Cap of the supervised-restore backoff (hours). */
    double superviseMaxBackoffH = 2.0;
    /** Root seed; every stochastic stream forks from it by label. */
    uint64_t seed = 1;
    /**
     * First job id this node assigns. A Router gives every node a
     * disjoint id span (node i starts at i * 2^32 + 1) so job ids stay
     * globally unique across a federation and journals merge without
     * ambiguity. 1 (the default) keeps single-node ids unchanged.
     */
    uint64_t firstJobId = 1;
    /** First work-item uid, spanned the same way as firstJobId. */
    uint64_t firstWorkUid = 1;
};

/**
 * Placement-relevant load of one node at a glance — what a Router
 * consults when choosing an overflow-forward target. Captures the
 * signals the ShotScheduler's own placement weighs (backlog depth,
 * plan-cache warmth, cold-start membership) which are otherwise
 * invisible outside the node.
 */
struct NodeLoad
{
    /** Jobs admitted but not yet taken into a work item. */
    std::size_t queuedJobs = 0;
    /** Work items in flight (executing or parked). */
    std::size_t activeItems = 0;
    /** Planned shards whose completion event has not fired yet. */
    int inflightShards = 0;
    /** Members eligible for planning right now. */
    std::size_t aliveMembers = 0;
    /**
     * (workload, member) pairs whose transpiled circuits sit warm in
     * the member's plan cache — work forwarded here skips the
     * compilation penalty the scheduler's warmBoost models.
     */
    std::size_t warmKeys = 0;

    /** Comparable congestion score: pending work per alive member. */
    double
    score() const
    {
        const double pending = static_cast<double>(queuedJobs) +
                               static_cast<double>(activeItems) +
                               static_cast<double>(inflightShards);
        return aliveMembers == 0
                   ? pending + 1e9 // nobody to plan on: avoid
                   : pending / static_cast<double>(aliveMembers);
    }
};

/** Multi-tenant event-driven serving front end (see file comment). */
class ServiceNode
{
  public:
    /**
     * @param devices ensemble members, in index order (the order is
     *        part of the node's identity: shard plans and outcomes
     *        reference member indices)
     * @param options node configuration
     * @param clock serving clock; nullptr means an internal
     *        VirtualClock (the deterministic default). Not owned;
     *        must outlive the node. Engines pass the run's shared
     *        clock here so service time and training time agree.
     */
    ServiceNode(std::vector<Device> devices, ServiceOptions options,
                Clock *clock = nullptr);

    ~ServiceNode();

    ServiceNode(const ServiceNode &) = delete;
    ServiceNode &operator=(const ServiceNode &) = delete;

    /**
     * Register a serveable workload: the observable is grouped into
     * measurement circuits once and transpiled for every member that
     * can run it. Submissions reference the returned id.
     */
    WorkloadId registerWorkload(const QuantumCircuit &ansatz,
                                const PauliSum &observable);

    /**
     * Admission-controlled submission. An admitted job schedules an
     * intake event on the loop (fired by the next drain()/run);
     * rejected jobs get a Ticket whose status names the reason and —
     * for capacity rejections — a retryAfterS backpressure hint
     * derived from the ensemble's queue-model wait estimates at the
     * current backlog.
     */
    Ticket submit(const JobRequest &request);

    /**
     * Serve every queued job to completion: run the event loop until
     * idle, then return the outcomes in ascending job-id order.
     * @param pool fan-out pool for shard execution; nullptr means
     *        TaskPool::shared() (sized by EQC_THREADS)
     */
    std::vector<JobOutcome> drain(TaskPool *pool = nullptr);

    /**
     * Streaming drive: run the loop until model time reaches
     * @p limitH (events beyond it stay queued) and return the
     * outcomes completed so far. submit() between runUntil calls
     * joins open work items mid-flight (rider joins); deadline and
     * membership events fire on schedule. drain() remains the batch
     * "run to idle" entry point.
     */
    std::vector<JobOutcome> runUntil(double limitH,
                                     TaskPool *pool = nullptr);

    /**
     * Placement-relevant load right now: queue depth, in-flight
     * shards, alive member count and warm plan-cache keys. See
     * NodeLoad. Not synchronized with a running drain — callers
     * sample it between drains.
     */
    NodeLoad loadSnapshot() const;

    /**
     * Kill member @p member at serving hour @p atH: shards in flight
     * at that hour never return (their work requeues to survivors),
     * and no new shard is planned on it from @p atH on. When
     * supervision is enabled (ServiceOptions::superviseBaseBackoffH),
     * an automatic restore is scheduled with exponential backoff.
     */
    void failMemberAt(std::size_t member, double atH);

    /**
     * Bring a failed member back (e.g. after maintenance). Resets the
     * supervision backoff — a manual restore means someone fixed it.
     */
    void restoreMember(std::size_t member);

    /**
     * Join a new ensemble member live at hour @p atH: every
     * registered workload is compiled for it, it enters planning from
     * @p atH with a cold-start weight ramp
     * (ShotSchedulerOptions::coldStartPenalty/coldStartH), and parked
     * work items get a retry wake-up.
     * @return the new member's index
     */
    std::size_t addMember(Device device, double atH);

    /**
     * Retire member @p member at hour @p atH, gracefully: shards
     * already in flight complete, but no new shard is planned on it
     * from @p atH on (survivors re-weight exactly as after a failure).
     */
    void removeMember(std::size_t member, double atH);

    /**
     * Attach a journal sink observing every lifecycle event (admit,
     * rejection, coalesce, cache hit, dispatch, shard resolution,
     * replan, member health, drain, finalize) — the record/replay
     * hook of src/replay/. nullptr detaches. Zero-cost when unset
     * (one pointer test per event); not owned, must outlive the node.
     * Records are published from the submitting/loop thread only.
     */
    void setJournalSink(replay::JournalSink *sink) { sink_ = sink; }

    replay::JournalSink *journalSink() const { return sink_; }

    std::size_t numMembers() const;

    /** Members that have not failed as of hour @p atH. */
    std::size_t aliveMembers(double atH) const;

    const Device &memberDevice(std::size_t member) const;

    /** Jobs admitted but not yet taken into a work item. */
    std::size_t pendingJobs() const { return queue_.size(); }

    /** Shots executed per member (cache-aware placement telemetry). */
    const std::vector<uint64_t> &memberShotCounts() const
    {
        return memberShots_;
    }

    /**
     * Shards planned onto @p member whose completion/timeout event
     * has not fired yet — the live backlog the queue model prices.
     * Decays at shard resolution, so it is 0 whenever the loop is
     * idle (e.g. after any drain()).
     */
    int memberQueueDepth(std::size_t member) const;

    /**
     * Lifecycle counters, assembled as thin reads off the node's
     * metrics registry (the registry's counters are the single source
     * of truth; this accessor keeps the legacy struct API).
     */
    ServiceCounters counters() const;

    /**
     * The node's metrics registry: every lifecycle counter above plus
     * live load gauges and three histograms, ready for
     * obs::toPrometheus / obs::toJson exposition. The histograms are
     * the node's only streaming latency telemetry:
     * `eqc_service_latency_hours` observes every outcome's latency,
     * `eqc_service_retry_after_seconds` every capacity rejection's
     * hint, and `eqc_service_queue_wait_hours` every executed item's
     * admit-to-dispatch wait. Exact percentiles come from the outcomes
     * and tickets themselves (see exactQuantile in common/stats.h).
     */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    const ServiceOptions &options() const { return options_; }

    /** The serving clock (the one passed in, or the internal one). */
    const Clock &clock() const { return *clock_; }

    /** The node's event loop (advanced drive: runUntil, inspection). */
    EventLoop &loop() { return loop_; }

  private:
    struct Member;
    struct Workload;
    struct Shard;
    struct WorkItem;

    /** One shard of one item, addressed into a batch fan-out. */
    struct ShardRef
    {
        WorkItem *item;
        std::size_t shard;
    };

    /** Compile workload @p w for member @p member (if it can run it). */
    void compileWorkloadForMember(Workload &w, std::size_t member);

    /** Cold-start weight factor of @p member at @p atH (1 = warm). */
    double coldFactor(const Member &m, double atH) const;

    /** Shared body of restoreMember and the supervision path. */
    void restoreMemberInternal(std::size_t member, bool supervised);

    /** Scheduler views of the members eligible for @p w at @p atH. */
    std::vector<MemberView> memberViews(const Workload &w, double atH,
                                        int shotsPerMember) const;

    /** Mean Eq. 2 score of @p member's group circuits for @p w. */
    double workloadPCorrect(const Workload &w, std::size_t member,
                            double atH) const;

    /** Backpressure hint for a rejection observed at depth @p depth. */
    double retryAfterHintS(double atH, std::size_t depth) const;

    /** Publish an Admit/Reject record for @p request (sink_ set). */
    void journalSubmit(const JobRequest &request, const Ticket &ticket,
                       double atH);

    /** Intake event: pop + coalesce + plan + launch everything queued. */
    void intake();

    /** Plan @p shots for @p item at @p atH; false when nobody can. */
    bool planShards(WorkItem &item, int shots, double atH);

    /** Fan a batch of shard computations (any items) through the pool. */
    void executeShards(const std::vector<ShardRef> &batch);

    /** Schedule completion/timeout events for shards >= firstShard. */
    void scheduleShardEvents(WorkItem &item, std::size_t firstShard);

    /** Decay @p member's planned-shard depth as a shard resolves. */
    void resolveMemberDepth(int member);

    /** One shard resolved; finalize or requeue when it was the last. */
    void onShardResolved(WorkItem &item);

    /** Replan an item's failed shots onto survivors (or give up). */
    void requeueFailures(WorkItem &item);

    /** Publish a Replan record for a requeue round (no-op unsunk). */
    void journalReplan(const WorkItem &item, int failedShots,
                       int planned, bool exhausted, double atH);

    /** Aggregate in shard-seq order and complete every rider. */
    void finalizeItem(WorkItem &item);

    /** A job's deadline event fired: shed its work item (or no-op). */
    void onDeadline(uint64_t jobId);

    /** Shed @p item at its deadline: equi-weighted partial finalize. */
    void shedItem(WorkItem &item, uint64_t trigJobId);

    /** Publish a DeadlineShed record at @p atH (no-op unsunk). */
    void journalDeadlineShed(uint64_t jobId, uint64_t uid,
                             int completedShots, int shedShots,
                             double deadlineH, double atH);

    /** Park an unplannable item and schedule its retry event. */
    void parkItem(WorkItem *item, double atH);

    /** Retry planning a parked item (retry event / join wake-up). */
    void retryParked(WorkItem *item);

    /** Wake every parked item (a member joined or restored). */
    void retryParkedItems();

    /** Erase finished items, move out and sort completed outcomes. */
    std::vector<JobOutcome> collectOutcomes();

    /**
     * Registry-backed lifecycle counters. The references alias
     * counters registered in metrics_, so `++counters_.x` increments
     * the registry directly and ServiceCounters is assembled on read.
     */
    struct NodeCounters
    {
        obs::Counter &jobsAdmitted;
        obs::Counter &jobsRejected;
        obs::Counter &rejectedQueueFull;
        obs::Counter &rejectedTenantQuota;
        obs::Counter &rejectedBadRequest;
        obs::Counter &rejectedDeadline;
        obs::Counter &jobsCoalesced;
        obs::Counter &cacheHits;
        obs::Counter &workItems;
        obs::Counter &shardsExecuted;
        obs::Counter &shardsRequeued;
        obs::Counter &shotsExecuted;
        obs::Counter &circuitsExecuted;
        obs::Counter &deadlinesMet;
        obs::Counter &deadlineSheds;
        obs::Counter &shotsShed;
        obs::Counter &ridersJoined;
        obs::Counter &memberJoins;
        obs::Counter &memberLeaves;
        obs::Counter &supervisedRestores;
    };

    /** Non-counter instruments (histograms, live load gauges). */
    struct NodeInstruments
    {
        obs::Histogram *latencyH = nullptr;
        obs::Histogram *queueWaitH = nullptr;
        obs::Histogram *retryAfterS = nullptr;
        obs::Gauge *queueDepth = nullptr;
        obs::Gauge *activeItems = nullptr;
        obs::Gauge *inflightShards = nullptr;
        obs::Gauge *aliveMembers = nullptr;
    };

    static NodeCounters makeCounters(obs::MetricsRegistry &m);
    static NodeInstruments makeInstruments(obs::MetricsRegistry &m);

    ServiceOptions options_;
    VirtualClock ownClock_;
    Clock *clock_;
    EventLoop loop_;
    std::vector<Member> members_;
    std::vector<std::unique_ptr<Workload>> workloads_;
    JobQueue queue_;
    ShotScheduler scheduler_;
    ResultCache cache_;
    Rng rootRng_;
    uint64_t nextJobId_ = 1;
    uint64_t nextWorkId_ = 1;
    std::vector<uint64_t> memberShots_;
    /** Declared before counters_/ins_: they hold handles into it. */
    obs::MetricsRegistry metrics_;
    NodeCounters counters_;
    NodeInstruments ins_;

    /** Work items in flight on the loop (stable addresses). */
    std::vector<std::unique_ptr<WorkItem>> active_;
    /**
     * Open (executing or parked, not finished, not cache-served) work
     * items by key: late submissions with the same (workload, binding)
     * join these as riders instead of opening duplicates — the
     * streaming extension of intake-batch coalescing. Entries are
     * replaced when a newer item opens on the same key and erased at
     * finalize.
     */
    std::unordered_map<WorkKey, WorkItem *, WorkKeyHash> open_;
    /** Item every admitted-and-popped job currently rides. */
    std::unordered_map<uint64_t, WorkItem *> riderItem_;
    /** Pending deadline event id per job (cancelled at finalize). */
    std::unordered_map<uint64_t, uint64_t> deadlineEvents_;
    /** Outcomes completed since the last drain() collected them. */
    std::vector<JobOutcome> completed_;
    /** Shard fan-out pool while the loop runs (drain argument). */
    TaskPool *exec_ = nullptr;
    /** Lifecycle observer (replay journal); nullptr = off. */
    replay::JournalSink *sink_ = nullptr;
};

} // namespace serve
} // namespace eqc

#endif // EQC_SERVE_SERVICE_NODE_H
