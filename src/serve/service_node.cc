#include "serve/service_node.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "common/logging.h"
#include "common/task_pool.h"
#include "device/calibration.h"
#include "replay/journal.h"

namespace eqc {
namespace serve {

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/** One ensemble member: device, backend, failure clock, plan depth. */
struct ServiceNode::Member
{
    Device device;
    std::unique_ptr<SimulatedQpu> backend;
    /** Hour the member dies (infinity = healthy). */
    double failAtH = std::numeric_limits<double>::infinity();
    /** Hour the member joined (-infinity = original lineup). */
    double joinAtH = -std::numeric_limits<double>::infinity();
    /** Hour the member retires from planning (infinity = never). */
    double leaveAtH = std::numeric_limits<double>::infinity();
    /** Failures since the last manual restore (supervision backoff). */
    int consecutiveFails = 0;
    /**
     * Shards planned onto the member whose completion/timeout event
     * has not fired yet (queue pressure). Incremented at planning,
     * decremented as each shard resolves, so requeue rounds and
     * retry-after estimates price the *live* backlog rather than the
     * pressure of the last intake alone.
     */
    int depth = 0;

    bool aliveAt(double atH) const { return atH < failAtH; }

    /** aliveAt plus the membership window: may new shards plan here? */
    bool planEligibleAt(double atH) const
    {
        return aliveAt(atH) && atH >= joinAtH && atH < leaveAtH;
    }
};

/** One registered workload: estimator + per-member compilation. */
struct ServiceNode::Workload
{
    ExpectationEstimator estimator;
    int numParams = 0;
    int numQubits = 0;
    /** Per member: transpiled group circuits (empty = ineligible). */
    std::vector<std::vector<TranspiledCircuit>> compiled;
    /** Per member: duration of one group circuit (microseconds). */
    std::vector<double> durUs;
    /** Per member: Eq. 2 census of each group circuit. */
    std::vector<std::vector<CircuitQuality>> quality;

    Workload(const PauliSum &observable, const QuantumCircuit &ansatz)
        : estimator(observable, ansatz),
          numParams(ansatz.numParams()),
          numQubits(ansatz.numQubits())
    {
    }
};

/** One planned shard execution. */
struct ServiceNode::Shard
{
    int member = -1;
    int shots = 0;
    double startH = 0.0;
    /** Eq. 2 score at planning time (travels into the aggregate). */
    double pCorrect = 0.0;
    /** Member queue depth when planned (latency scaling). */
    int depthAtPlan = 0;
    /** Per-work-item shard sequence (RNG fork label). */
    int seq = 0;
    /**
     * Hour the failure surfaces when the member dies mid-shard (the
     * caller times out at the shard's expected completion).
     */
    double detectH = 0.0;
    /** The shard's completion/timeout event has fired. */
    bool resolved = false;
    ShardResult result;
};

/**
 * One coalesced unit of work and its riders. Lives on the event loop:
 * shards resolve one completion/timeout event at a time, and the item
 * finalizes when its last outstanding shard has resolved.
 */
struct ServiceNode::WorkItem
{
    WorkKey key;
    uint64_t workUid = 0;
    /** Earliest rider submission: when execution can start. */
    double t0 = 0.0;
    /** Latest rider submission: cache freshness is judged here, so a
     *  hit is within TTL for *every* rider, not just the earliest. */
    double tLast = 0.0;
    /** Largest rider budget: what actually executes. */
    int shots = 0;
    /** Riders in pop (priority) order. */
    std::vector<JobQueue::Entry> riders;
    /** Every shard ever planned for the item, in sequence order. */
    std::vector<Shard> shards;
    /** Next RNG fork label for this item's shards. */
    int shardSeq = 0;
    /** Shards whose completion/timeout event has not fired yet. */
    std::size_t outstanding = 0;
    int requeues = 0;
    /** Requeue plans already made for this item. */
    int requeueRound = 0;
    /** Failed shots accumulated since the last (re)queue round. */
    int pendingFailedShots = 0;
    /** Latest failure-detection hour of the pending failures. */
    double pendingDetectH = 0.0;
    bool fromCache = false;
    bool finished = false;
    /** Shards have been handed to members (rider-join cutoff for
     *  budget growth: after dispatch a rider may only ride a budget
     *  no larger than what is executing). */
    bool dispatched = false;
    /** Waiting parked for a member to become plannable. */
    bool parked = false;
    /** Event id of the pending park-retry event (valid when parked). */
    uint64_t retryEventId = 0;
    /** Park-retry rounds consumed (bounded by maxRequeueRounds). */
    int parkRounds = 0;
    /** The item was shed by a deadline event. */
    bool shed = false;
    /** Shots abandoned by the shed. */
    int shedShots = 0;
    /** Hour the shed fired: sampled once so the journal record and
     *  the finalized completion hour agree bit-for-bit even under a
     *  SteadyClock, whose now() keeps moving between the two. */
    double shedAtH = 0.0;
    CachedResult cached;
    Aggregator agg;

    explicit WorkItem(AggregationMode mode) : agg(mode) {}
};

// ---------------------------------------------------------------------------
// Construction / registration
// ---------------------------------------------------------------------------

ServiceNode::ServiceNode(std::vector<Device> devices,
                         ServiceOptions options, Clock *clock)
    : options_(options), clock_(clock ? clock : &ownClock_),
      loop_(*clock_), queue_(options.admission),
      scheduler_(options.scheduler),
      cache_(clock_, options.resultCacheTtlH,
             options.resultCacheCapacity),
      rootRng_(Rng(options.seed).fork("serve")),
      counters_(makeCounters(metrics_)), ins_(makeInstruments(metrics_))
{
    if (devices.empty())
        fatal("ServiceNode: empty device list");
    nextJobId_ = options_.firstJobId ? options_.firstJobId : 1;
    nextWorkId_ = options_.firstWorkUid ? options_.firstWorkUid : 1;
    members_.reserve(devices.size());
    for (Device &dev : devices) {
        Member m;
        m.backend = std::make_unique<SimulatedQpu>(dev, options_.seed);
        m.device = std::move(dev);
        members_.push_back(std::move(m));
    }
    memberShots_.assign(members_.size(), 0);
}

ServiceNode::NodeCounters
ServiceNode::makeCounters(obs::MetricsRegistry &m)
{
    return NodeCounters{
        *m.counter("eqc_service_jobs_admitted_total", "Jobs admitted"),
        *m.counter("eqc_service_jobs_rejected_total", "Jobs rejected"),
        *m.counter("eqc_service_rejected_queue_full_total",
                   "Rejections: node queue at capacity"),
        *m.counter("eqc_service_rejected_tenant_quota_total",
                   "Rejections: tenant at quota"),
        *m.counter("eqc_service_rejected_bad_request_total",
                   "Rejections: malformed request"),
        *m.counter("eqc_service_rejected_deadline_total",
                   "Rejections: deadline already passed"),
        *m.counter("eqc_service_jobs_coalesced_total",
                   "Jobs that rode an identical work item"),
        *m.counter("eqc_service_cache_hits_total",
                   "Jobs answered from the result cache"),
        *m.counter("eqc_service_work_items_total",
                   "Distinct work items executed"),
        *m.counter("eqc_service_shards_executed_total",
                   "Shards completed"),
        *m.counter("eqc_service_shards_requeued_total",
                   "Shards replanned after member failures"),
        *m.counter("eqc_service_shots_executed_total", "Shots executed"),
        *m.counter("eqc_service_circuits_executed_total",
                   "Circuits executed"),
        *m.counter("eqc_service_deadlines_met_total",
                   "Jobs with an SLO that completed inside it"),
        *m.counter("eqc_service_deadline_sheds_total",
                   "Work items shed at their deadline"),
        *m.counter("eqc_service_shots_shed_total",
                   "Shots abandoned by deadline sheds"),
        *m.counter("eqc_service_riders_joined_total",
                   "Jobs that joined a dispatched item mid-flight"),
        *m.counter("eqc_service_member_joins_total",
                   "Members added live"),
        *m.counter("eqc_service_member_leaves_total",
                   "Members retired live"),
        *m.counter("eqc_service_supervised_restores_total",
                   "Automatic supervision restores"),
    };
}

ServiceNode::NodeInstruments
ServiceNode::makeInstruments(obs::MetricsRegistry &m)
{
    NodeInstruments ins;
    ins.latencyH = m.histogram(
        "eqc_service_latency_hours",
        {0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0},
        "Per-job service latency (serving-clock hours)");
    ins.queueWaitH = m.histogram(
        "eqc_service_queue_wait_hours",
        {0.0005, 0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5},
        "Admit-to-first-dispatch wait of executed items (hours)");
    ins.retryAfterS = m.histogram(
        "eqc_service_retry_after_seconds",
        {1.0, 5.0, 15.0, 60.0, 300.0, 900.0, 3600.0},
        "Backpressure hints handed to capacity-rejected jobs");
    ins.queueDepth =
        m.gauge("eqc_service_queue_depth", "Jobs admitted, not popped");
    ins.activeItems =
        m.gauge("eqc_service_active_items", "Work items in flight");
    ins.inflightShards = m.gauge("eqc_service_inflight_shards",
                                 "Planned shards not yet resolved");
    ins.aliveMembers = m.gauge("eqc_service_alive_members",
                               "Members eligible for planning");
    return ins;
}

ServiceCounters
ServiceNode::counters() const
{
    ServiceCounters c;
    c.jobsAdmitted = counters_.jobsAdmitted.value();
    c.jobsRejected = counters_.jobsRejected.value();
    c.rejectedQueueFull = counters_.rejectedQueueFull.value();
    c.rejectedTenantQuota = counters_.rejectedTenantQuota.value();
    c.rejectedBadRequest = counters_.rejectedBadRequest.value();
    c.rejectedDeadline = counters_.rejectedDeadline.value();
    c.jobsCoalesced = counters_.jobsCoalesced.value();
    c.cacheHits = counters_.cacheHits.value();
    c.workItems = counters_.workItems.value();
    c.shardsExecuted = counters_.shardsExecuted.value();
    c.shardsRequeued = counters_.shardsRequeued.value();
    c.shotsExecuted = counters_.shotsExecuted.value();
    c.circuitsExecuted = counters_.circuitsExecuted.value();
    c.deadlinesMet = counters_.deadlinesMet.value();
    c.deadlineSheds = counters_.deadlineSheds.value();
    c.shotsShed = counters_.shotsShed.value();
    c.ridersJoined = counters_.ridersJoined.value();
    c.memberJoins = counters_.memberJoins.value();
    c.memberLeaves = counters_.memberLeaves.value();
    c.supervisedRestores = counters_.supervisedRestores.value();
    return c;
}

ServiceNode::~ServiceNode() = default;

void
ServiceNode::compileWorkloadForMember(Workload &w, std::size_t i)
{
    const Member &m = members_[i];
    if (!m.device.canRun(w.numQubits))
        return;
    w.compiled[i] = w.estimator.compileFor(m.device.coupling);
    w.durUs[i] = circuitDurationUs(w.compiled[i][0].compact,
                                   m.device.baseCalibration,
                                   w.compiled[i][0].compactToPhysical);
    for (const TranspiledCircuit &tc : w.compiled[i])
        w.quality[i].push_back(circuitQuality(tc));
}

WorkloadId
ServiceNode::registerWorkload(const QuantumCircuit &ansatz,
                              const PauliSum &observable)
{
    auto w = std::make_unique<Workload>(observable, ansatz);
    w->compiled.resize(members_.size());
    w->durUs.resize(members_.size(), 0.0);
    w->quality.resize(members_.size());
    std::size_t eligible = 0;
    for (std::size_t i = 0; i < members_.size(); ++i) {
        compileWorkloadForMember(*w, i);
        if (!w->compiled[i].empty())
            ++eligible;
    }
    if (eligible == 0)
        fatal("ServiceNode: no member can run a " +
              std::to_string(w->numQubits) + "-qubit workload");
    workloads_.push_back(std::move(w));
    return static_cast<WorkloadId>(workloads_.size() - 1);
}

// ---------------------------------------------------------------------------
// Submission (admission + backpressure)
// ---------------------------------------------------------------------------

double
ServiceNode::retryAfterHintS(double atH, std::size_t depth) const
{
    // Spread the node-wide backlog across the live ensemble and quote
    // the cheapest member's expected wait at that per-member pressure.
    // Strictly increasing in @p depth: the fractional per-member depth
    // grows with every queued job and every member's expectedWaitS is
    // strictly increasing in it.
    std::size_t alive = 0;
    for (const Member &m : members_)
        if (m.planEligibleAt(atH))
            ++alive;
    const bool anyAlive = alive > 0;
    const double perMember =
        static_cast<double>(depth) /
        static_cast<double>(anyAlive ? alive : members_.size());
    double best = std::numeric_limits<double>::infinity();
    for (const Member &m : members_) {
        if (anyAlive && !m.planEligibleAt(atH))
            continue;
        best = std::min(best,
                        m.backend->queue().expectedWaitS(atH, perMember));
    }
    return best;
}

void
ServiceNode::journalSubmit(const JobRequest &request, const Ticket &t,
                           double atH)
{
    replay::EventRecord r;
    r.kind = t.admitted() ? replay::EventKind::Admit
                          : replay::EventKind::Reject;
    r.tH = atH;
    r.jobId = t.jobId;
    r.tenant = request.tenantId;
    r.workload = request.workload;
    r.shots = request.shots;
    r.priority = request.priority;
    r.submitH = request.submitH;
    r.status = static_cast<int>(t.status);
    r.depth = static_cast<int>(queue_.size());
    r.retryAfterS = t.retryAfterS;
    r.deadlineH = request.deadlineH;
    r.params = request.params;
    // In-memory only (never serialized): lets an attached TraceSink
    // correlate forwarded hops without perturbing journal bytes.
    r.traceId = request.traceId ? request.traceId : t.jobId;
    sink_->record(r);
}

Ticket
ServiceNode::submit(const JobRequest &request)
{
    Ticket t;
    const double atH = std::max(loop_.now(), request.submitH);
    const bool knownWorkload =
        request.workload >= 0 &&
        request.workload < static_cast<WorkloadId>(workloads_.size());
    if (!knownWorkload ||
        static_cast<int>(request.params.size()) !=
            workloads_[request.workload]->numParams) {
        t.status = AdmitStatus::RejectedBadRequest;
        ++counters_.jobsRejected;
        ++counters_.rejectedBadRequest;
        if (sink_)
            journalSubmit(request, t, atH);
        return t;
    }
    if (request.deadlineH > 0.0 && request.deadlineH <= atH) {
        // The SLO is already blown at the front door: rejecting
        // outright beats admitting work guaranteed to shed everything.
        t.status = AdmitStatus::RejectedDeadline;
        ++counters_.jobsRejected;
        ++counters_.rejectedDeadline;
        if (sink_)
            journalSubmit(request, t, atH);
        return t;
    }
    t.status = queue_.admit(request, nextJobId_);
    if (t.admitted()) {
        t.jobId = nextJobId_++;
        ++counters_.jobsAdmitted;
        // The job's intake is an event: the first intake to fire pops
        // and coalesces everything queued by then, later ones find an
        // empty queue and no-op. Under drain() every submission lands
        // before the loop runs, which preserves the batch-coalescing
        // semantics of the synchronous drain bit for bit.
        loop_.scheduleAt(atH, [this] { intake(); });
        if (request.deadlineH > 0.0) {
            // The SLO is an event of its own: it fires before the
            // deadline could be missed silently and sheds whatever is
            // still unresolved. Finalizing inside the SLO cancels it.
            const uint64_t jid = t.jobId;
            deadlineEvents_[jid] = loop_.scheduleAt(
                request.deadlineH, [this, jid] { onDeadline(jid); });
        }
    } else {
        ++counters_.jobsRejected;
        if (t.status == AdmitStatus::RejectedBadRequest) {
            ++counters_.rejectedBadRequest;
        } else {
            if (t.status == AdmitStatus::RejectedQueueFull)
                ++counters_.rejectedQueueFull;
            else
                ++counters_.rejectedTenantQuota;
            t.retryAfterS = retryAfterHintS(atH, queue_.size());
            ins_.retryAfterS->observe(t.retryAfterS);
        }
    }
    ins_.queueDepth->set(static_cast<double>(queue_.size()));
    if (sink_)
        journalSubmit(request, t, atH);
    return t;
}

// ---------------------------------------------------------------------------
// Member health
// ---------------------------------------------------------------------------

void
ServiceNode::failMemberAt(std::size_t member, double atH)
{
    Member &m = members_.at(member);
    m.failAtH = atH;
    if (sink_) {
        replay::EventRecord r;
        r.kind = replay::EventKind::MemberFail;
        r.tH = loop_.now();
        r.member = static_cast<int>(member);
        r.atH = atH;
        sink_->record(r);
    }
    ins_.aliveMembers->set(
        static_cast<double>(aliveMembers(loop_.now())));
    if (options_.superviseBaseBackoffH > 0.0) {
        // Supervision: auto-restore after an exponential backoff that
        // doubles with every failure since the last manual restore —
        // a flapping member earns progressively longer cool-downs.
        const double backoff =
            std::min(options_.superviseMaxBackoffH,
                     options_.superviseBaseBackoffH *
                         std::pow(2.0, m.consecutiveFails));
        ++m.consecutiveFails;
        const double armedFailAtH = atH;
        loop_.scheduleAt(
            atH + backoff, [this, member, armedFailAtH] {
                // Only restore the failure this event was armed for:
                // a manual restore or a newer failure supersedes it.
                if (members_[member].failAtH == armedFailAtH)
                    restoreMemberInternal(member, true);
            });
    }
}

void
ServiceNode::restoreMemberInternal(std::size_t member, bool supervised)
{
    Member &m = members_.at(member);
    m.failAtH = std::numeric_limits<double>::infinity();
    if (supervised)
        ++counters_.supervisedRestores;
    else
        m.consecutiveFails = 0; // a human fixed it: backoff resets
    if (sink_) {
        replay::EventRecord r;
        r.kind = replay::EventKind::MemberRestore;
        r.tH = loop_.now();
        r.member = static_cast<int>(member);
        r.autoRestore = supervised;
        sink_->record(r);
    }
    ins_.aliveMembers->set(
        static_cast<double>(aliveMembers(loop_.now())));
}

void
ServiceNode::restoreMember(std::size_t member)
{
    restoreMemberInternal(member, false);
}

std::size_t
ServiceNode::addMember(Device device, double atH)
{
    const std::size_t index = members_.size();
    const double joinH = std::max(atH, loop_.now());
    Member m;
    m.backend = std::make_unique<SimulatedQpu>(device, options_.seed);
    m.device = std::move(device);
    m.joinAtH = joinH;
    members_.push_back(std::move(m));
    memberShots_.push_back(0);
    for (std::unique_ptr<Workload> &w : workloads_) {
        w->compiled.resize(members_.size());
        w->durUs.resize(members_.size(), 0.0);
        w->quality.resize(members_.size());
        compileWorkloadForMember(*w, index);
    }
    ++counters_.memberJoins;
    if (sink_) {
        replay::EventRecord r;
        r.kind = replay::EventKind::MemberJoin;
        r.tH = loop_.now();
        r.member = static_cast<int>(index);
        r.name = members_[index].device.name;
        r.atH = joinH;
        sink_->record(r);
    }
    ins_.aliveMembers->set(
        static_cast<double>(aliveMembers(loop_.now())));
    // A parked item may become plannable the hour the member joins.
    loop_.scheduleAt(joinH, [this] { retryParkedItems(); });
    return index;
}

void
ServiceNode::removeMember(std::size_t member, double atH)
{
    Member &m = members_.at(member);
    m.leaveAtH = std::max(atH, loop_.now());
    ++counters_.memberLeaves;
    if (sink_) {
        replay::EventRecord r;
        r.kind = replay::EventKind::MemberLeave;
        r.tH = loop_.now();
        r.member = static_cast<int>(member);
        r.atH = m.leaveAtH;
        sink_->record(r);
    }
    ins_.aliveMembers->set(
        static_cast<double>(aliveMembers(loop_.now())));
}

std::size_t
ServiceNode::numMembers() const
{
    return members_.size();
}

std::size_t
ServiceNode::aliveMembers(double atH) const
{
    std::size_t n = 0;
    for (const Member &m : members_)
        if (m.planEligibleAt(atH))
            ++n;
    return n;
}

double
ServiceNode::coldFactor(const Member &m, double atH) const
{
    if (!std::isfinite(m.joinAtH))
        return 1.0; // original lineup: exactly full weight
    const double coldH = std::max(options_.scheduler.coldStartH, 1e-9);
    const double p = std::min(
        std::max(options_.scheduler.coldStartPenalty, 0.0), 1.0);
    const double ramp =
        std::min(std::max((atH - m.joinAtH) / coldH, 0.0), 1.0);
    return p + (1.0 - p) * ramp;
}

const Device &
ServiceNode::memberDevice(std::size_t member) const
{
    return members_.at(member).device;
}

int
ServiceNode::memberQueueDepth(std::size_t member) const
{
    return members_.at(member).depth;
}

double
ServiceNode::workloadPCorrect(const Workload &w, std::size_t member,
                              double atH) const
{
    if (w.quality[member].empty())
        return 0.0;
    const std::shared_ptr<const CalibrationSnapshot> reported =
        members_[member].backend->reportedCalibration(atH);
    double sum = 0.0;
    for (const CircuitQuality &q : w.quality[member])
        sum += pCorrect(q, *reported, options_.pCorrectMode);
    return sum / static_cast<double>(w.quality[member].size());
}

// ---------------------------------------------------------------------------
// Shard planning
// ---------------------------------------------------------------------------

std::vector<MemberView>
ServiceNode::memberViews(const Workload &w, double atH,
                         int shotsPerMember) const
{
    std::vector<MemberView> views;
    views.reserve(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i) {
        const Member &m = members_[i];
        MemberView v;
        v.member = static_cast<int>(i);
        v.available = m.planEligibleAt(atH) && !w.compiled[i].empty();
        if (v.available) {
            v.pCorrect = workloadPCorrect(w, i, atH);
            v.expectedLatencyS = m.backend->queue().expectedLatencyS(
                atH, w.durUs[i], shotsPerMember,
                static_cast<int>(w.compiled[i].size()), m.depth);
            v.planWarm =
                m.backend->planCacheContains(w.compiled[i][0]);
            v.rateScale = coldFactor(m, atH);
        }
        views.push_back(v);
    }
    return views;
}

bool
ServiceNode::planShards(WorkItem &item, int shots, double atH)
{
    const Workload &w = *workloads_[item.key.workload];
    const int guess =
        shots /
        std::max<int>(1, static_cast<int>(aliveMembers(atH)));
    std::vector<MemberView> views = memberViews(w, atH, guess);
    std::vector<ShardPlan> plan = scheduler_.plan(views, shots);
    for (const ShardPlan &p : plan) {
        Shard s;
        s.member = p.member;
        s.shots = p.shots;
        s.startH = atH;
        s.pCorrect = views[static_cast<std::size_t>(p.member)].pCorrect;
        s.depthAtPlan = members_[static_cast<std::size_t>(p.member)].depth;
        s.seq = item.shardSeq++;
        ++members_[static_cast<std::size_t>(p.member)].depth;
        if (sink_) {
            replay::EventRecord r;
            r.kind = replay::EventKind::Dispatch;
            r.tH = atH;
            r.workUid = item.workUid;
            r.member = s.member;
            r.shots = s.shots;
            r.seq = s.seq;
            r.pCorrect = s.pCorrect;
            r.depth = s.depthAtPlan;
            sink_->record(r);
        }
        item.shards.push_back(s);
    }
    item.outstanding += plan.size();
    ins_.inflightShards->add(static_cast<double>(plan.size()));
    return !plan.empty();
}

// ---------------------------------------------------------------------------
// Intake event: coalesce, probe the cache, plan, launch
// ---------------------------------------------------------------------------

void
ServiceNode::intake()
{
    if (queue_.empty())
        return; // an earlier intake event already took everything

    // Member depths are NOT reset here: they decay as shards resolve,
    // so the estimates price this batch's pressure on top of whatever
    // is still in flight from earlier intakes.

    // Pop everything in priority order, coalescing identical
    // (workload, binding) requests into work items.
    std::vector<WorkItem *> fresh;
    std::unordered_map<WorkKey, WorkItem *, WorkKeyHash> open;
    while (!queue_.empty()) {
        JobQueue::Entry e = queue_.pop();
        WorkKey key{e.request.workload, e.request.params};
        auto liveIt = open_.find(key);
        if (liveIt != open_.end() && !liveIt->second->finished) {
            // Streaming rider join: identical work is already open
            // from an earlier intake. Before dispatch the rider can
            // still grow the budget; after dispatch it may only ride
            // a budget no larger than what is executing (the cutoff).
            WorkItem *item = liveIt->second;
            if (!item->dispatched || e.request.shots <= item->shots) {
                if (!item->dispatched) {
                    item->t0 = std::min(item->t0, e.request.submitH);
                    item->shots = std::max(item->shots, e.request.shots);
                }
                item->tLast = std::max(item->tLast, e.request.submitH);
                if (sink_) {
                    replay::EventRecord r;
                    r.kind = replay::EventKind::RiderJoin;
                    r.tH = loop_.now();
                    r.jobId = e.jobId;
                    r.workUid = item->workUid;
                    r.shots = e.request.shots;
                    sink_->record(r);
                }
                ++counters_.ridersJoined;
                riderItem_[e.jobId] = item;
                item->riders.push_back(std::move(e));
                continue;
            }
            // Budget exceeds the executing item's: fall through and
            // open a fresh item for the larger request.
        }
        auto it = open.find(key);
        if (it == open.end()) {
            auto owned = std::make_unique<WorkItem>(options_.aggregation);
            WorkItem *item = owned.get();
            item->key = std::move(key);
            item->workUid = nextWorkId_++;
            item->t0 = e.request.submitH;
            item->tLast = e.request.submitH;
            item->shots = e.request.shots;
            riderItem_[e.jobId] = item;
            item->riders.push_back(std::move(e));
            fresh.push_back(item);
            open.emplace(item->key, item);
            active_.push_back(std::move(owned));
        } else {
            WorkItem *item = it->second;
            item->t0 = std::min(item->t0, e.request.submitH);
            item->tLast = std::max(item->tLast, e.request.submitH);
            item->shots = std::max(item->shots, e.request.shots);
            if (sink_) {
                replay::EventRecord r;
                r.kind = replay::EventKind::Coalesce;
                r.tH = loop_.now();
                r.jobId = e.jobId;
                r.workUid = item->workUid;
                sink_->record(r);
            }
            riderItem_[e.jobId] = item;
            item->riders.push_back(std::move(e));
            // jobsCoalesced is counted at finalize, once the item
            // knows whether it executed or served from cache — every
            // rider lands in exactly one counter category.
        }
    }

    ins_.queueDepth->set(static_cast<double>(queue_.size()));
    ins_.activeItems->add(static_cast<double>(fresh.size()));

    // Cache lookups and shard planning in pop order. All planning
    // happens before any execution so every item of one intake probes
    // the same plan-cache state (and the batch stays bit-identical to
    // the synchronous drain this event decomposition replaced).
    for (WorkItem *item : fresh) {
        if (const CachedResult *hit =
                cache_.lookup(item->key, item->tLast, item->shots)) {
            item->fromCache = true;
            item->cached = *hit;
            counters_.cacheHits += item->riders.size();
            if (sink_) {
                replay::EventRecord r;
                r.kind = replay::EventKind::CacheHit;
                r.tH = std::max(item->tLast, loop_.now());
                r.workUid = item->workUid;
                r.storedAtH = hit->storedAtH;
                r.servedShots = hit->shots;
                r.shots = item->shots;
                r.energy = hit->energy;
                r.riders = static_cast<int>(item->riders.size());
                sink_->record(r);
            }
            continue;
        }
        ++counters_.workItems;
        ins_.queueWaitH->observe(std::max(0.0, loop_.now() - item->t0));
        if (planShards(*item, item->shots, item->t0))
            item->dispatched = true;
    }

    // Launch: cache hits and unserveable items finalize by event
    // (scheduleAt clamps past timestamps to now); every executing
    // item's shards join ONE combined fan-out — batch-wide, like the
    // round the synchronous drain ran — and then resolve one
    // completion event per shard.
    std::vector<ShardRef> batch;
    for (WorkItem *item : fresh) {
        if (item->fromCache) {
            loop_.scheduleAt(item->tLast,
                             [this, item] { finalizeItem(*item); });
        } else if (item->shards.empty()) {
            if (options_.retryUnplannableH > 0.0) {
                // No member can take the work right now (all failed
                // or outside their membership window): park it and
                // retry — a join or restore may make it plannable.
                open_[item->key] = item;
                parkItem(item, item->t0);
            } else {
                loop_.scheduleAt(item->t0,
                                 [this, item] { finalizeItem(*item); });
            }
        } else {
            open_[item->key] = item;
            for (std::size_t i = 0; i < item->shards.size(); ++i)
                batch.push_back(ShardRef{item, i});
        }
    }
    executeShards(batch);
    for (WorkItem *item : fresh)
        if (!item->fromCache && !item->shards.empty())
            scheduleShardEvents(*item, 0);
}

// ---------------------------------------------------------------------------
// Shard execution and per-shard completion events
// ---------------------------------------------------------------------------

void
ServiceNode::executeShards(const std::vector<ShardRef> &batch)
{
    // One fan-out for the whole batch, possibly spanning many work
    // items: each shard owns an RNG stream forked from (work uid,
    // shard seq) — a pure function of ids — and writes only its own
    // slot, so any parallelJobs chunking yields bit-identical
    // results while the pool stays saturated across items.
    if (batch.empty())
        return;
    TaskPool &exec = exec_ ? *exec_ : TaskPool::shared();
    exec.parallelJobs(batch.size(), [&](uint64_t b, uint64_t e) {
        for (uint64_t bi = b; bi < e; ++bi) {
            WorkItem &item = *batch[bi].item;
            Shard &s = item.shards[batch[bi].shard];
            const Workload &w = *workloads_[item.key.workload];
            Member &m = members_[static_cast<std::size_t>(s.member)];
            Rng rng(Rng::forkSeed(
                Rng::forkSeed(rootRng_.seed(), item.workUid),
                static_cast<uint64_t>(s.seq)));
            const int groups =
                static_cast<int>(w.compiled[s.member].size());
            double latS = m.backend->queue().jobLatencyS(
                s.startH, w.durUs[s.member], s.shots, groups, rng,
                s.depthAtPlan);
            double completeH = s.startH + latS / 3600.0;
            s.result.member = s.member;
            s.result.shots = s.shots;
            s.result.pCorrect = s.pCorrect;
            if (!m.aliveAt(completeH)) {
                // The member died between planning and completion:
                // the shard never returns and the caller times out at
                // its expected completion.
                s.result.failed = true;
                s.detectH = std::max(completeH, s.startH);
                continue;
            }
            EnergyEstimate est = w.estimator.estimate(
                *m.backend, w.compiled[s.member], item.key.params,
                s.shots, completeH, rng, options_.shotMode,
                options_.readoutMitigation, &exec);
            s.result.energy = est.energy;
            s.result.variance = est.variance;
            s.result.completeH = completeH;
            s.result.circuitsRun = est.circuitsRun;
            s.result.failed = false;
        }
    });
}

void
ServiceNode::scheduleShardEvents(WorkItem &item, std::size_t firstShard)
{
    for (std::size_t i = firstShard; i < item.shards.size(); ++i) {
        WorkItem *ip = &item;
        const Shard &s = item.shards[i];
        if (s.result.failed) {
            // The failure surfaces when the caller times out at the
            // shard's expected completion.
            loop_.scheduleAt(s.detectH, [this, ip, i] {
                Shard &sh = ip->shards[i];
                sh.resolved = true;
                // A deadline shed may have finalized the item while
                // this event was in flight: the late failure still
                // decays the member's depth, but no longer feeds the
                // requeue machinery.
                const bool late = ip->finished;
                if (!late) {
                    ip->pendingFailedShots += sh.shots;
                    ip->pendingDetectH =
                        std::max(ip->pendingDetectH, sh.detectH);
                }
                resolveMemberDepth(sh.member);
                if (sink_) {
                    replay::EventRecord r;
                    r.kind = replay::EventKind::ShardFail;
                    r.tH = loop_.now();
                    r.workUid = ip->workUid;
                    r.member = sh.member;
                    r.shots = sh.shots;
                    r.seq = sh.seq;
                    r.late = late;
                    sink_->record(r);
                }
                onShardResolved(*ip);
            });
        } else {
            // Per-member completion: each shard finishes on its own
            // schedule — there is no round barrier.
            loop_.scheduleAt(s.result.completeH, [this, ip, i] {
                Shard &sh = ip->shards[i];
                sh.resolved = true;
                // Late completions (after a deadline shed) executed
                // real shots on real hardware: the counters see them
                // even though the aggregate no longer can.
                const bool late = ip->finished;
                ++counters_.shardsExecuted;
                counters_.shotsExecuted +=
                    static_cast<uint64_t>(sh.shots);
                counters_.circuitsExecuted +=
                    static_cast<uint64_t>(sh.result.circuitsRun);
                memberShots_[static_cast<std::size_t>(sh.member)] +=
                    static_cast<uint64_t>(sh.shots);
                resolveMemberDepth(sh.member);
                if (sink_) {
                    replay::EventRecord r;
                    r.kind = replay::EventKind::ShardDone;
                    r.tH = loop_.now();
                    r.workUid = ip->workUid;
                    r.member = sh.member;
                    r.shots = sh.shots;
                    r.seq = sh.seq;
                    r.energy = sh.result.energy;
                    r.variance = sh.result.variance;
                    r.pCorrect = sh.result.pCorrect;
                    r.circuits = sh.result.circuitsRun;
                    r.doneH = sh.result.completeH;
                    r.late = late;
                    sink_->record(r);
                }
                onShardResolved(*ip);
            });
        }
    }
}

void
ServiceNode::resolveMemberDepth(int member)
{
    // One planned shard resolved: the member's live backlog decays.
    int &depth = members_[static_cast<std::size_t>(member)].depth;
    if (depth > 0)
        --depth;
    ins_.inflightShards->add(-1.0);
}

void
ServiceNode::onShardResolved(WorkItem &item)
{
    if (item.outstanding > 0)
        --item.outstanding;
    if (item.finished || item.outstanding > 0)
        return; // late resolution after a shed, or more in flight
    if (item.pendingFailedShots > 0)
        requeueFailures(item);
    else
        finalizeItem(item);
}

// ---------------------------------------------------------------------------
// Requeue event: replan lost shots onto survivors
// ---------------------------------------------------------------------------

void
ServiceNode::requeueFailures(WorkItem &item)
{
    if (item.requeueRound >= options_.maxRequeueRounds) {
        warn("ServiceNode: requeue rounds exhausted for work item " +
             std::to_string(item.workUid) + "; " +
             std::to_string(item.pendingFailedShots) +
             " shots lost (outcome marked degraded)");
        journalReplan(item, item.pendingFailedShots, 0, true,
                      item.pendingDetectH);
        finalizeItem(item);
        return;
    }
    const int failedShots = item.pendingFailedShots;
    const double atH = item.pendingDetectH;
    item.pendingFailedShots = 0;
    item.pendingDetectH = 0.0;
    const std::size_t firstNew = item.shards.size();
    if (!planShards(item, failedShots, atH)) {
        warn("ServiceNode: no surviving member for requeue of work "
             "item " +
             std::to_string(item.workUid));
        journalReplan(item, failedShots, 0, true, atH);
        finalizeItem(item);
        return;
    }
    const std::size_t planned = item.shards.size() - firstNew;
    item.requeues += static_cast<int>(planned);
    counters_.shardsRequeued += static_cast<uint64_t>(planned);
    ++item.requeueRound;
    journalReplan(item, failedShots, static_cast<int>(planned), false,
                  atH);
    std::vector<ShardRef> batch;
    batch.reserve(planned);
    for (std::size_t i = firstNew; i < item.shards.size(); ++i)
        batch.push_back(ShardRef{&item, i});
    executeShards(batch);
    scheduleShardEvents(item, firstNew);
}

void
ServiceNode::journalReplan(const WorkItem &item, int failedShots,
                           int planned, bool exhausted, double atH)
{
    if (!sink_)
        return;
    replay::EventRecord r;
    r.kind = replay::EventKind::Replan;
    r.tH = atH;
    r.workUid = item.workUid;
    r.round = item.requeueRound;
    r.shots = failedShots;
    r.planned = planned;
    r.exhausted = exhausted;
    sink_->record(r);
}

// ---------------------------------------------------------------------------
// Deadline events: graceful shedding at the SLO
// ---------------------------------------------------------------------------

void
ServiceNode::journalDeadlineShed(uint64_t jobId, uint64_t uid,
                                 int completedShots, int shedShots,
                                 double deadlineH, double atH)
{
    if (!sink_)
        return;
    replay::EventRecord r;
    r.kind = replay::EventKind::DeadlineShed;
    r.tH = atH;
    r.jobId = jobId;
    r.workUid = uid;
    r.shots = completedShots;
    r.shedShots = shedShots;
    r.deadlineH = deadlineH;
    sink_->record(r);
}

void
ServiceNode::shedItem(WorkItem &item, uint64_t trigJobId)
{
    double deadH = 0.0;
    for (const JobQueue::Entry &rd : item.riders)
        if (rd.jobId == trigJobId)
            deadH = rd.request.deadlineH;
    item.shed = true;
    item.shedAtH = loop_.now();
    if (item.parked) {
        // Nothing dispatched: cancel the pending retry and shed the
        // whole budget.
        loop_.cancel(item.retryEventId);
        item.parked = false;
        item.shedShots = item.shots;
    } else {
        int completed = 0;
        for (const Shard &s : item.shards)
            if (s.resolved && !s.result.failed)
                completed += s.shots;
        item.shedShots = std::max(0, item.shots - completed);
        item.pendingFailedShots = 0; // lost shots are shed, not replanned
    }
    // Equi-weighted fallback for the partial answer: with the budget
    // truncated mid-flight, the unweighted mean over completed shards
    // is the better-conditioned estimate (the equi-ensemble argument).
    item.agg = Aggregator(AggregationMode::EquiWeighted);
    ++counters_.deadlineSheds;
    counters_.shotsShed += static_cast<uint64_t>(item.shedShots);
    journalDeadlineShed(trigJobId, item.workUid,
                        item.shots - item.shedShots, item.shedShots,
                        deadH, item.shedAtH);
    finalizeItem(item);
}

void
ServiceNode::onDeadline(uint64_t jobId)
{
    deadlineEvents_.erase(jobId);
    JobQueue::Entry entry;
    if (queue_.erase(jobId, &entry)) {
        // The deadline beat the job's own intake event (defensive:
        // intake is scheduled at the submit hour, strictly before any
        // feasible deadline). Shed the entire budget, zero completed.
        WorkKey key{entry.request.workload, entry.request.params};
        const double deadH = entry.request.deadlineH;
        auto owned =
            std::make_unique<WorkItem>(AggregationMode::EquiWeighted);
        WorkItem *item = owned.get();
        item->key = std::move(key);
        item->workUid = nextWorkId_++;
        item->t0 = entry.request.submitH;
        item->tLast = entry.request.submitH;
        item->shots = entry.request.shots;
        item->shed = true;
        item->shedAtH = loop_.now();
        item->shedShots = item->shots;
        item->riders.push_back(std::move(entry));
        active_.push_back(std::move(owned));
        ++counters_.deadlineSheds;
        counters_.shotsShed += static_cast<uint64_t>(item->shedShots);
        journalDeadlineShed(jobId, item->workUid, 0, item->shedShots,
                            deadH, item->shedAtH);
        finalizeItem(*item);
        return;
    }
    auto it = riderItem_.find(jobId);
    if (it == riderItem_.end())
        return; // already finalized: the deadline was met
    WorkItem *item = it->second;
    if (item->finished || item->fromCache || item->shed)
        return; // finalize event already queued, or shed by a co-rider
    shedItem(*item, jobId);
}

// ---------------------------------------------------------------------------
// Park-and-retry: unplannable items wait for membership to recover
// ---------------------------------------------------------------------------

void
ServiceNode::parkItem(WorkItem *item, double atH)
{
    item->parked = true;
    item->retryEventId =
        loop_.scheduleAt(atH + options_.retryUnplannableH,
                         [this, item] { retryParked(item); });
}

void
ServiceNode::retryParked(WorkItem *item)
{
    if (item->finished || !item->parked)
        return; // shed or already retried by a membership event
    item->parked = false;
    const double atH = loop_.now();
    const std::size_t firstNew = item->shards.size();
    if (planShards(*item, item->shots, atH)) {
        item->dispatched = true;
        std::vector<ShardRef> batch;
        batch.reserve(item->shards.size() - firstNew);
        for (std::size_t i = firstNew; i < item->shards.size(); ++i)
            batch.push_back(ShardRef{item, i});
        executeShards(batch);
        scheduleShardEvents(*item, firstNew);
        return;
    }
    if (++item->parkRounds >= options_.maxRequeueRounds) {
        warn("ServiceNode: park rounds exhausted for work item " +
             std::to_string(item->workUid) +
             "; finalizing with no shots (outcome marked degraded)");
        journalReplan(*item, item->shots, 0, true, atH);
        finalizeItem(*item);
        return;
    }
    parkItem(item, atH);
}

void
ServiceNode::retryParkedItems()
{
    // Index loop: retryParked schedules events and may finalize, but
    // never appends to active_ — stay defensive anyway.
    for (std::size_t i = 0; i < active_.size(); ++i) {
        WorkItem *item = active_[i].get();
        if (!item->finished && item->parked) {
            loop_.cancel(item->retryEventId);
            retryParked(item);
        }
    }
}

// ---------------------------------------------------------------------------
// Finalize event: aggregate in shard-sequence order, complete riders
// ---------------------------------------------------------------------------

void
ServiceNode::finalizeItem(WorkItem &item)
{
    double energy, variance, pc, completeH;
    int shotsExec, shardsExec, circuits, primary;
    if (item.fromCache) {
        energy = item.cached.energy;
        variance = item.cached.variance;
        pc = item.cached.pCorrect;
        completeH = item.t0;
        shotsExec = item.cached.shots;
        shardsExec = 0;
        circuits = 0;
        primary = -1;
    } else {
        // Shard results were buffered as their events fired; the
        // aggregate folds them in sequence order, so the combination
        // is independent of completion interleaving (and identical to
        // the synchronous drain's round order). On a shed only the
        // shards that resolved by the deadline can contribute.
        for (const Shard &s : item.shards)
            if (s.resolved)
                item.agg.add(s.result);
        energy = item.agg.energy();
        variance = item.agg.variance();
        pc = item.agg.pCorrect();
        completeH = item.shed ? item.shedAtH : item.agg.completeH();
        shotsExec = item.agg.shotsExecuted();
        shardsExec = item.agg.shardsExecuted();
        circuits = item.agg.circuitsRun();
        primary = item.agg.primaryMember();
        counters_.jobsCoalesced +=
            static_cast<uint64_t>(item.riders.size() - 1);
        if (!item.shed) {
            // A shed answer is partial by construction: caching it
            // would serve degraded results to future full-budget jobs.
            CachedResult cr;
            cr.energy = energy;
            cr.variance = variance;
            cr.pCorrect = pc;
            cr.completeH = completeH;
            cr.shots = shotsExec;
            cache_.store(item.key, cr);
        }
    }
    bool first = true;
    for (const JobQueue::Entry &rider : item.riders) {
        JobOutcome o;
        o.jobId = rider.jobId;
        o.tenantId = rider.request.tenantId;
        o.workload = item.key.workload;
        o.energy = energy;
        o.variance = variance;
        o.pCorrect = pc;
        o.submitH = rider.request.submitH;
        o.completeH =
            item.fromCache ? rider.request.submitH : completeH;
        o.latencyH = std::max(0.0, o.completeH - rider.request.submitH);
        o.shotsExecuted = shotsExec;
        o.shardsExecuted = shardsExec;
        o.requeues = item.requeues;
        o.circuitsRun = circuits;
        o.primaryMember = primary;
        o.coalesced = !first && !item.fromCache;
        o.fromCache = item.fromCache;
        o.degraded =
            !item.fromCache && (shotsExec < item.shots || item.shed);
        o.deadlineH = rider.request.deadlineH;
        o.shedShots = item.shedShots;
        o.shed = item.shed;
        ins_.latencyH->observe(o.latencyH);
        // The rider's SLO resolves here, exactly once: met if the item
        // was not shed, shed otherwise. Cancel the pending deadline
        // event (a no-op for the event that triggered this shed).
        auto dit = deadlineEvents_.find(rider.jobId);
        if (dit != deadlineEvents_.end()) {
            loop_.cancel(dit->second);
            deadlineEvents_.erase(dit);
        }
        if (rider.request.deadlineH > 0.0 && !item.shed)
            ++counters_.deadlinesMet;
        riderItem_.erase(rider.jobId);
        if (sink_) {
            replay::EventRecord r;
            r.kind = replay::EventKind::Finalize;
            r.tH = loop_.now();
            r.jobId = o.jobId;
            r.workUid = item.workUid;
            r.tenant = o.tenantId;
            r.workload = o.workload;
            r.energy = o.energy;
            r.variance = o.variance;
            r.pCorrect = o.pCorrect;
            r.doneH = o.completeH;
            r.shots = o.shotsExecuted;
            r.shardsRun = o.shardsExecuted;
            r.circuits = o.circuitsRun;
            r.round = o.requeues;
            r.degraded = o.degraded;
            r.fromCache = o.fromCache;
            r.coalesced = o.coalesced;
            r.deadlineH = o.deadlineH;
            r.shedShots = o.shedShots;
            r.shed = o.shed;
            sink_->record(r);
        }
        completed_.push_back(std::move(o));
        first = false;
    }
    item.finished = true;
    auto oit = open_.find(item.key);
    if (oit != open_.end() && oit->second == &item)
        open_.erase(oit);
    ins_.activeItems->add(-1.0);
}

// ---------------------------------------------------------------------------
// Drain: run the loop until idle, collect outcomes
// ---------------------------------------------------------------------------

std::vector<JobOutcome>
ServiceNode::collectOutcomes()
{
    // Keep finished items whose late shard events are still pending:
    // those events hold raw pointers into active_.
    active_.erase(
        std::remove_if(active_.begin(), active_.end(),
                       [](const std::unique_ptr<WorkItem> &item) {
                           return item->finished &&
                                  item->outstanding == 0;
                       }),
        active_.end());

    std::vector<JobOutcome> outcomes = std::move(completed_);
    completed_.clear();
    std::sort(outcomes.begin(), outcomes.end(),
              [](const JobOutcome &a, const JobOutcome &b) {
                  return a.jobId < b.jobId;
              });
    return outcomes;
}

std::vector<JobOutcome>
ServiceNode::drain(TaskPool *pool)
{
    if (sink_) {
        replay::EventRecord r;
        r.kind = replay::EventKind::Drain;
        r.tH = loop_.now();
        // Full drains journal no horizon and stay byte-compatible
        // with version-1 journals.
        r.atH = std::numeric_limits<double>::infinity();
        sink_->record(r);
    }
    exec_ = pool ? pool : &TaskPool::shared();
    loop_.run();
    exec_ = nullptr;
    return collectOutcomes();
}

std::vector<JobOutcome>
ServiceNode::runUntil(double limitH, TaskPool *pool)
{
    if (sink_) {
        replay::EventRecord r;
        r.kind = replay::EventKind::Drain;
        r.tH = loop_.now();
        r.atH = limitH;
        sink_->record(r);
    }
    exec_ = pool ? pool : &TaskPool::shared();
    loop_.runUntil(limitH);
    exec_ = nullptr;
    return collectOutcomes();
}

NodeLoad
ServiceNode::loadSnapshot() const
{
    NodeLoad load;
    load.queuedJobs = queue_.size();
    load.activeItems = active_.size();
    const double nowH = loop_.now();
    for (const Member &m : members_) {
        load.inflightShards += m.depth;
        if (!m.planEligibleAt(nowH))
            continue;
        ++load.aliveMembers;
    }
    for (const std::unique_ptr<Workload> &w : workloads_) {
        for (std::size_t i = 0; i < members_.size(); ++i) {
            const Member &m = members_[i];
            if (!m.planEligibleAt(nowH) || w->compiled[i].empty())
                continue;
            if (m.backend->planCacheContains(w->compiled[i][0]))
                ++load.warmKeys;
        }
    }
    return load;
}

} // namespace serve
} // namespace eqc
