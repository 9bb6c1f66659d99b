/**
 * @file
 * Deterministic replay journal for the serving layer.
 *
 * The paper's EQC runs a monitoring daemon that watches ensemble
 * members and reacts to drift and failures at runtime; our ServiceNode
 * has all of those reactions (mid-run kills, requeue onto survivors,
 * retry-after backpressure, clock-stamped caches) and — under a
 * VirtualClock — executes them bit-deterministically. This header
 * turns that determinism into an operational artifact:
 *
 *  - EventRecord / EventKind: one compact timestamped record per
 *    ServiceNode lifecycle event (admit, rejection with reason and
 *    retry-after, coalesce, cache hit, shard dispatch, shard
 *    completion, failure timeout, replan, member kill/restore, drain,
 *    finalize).
 *  - JournalSink: the observer interface ServiceNode publishes
 *    records through. Attaching a sink is opt-in and zero-cost when
 *    unset (a null-pointer check per event).
 *  - EventJournal: a sink that buffers records next to a
 *    JournalConfig describing how to rebuild the node (devices, drift
 *    overrides, options, workloads), with a stable JSONL
 *    serialization. Doubles round-trip *exactly* (%.17g), so a
 *    journal parsed back from text replays to hex-bit-identical
 *    results (replay::Replayer) and any failing chaos seed
 *    reproduces from its journal artifact alone.
 *
 * The config holds the node's serve::ServiceOptions itself, so this
 * header includes serve/service_node.h (which only forward-declares
 * JournalSink); the serve layer's .cc files include it to publish
 * records, and the replay layer's heavier pieces (Replayer,
 * ChaosEngine, InvariantChecker) sit on top.
 */

#ifndef EQC_REPLAY_JOURNAL_H
#define EQC_REPLAY_JOURNAL_H

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "serve/service_node.h"

namespace eqc {
namespace replay {

/** ServiceNode lifecycle event taxonomy (see docs/ARCHITECTURE.md). */
enum class EventKind {
    /** Job admitted; carries the full request so replay can resubmit. */
    Admit,
    /** Job rejected; carries the reason, backlog depth and retry hint. */
    Reject,
    /** A popped job rode an already-open work item (same key). */
    Coalesce,
    /** A work item was answered from the ResultCache. */
    CacheHit,
    /** One shard planned onto a member (intake or requeue round). */
    Dispatch,
    /** A shard's completion event fired with a surviving result. */
    ShardDone,
    /** A shard's failure timeout fired (member died mid-shard). */
    ShardFail,
    /** A requeue round replanned lost shots (or gave up: exhausted). */
    Replan,
    /** failMemberAt(member, atH) was called. */
    MemberFail,
    /** restoreMember(member) was called. */
    MemberRestore,
    /** drain() or runUntil() started running the loop. */
    Drain,
    /** One rider's JobOutcome was produced. */
    Finalize,
    /** A deadline event shed a work item (or a still-queued job). */
    DeadlineShed,
    /** addMember(device, atH) was called. */
    MemberJoin,
    /** removeMember(member, atH) was called. */
    MemberLeave,
    /** A job joined an already-dispatched work item mid-flight. */
    RiderJoin,
    /** Router chose a home node for a request (carries the request). */
    Route,
    /** Router forwarded a capacity-rejected request to a successor. */
    Forward,
};

/** Stable wire name of @p kind (the JSONL "k" field). */
const char *kindName(EventKind kind);

/**
 * One journal record. Sparse: each kind fills only the fields its
 * serialization emits (see journal.cc); the rest keep their zero
 * defaults. Times are serving-clock hours.
 */
struct EventRecord
{
    EventKind kind = EventKind::Drain;
    /** Loop hour the event was recorded at. */
    double tH = 0.0;

    uint64_t jobId = 0;
    uint64_t workUid = 0;
    int tenant = 0;
    int workload = -1;
    int member = -1;
    int shots = 0;
    /** Shots the cached execution covered (CacheHit). */
    int servedShots = 0;
    int seq = 0;
    /** Requeue round (Replan) / requeues (Finalize). */
    int round = 0;
    /** Shards planned this round (Replan). */
    int planned = 0;
    int circuits = 0;
    /** Surviving shards aggregated (Finalize). */
    int shardsRun = 0;
    int priority = 0;
    /** AdmitStatus as int (Reject). */
    int status = 0;
    /** Backlog depth observed (Reject) / member depth (Dispatch). */
    int depth = 0;
    /** Riders on the item (CacheHit). */
    int riders = 0;

    double submitH = 0.0;
    /**
     * Hour the member dies (MemberFail), joins (MemberJoin), leaves
     * (MemberLeave), or the runUntil limit (Drain; +inf = full drain).
     */
    double atH = 0.0;
    /** Store stamp of the served cache entry (CacheHit). */
    double storedAtH = 0.0;
    /** Completion hour (ShardDone/Finalize). */
    double doneH = 0.0;
    double retryAfterS = 0.0;
    double energy = 0.0;
    double variance = 0.0;
    double pCorrect = 0.0;

    bool degraded = false;
    bool fromCache = false;
    bool coalesced = false;
    /** Requeue gave up (Replan). */
    bool exhausted = false;

    /** Deadline carried by the request (Admit/Reject/DeadlineShed/
     *  Finalize; 0 = none). */
    double deadlineH = 0.0;
    /** Shots abandoned by a shed (DeadlineShed/Finalize). */
    int shedShots = 0;
    /** Outcome was deadline-shed (Finalize). */
    bool shed = false;
    /** Shard resolved after its item was already finalized
     *  (ShardDone/ShardFail). */
    bool late = false;
    /** Restore performed by the supervision path (MemberRestore). */
    bool autoRestore = false;
    /** Catalog device name (MemberJoin). */
    std::string name;

    /** Parameter binding (Admit/Reject/Route; bitwise identity). */
    std::vector<double> params;

    /**
     * Node the event happened on (any kind, multi-node journals;
     * Route: the ring-owner target, Forward: the forward target).
     * 0 = the single/first node, so single-node journals stay
     * byte-identical to the pre-router wire format.
     */
    int node = 0;
    /**
     * Router-assigned routed-request uid (Route/Forward, and stamped
     * onto the Admit/Reject chain of a routed request). 0 = not
     * routed; routed uids start at 1.
     */
    uint64_t ruid = 0;
    /** Node the request was forwarded away from (Forward). */
    int fromNode = -1;
    /**
     * Trace id of the job this record belongs to (Admit; from
     * serve::JobRequest::traceId, defaulting to the jobId). In-memory
     * only: never serialized, so journals are byte-identical whether
     * or not a live trace collector (obs::TraceSink) is attached, and
     * parsed journals fall back to the jobId.
     */
    uint64_t traceId = 0;
};

/**
 * Observer hook ServiceNode publishes lifecycle records through.
 * record() is called on the submitting/loop thread only (never from
 * parallel shard workers), so implementations need no locking when
 * the node is driven single-threaded as usual.
 */
class JournalSink
{
  public:
    virtual ~JournalSink() = default;
    virtual void record(const EventRecord &r) = 0;
};

/** One ensemble member of a journaled node, by catalog name. */
struct DeviceSpec
{
    std::string name;
    /** Chaos drift-spike override; < 0 means no override. */
    double spikeRatePerHour = -1.0;
    double spikeSeverity = -1.0;
    /** Node the member belongs to (multi-node journals; 0 = first). */
    int node = 0;
};

/** One registered workload, by problem-factory name. */
struct WorkloadSpec
{
    std::string problem;
    uint64_t initSeed = 7;
};

/**
 * Everything needed to rebuild the recorded node: its options, the
 * device and workload lineup, and (routed journals) the router's
 * shape.
 */
struct JournalConfig
{
    int version = 1;
    /** "virtual" or "steady" — bit-replay is meaningful for virtual. */
    std::string clock = "virtual";
    /**
     * The recorded node's options; routed journals give every node the
     * same ones. firstJobId/firstWorkUid are not serialized (a Router
     * assigns them).
     */
    serve::ServiceOptions options;
    /** Seed the device catalog was built with. */
    uint64_t catalogSeed = 2022;
    /**
     * Router-tier shape (1 node = no router; the fields below are
     * only serialized when nodes > 1, keeping single-node journals
     * byte-identical to the pre-router wire format).
     */
    int nodes = 1;
    /** Virtual nodes per member on the router's hash ring. */
    int virtualNodes = 64;
    /** Max overflow-forward hops per routed request. */
    int forwardHops = 2;
    std::vector<DeviceSpec> devices;
    std::vector<WorkloadSpec> workloads;
};

/**
 * Buffering JournalSink with a stable JSONL serialization: one flat
 * JSON object per line, config/device/workload pseudo-records first,
 * then the event records in publication order. serialize() and
 * parse() round-trip exactly (doubles printed with %.17g), so
 * parse(serialize()) compares bit-equal field by field.
 */
class EventJournal final : public JournalSink
{
  public:
    JournalConfig config;

    void record(const EventRecord &r) override
    {
        records_.push_back(r);
    }

    const std::vector<EventRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    void clear() { records_.clear(); }

    /** JSONL text of the config and every record. */
    std::string serialize() const;

    /**
     * Parse JSONL produced by serialize(). On malformed input @p err
     * (if non-null) receives a message and the journal returned holds
     * whatever parsed cleanly before the error.
     */
    static EventJournal parse(const std::string &text,
                              std::string *err = nullptr);

  private:
    std::vector<EventRecord> records_;
};

/** Bit pattern of a double (journal identity is bitwise). */
inline uint64_t
doubleBits(double v)
{
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Bitwise double equality (distinguishes -0.0, compares NaN equal). */
inline bool
bitEqual(double a, double b)
{
    return doubleBits(a) == doubleBits(b);
}

/** "0x..." hex of a double's bit pattern (mismatch diagnostics). */
std::string hexBits(double v);

} // namespace replay
} // namespace eqc

#endif // EQC_REPLAY_JOURNAL_H
