/**
 * @file
 * Router — the dispatch tier federating N ServiceNodes.
 *
 * The paper's EQC fronts its QPU fleet with a dispatch daemon: one
 * process that owns admission and placement for every backend, so a
 * workload's traffic lands on the same execution context run after
 * run. This header scales our single ServiceNode to that shape: a
 * Router owns N nodes and consistent-hashes each request's
 * (workload, binding) identity — the WorkKey — onto a virtual-node
 * hash ring. Same key, same home node, so request coalescing and the
 * ResultCache keep their hit rates per keyspace shard instead of
 * being diluted across the federation.
 *
 * Overflow does not queue at a hot node: a capacity rejection carries
 * the node's retry-after backpressure hint, and the Router forwards
 * the request to the key's ring successors (least-loaded first, up to
 * RouterOptions::forwardHops), journaling every hop. Bad-request and
 * deadline rejections are final — forwarding cannot fix those.
 *
 * Concurrency: the Router is the only owner of threads in the
 * serving tier. submit() admits on the caller's thread, one request
 * at a time. With threadedDrain, drain()/runUntil() run the node
 * drains side by side on one Router-owned TaskPool with a participant
 * per node. Nodes are independent — disjoint ensembles, job-id spans
 * and shard pools — so that is bit-identical to draining them one
 * after another, and VirtualClock runs stay bit-deterministic for
 * replay. Journaled runs always drain inline (JournalSink::record is
 * not synchronized across nodes).
 */

#ifndef EQC_SERVE_ROUTER_H
#define EQC_SERVE_ROUTER_H

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/service_node.h"

namespace eqc {
namespace serve {

/** Router configuration. */
struct RouterOptions
{
    /**
     * Virtual nodes per member on the hash ring. More replicas smooth
     * the keyspace split (64 keeps every node within a few tens of
     * percent of the mean share; see tests/test_router.cc).
     */
    int virtualNodes = 64;
    /**
     * Ring successors tried when the home node rejects with a
     * retry-after hint (capacity backpressure). 0 disables
     * forwarding.
     */
    int forwardHops = 2;
    /**
     * Drain the nodes concurrently, one TaskPool participant per node
     * (submissions stay inline either way). Ignored while a journal
     * sink is attached — journaled runs drain inline, in node order.
     */
    bool threadedDrain = false;
    /**
     * Unread: the router draws no randomness of its own (each node
     * seeds itself from ServiceOptions::seed). It stays only because
     * the frozen benchmark workloads (bench/e2e/workloads.cc) set it;
     * delete it with the next change to the benchmark.
     */
    uint64_t seed = 1;
};

/**
 * Monotone router-level counters (a point-in-time read of the
 * registry-backed tier counters; see Router::metrics()).
 */
struct RouterCounters
{
    /** Requests routed (one per Router::submit). */
    uint64_t routed = 0;
    /** Overflow forwards attempted (one per hop). */
    uint64_t forwards = 0;
    /** Requests admitted by a forward target after home rejected. */
    uint64_t forwardAdmits = 0;
    /** Requests rejected by home and every tried successor. */
    uint64_t rejectedEverywhere = 0;
};

/**
 * Consistent-hashing ring of integer node ids with virtual nodes.
 * Deterministic: ring points are splitmix64 mixes of (node, replica),
 * so every process builds the identical ring for the same membership.
 */
class HashRing
{
  public:
    /** Add @p node with @p virtualNodes ring points. */
    void addNode(int node, int virtualNodes);

    /** Remove every ring point of @p node. */
    void removeNode(int node);

    /** Owner of @p keyHash: first ring point clockwise (wrapping). */
    int owner(uint64_t keyHash) const;

    /**
     * Up to @p count distinct nodes after the owner, clockwise — the
     * overflow-forward candidates for @p keyHash.
     */
    std::vector<int> successors(uint64_t keyHash,
                                std::size_t count) const;

    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }

    /** Ring point of (@p node, @p replica) — exposed for tests. */
    static uint64_t pointFor(int node, int replica);

  private:
    /** (point hash, node), sorted by point hash. */
    std::vector<std::pair<uint64_t, int>> points_;
};

/** Dispatch tier over N ServiceNodes (see file comment). */
class Router
{
  public:
    explicit Router(RouterOptions options = {});
    ~Router();

    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /**
     * Add a node fronting @p devices. The router overrides the
     * node's firstJobId/firstWorkUid so node i's ids live in the
     * disjoint span [i * 2^32 + 1, ...) — journals and outcome
     * streams merge without ambiguity. Call before the first
     * submit(); the ring gains RouterOptions::virtualNodes points.
     * @return the new node's index
     */
    std::size_t addNode(std::vector<Device> devices,
                        ServiceOptions options,
                        Clock *clock = nullptr);

    /**
     * Register a workload on every node. Nodes assign ids in
     * registration order, so the returned id is valid fleet-wide.
     */
    WorkloadId registerWorkload(const QuantumCircuit &ansatz,
                                const PauliSum &observable);

    /**
     * Route @p request to its key's home node; on a capacity
     * rejection, forward to up to forwardHops ring successors in
     * ascending NodeLoad::score() order. The Ticket is the final
     * verdict (its jobId names the admitting node via the id span).
     */
    Ticket submit(const JobRequest &request);

    /** Drain every node to idle; outcomes merged in job-id order. */
    std::vector<JobOutcome> drain();

    /** Run every node until model hour @p limitH; merged outcomes. */
    std::vector<JobOutcome> runUntil(double limitH);

    /**
     * Release the threaded-drain pool's threads (idempotent). The
     * next threaded drain creates the pool again.
     */
    void stopServe();

    std::size_t numNodes() const { return nodes_.size(); }

    ServiceNode &node(std::size_t i) { return *nodes_[i].node; }
    const ServiceNode &node(std::size_t i) const
    {
        return *nodes_[i].node;
    }

    /** Ring owner of @p request's (workload, binding) key. */
    int homeNode(const JobRequest &request) const;

    /** Mixed 64-bit hash of a (workload, binding) routing key. */
    static uint64_t keyHash(WorkloadId workload,
                            const std::vector<double> &params);

    const HashRing &ring() const { return ring_; }

    /**
     * Attach a journal sink observing the whole federation: the
     * router publishes Route/Forward records and every node's
     * lifecycle records pass through a stamping wrapper that tags
     * them with the node index (and the routed-request uid on
     * Admit/Reject). Disables threaded drains while attached.
     */
    void setJournalSink(replay::JournalSink *sink);

    replay::JournalSink *journalSink() const { return sink_; }

    /** Thin reads off the router's metrics registry. */
    RouterCounters counters() const;

    /**
     * The router tier's own registry: route/forward/reject counters
     * plus one load-score gauge per node (labelled `node="i"`,
     * refreshed at forward-scoring time and after every drain).
     */
    obs::MetricsRegistry &metrics() { return metrics_; }
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /**
     * One fleet-wide scrape: the router registry plus every node's,
     * each node's samples labelled `node="i"`. Feed to
     * obs::toPrometheus / obs::toJson / obs::diff. This is the fleet's
     * latency view too: every outcome lands in exactly one node's
     * `eqc_service_latency_hours`, so summing the node series counts
     * each job once.
     */
    obs::Snapshot metricsSnapshot() const;

    /** Fleet-wide sums of every node's ServiceCounters. */
    ServiceCounters totals() const;

    /** Shots executed per node (placement telemetry). */
    std::vector<uint64_t> nodeShotTotals() const;

    const RouterOptions &options() const { return options_; }

  private:
    /** Journal wrapper stamping a node id onto every record. */
    class StampSink;

    /** Drains fan out over drainPool_ (threadedDrain and no sink). */
    bool threadedActive() const;

    /** Submit on node @p n with @p ruid stamped on its verdict. */
    Ticket submitToNode(std::size_t n, const JobRequest &request,
                        uint64_t ruid);

    /** Registry-backed tier counters (RouterCounters mirrors these). */
    struct TierCounters
    {
        obs::Counter &routed;
        obs::Counter &forwards;
        obs::Counter &forwardAdmits;
        obs::Counter &rejectedEverywhere;
    };

    static TierCounters makeCounters(obs::MetricsRegistry &m);

    struct NodeSlot
    {
        std::unique_ptr<ServiceNode> node;
        /**
         * The node's own fan-out pool. TaskPool(1) runs shards inline
         * on whichever thread drains, so threaded scaling comes from
         * node-level concurrency, not nested pools fighting over
         * cores.
         */
        std::unique_ptr<TaskPool> pool;
        std::unique_ptr<StampSink> stamp;
        /** Load-score gauge in metrics_, labelled with the node id. */
        obs::Gauge *loadScore = nullptr;
    };

    RouterOptions options_;
    std::vector<NodeSlot> nodes_;
    HashRing ring_;
    replay::JournalSink *sink_ = nullptr;
    // Registry before counters_: the counter references point into it.
    obs::MetricsRegistry metrics_;
    TierCounters counters_;
    /** Next routed-request uid (journal correlation; starts at 1). */
    uint64_t nextRuid_ = 1;
    /** Node-drain fan-out, created by the first threaded drain. */
    std::unique_ptr<TaskPool> drainPool_;
};

} // namespace serve
} // namespace eqc

#endif // EQC_SERVE_ROUTER_H
