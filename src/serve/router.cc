#include "serve/router.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/task_pool.h"
#include "obs/exposition.h"
#include "replay/journal.h"
#include "serve/coalescer.h"

namespace eqc {
namespace serve {

// ---------------------------------------------------------------------------
// HashRing
// ---------------------------------------------------------------------------

uint64_t
HashRing::pointFor(int node, int replica)
{
    // Two mix rounds decorrelate the (node, replica) lattice; a
    // single finalizer round leaves low-replica points clustered.
    const uint64_t a =
        splitmix64(static_cast<uint64_t>(node) + 0x632BE59BD9B4E019ull);
    return splitmix64(a ^ (static_cast<uint64_t>(replica) *
                           0x9E3779B97F4A7C15ull));
}

void
HashRing::addNode(int node, int virtualNodes)
{
    points_.reserve(points_.size() +
                    static_cast<std::size_t>(virtualNodes));
    for (int r = 0; r < virtualNodes; ++r)
        points_.emplace_back(pointFor(node, r), node);
    std::sort(points_.begin(), points_.end());
}

void
HashRing::removeNode(int node)
{
    points_.erase(std::remove_if(points_.begin(), points_.end(),
                                 [node](const auto &p) {
                                     return p.second == node;
                                 }),
                  points_.end());
}

int
HashRing::owner(uint64_t keyHash) const
{
    if (points_.empty())
        return -1;
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(keyHash, std::numeric_limits<int>::min()));
    if (it == points_.end())
        it = points_.begin(); // wrap: the ring is circular
    return it->second;
}

std::vector<int>
HashRing::successors(uint64_t keyHash, std::size_t count) const
{
    std::vector<int> out;
    if (points_.empty() || count == 0)
        return out;
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(keyHash, std::numeric_limits<int>::min()));
    if (it == points_.end())
        it = points_.begin();
    const int home = it->second;
    std::vector<int> seen{home};
    for (std::size_t step = 0;
         step < points_.size() && out.size() < count; ++step) {
        ++it;
        if (it == points_.end())
            it = points_.begin();
        const int n = it->second;
        if (std::find(seen.begin(), seen.end(), n) == seen.end()) {
            seen.push_back(n);
            out.push_back(n);
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Stamping journal wrapper
// ---------------------------------------------------------------------------

/**
 * Wraps the router's sink for one node: every record the node
 * publishes is re-published with the node index stamped on, and —
 * while a routed submission is in flight — the routed-request uid is
 * stamped onto its Admit/Reject verdict. Keeps multi-node journaling
 * out of ServiceNode entirely.
 */
class Router::StampSink final : public replay::JournalSink
{
  public:
    replay::JournalSink *inner = nullptr;
    int node = 0;
    uint64_t pendingRuid = 0;

    void
    record(const replay::EventRecord &r) override
    {
        if (!inner)
            return;
        replay::EventRecord c = r;
        c.node = node;
        if (pendingRuid != 0 &&
            (c.kind == replay::EventKind::Admit ||
             c.kind == replay::EventKind::Reject))
            c.ruid = pendingRuid;
        inner->record(c);
    }
};

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

Router::TierCounters
Router::makeCounters(obs::MetricsRegistry &m)
{
    return TierCounters{
        *m.counter("eqc_router_routed_total",
                   "Requests routed (one per Router::submit)"),
        *m.counter("eqc_router_forwards_total",
                   "Overflow forward hops attempted"),
        *m.counter("eqc_router_forward_admits_total",
                   "Requests a forward target admitted after home "
                   "rejected"),
        *m.counter("eqc_router_rejected_everywhere_total",
                   "Requests rejected by home and every successor"),
    };
}

Router::Router(RouterOptions options)
    : options_(options), counters_(makeCounters(metrics_))
{
}

Router::~Router() = default;

std::size_t
Router::addNode(std::vector<Device> devices, ServiceOptions options,
                Clock *clock)
{
    const std::size_t i = nodes_.size();
    // Disjoint id spans: node i's job ids and work uids start at
    // i * 2^32 + 1, so ids are globally unique across the federation
    // (and node 0 keeps the legacy single-node numbering).
    options.firstJobId = (static_cast<uint64_t>(i) << 32) + 1;
    options.firstWorkUid = (static_cast<uint64_t>(i) << 32) + 1;

    NodeSlot slot;
    slot.node = std::make_unique<ServiceNode>(std::move(devices),
                                              options, clock);
    slot.pool = std::make_unique<TaskPool>(1);
    slot.stamp = std::make_unique<StampSink>();
    slot.stamp->node = static_cast<int>(i);
    slot.stamp->inner = sink_;
    slot.loadScore = metrics_.gauge(
        "eqc_router_node_load_score",
        "Per-node load score steering overflow forwards",
        "node=\"" + std::to_string(i) + "\"");
    if (sink_)
        slot.node->setJournalSink(slot.stamp.get());
    nodes_.push_back(std::move(slot));
    ring_.addNode(static_cast<int>(i), options_.virtualNodes);
    return i;
}

WorkloadId
Router::registerWorkload(const QuantumCircuit &ansatz,
                         const PauliSum &observable)
{
    WorkloadId id = -1;
    for (NodeSlot &s : nodes_) {
        const WorkloadId got =
            s.node->registerWorkload(ansatz, observable);
        id = id < 0 ? got : id; // nodes register in lockstep
    }
    return id;
}

uint64_t
Router::keyHash(WorkloadId workload, const std::vector<double> &params)
{
    WorkKey key;
    key.workload = workload;
    key.params = params;
    // WorkKeyHash is a bitwise FNV over the binding; one splitmix64
    // round spreads it over the ring's full 64-bit keyspace.
    return splitmix64(static_cast<uint64_t>(WorkKeyHash{}(key)));
}

int
Router::homeNode(const JobRequest &request) const
{
    return ring_.owner(keyHash(request.workload, request.params));
}

bool
Router::threadedActive() const
{
    return options_.threadedDrain && sink_ == nullptr &&
           !nodes_.empty();
}

Ticket
Router::submitToNode(std::size_t n, const JobRequest &request,
                     uint64_t ruid)
{
    NodeSlot &s = nodes_[n];
    s.stamp->pendingRuid = ruid;
    const Ticket t = s.node->submit(request);
    s.stamp->pendingRuid = 0;
    return t;
}

Ticket
Router::submit(const JobRequest &request)
{
    if (nodes_.empty())
        return Ticket{}; // no fleet: RejectedBadRequest, no id

    const uint64_t ruid = nextRuid_++;
    // Every hop of one routed request shares a trace id (the ruid,
    // unless the tenant correlated explicitly). In-memory only: the
    // id never reaches journal bytes.
    JobRequest req = request;
    if (req.traceId == 0)
        req.traceId = ruid;
    const uint64_t kh = keyHash(req.workload, req.params);
    const int home = ring_.owner(kh);
    ++counters_.routed;

    if (sink_) {
        replay::EventRecord r;
        r.kind = replay::EventKind::Route;
        r.tH = std::max(nodes_[home].node->loop().now(),
                        req.submitH);
        r.tenant = req.tenantId;
        r.workload = req.workload;
        r.shots = req.shots;
        r.priority = req.priority;
        r.submitH = req.submitH;
        r.deadlineH = req.deadlineH;
        r.params = req.params;
        r.node = home;
        r.ruid = ruid;
        r.traceId = req.traceId;
        sink_->record(r);
    }

    Ticket verdict =
        submitToNode(static_cast<std::size_t>(home), req, ruid);
    if (verdict.admitted() || verdict.retryAfterS <= 0.0)
        return verdict; // admitted, or a rejection forwarding can't fix

    // Capacity overflow: try the key's ring successors, least-loaded
    // first. The stable sort keeps ring order among ties, so the
    // choice is deterministic.
    std::vector<int> cand = ring_.successors(
        kh, static_cast<std::size_t>(std::max(0, options_.forwardHops)));
    std::vector<double> score(cand.size());
    for (std::size_t i = 0; i < cand.size(); ++i) {
        NodeSlot &s = nodes_[static_cast<std::size_t>(cand[i])];
        score[i] = s.node->loadSnapshot().score();
        s.loadScore->set(score[i]);
    }
    std::vector<std::size_t> order(cand.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&score](std::size_t a, std::size_t b) {
                         return score[a] < score[b];
                     });

    int prev = home;
    for (std::size_t oi : order) {
        const int target = cand[oi];
        ++counters_.forwards;
        if (sink_) {
            replay::EventRecord r;
            r.kind = replay::EventKind::Forward;
            r.tH = std::max(
                nodes_[static_cast<std::size_t>(target)].node->loop()
                    .now(),
                req.submitH);
            r.fromNode = prev;
            r.retryAfterS = verdict.retryAfterS;
            r.node = target;
            r.ruid = ruid;
            r.traceId = req.traceId;
            sink_->record(r);
        }
        const Ticket t = submitToNode(static_cast<std::size_t>(target),
                                      req, ruid);
        if (t.admitted()) {
            ++counters_.forwardAdmits;
            return t;
        }
        if (t.retryAfterS <= 0.0)
            return t; // final rejection: stop forwarding
        verdict = t;
        prev = target;
    }
    ++counters_.rejectedEverywhere;
    return verdict;
}

std::vector<JobOutcome>
Router::drain()
{
    return runUntil(std::numeric_limits<double>::infinity());
}

std::vector<JobOutcome>
Router::runUntil(double limitH)
{
    // Each node drains into its own slot. Nodes are independent
    // (disjoint ensembles, id spans and pools), so running them side
    // by side gives the same bits as running them one after another.
    std::vector<std::vector<JobOutcome>> got(nodes_.size());
    auto drainNodes = [&](uint64_t b, uint64_t e) {
        for (uint64_t i = b; i < e; ++i) {
            NodeSlot &s = nodes_[i];
            got[i] = std::isfinite(limitH)
                         ? s.node->runUntil(limitH, s.pool.get())
                         : s.node->drain(s.pool.get());
        }
    };
    if (threadedActive()) {
        if (!drainPool_)
            drainPool_ = std::make_unique<TaskPool>(
                static_cast<int>(nodes_.size()));
        drainPool_->parallelJobs(nodes_.size(), drainNodes);
    } else {
        drainNodes(0, nodes_.size());
    }
    std::vector<JobOutcome> all;
    for (std::vector<JobOutcome> &g : got)
        all.insert(all.end(), g.begin(), g.end());
    // Node id-spans make job ids globally unique, so job-id order is
    // a total order — the same merge whichever mode produced it.
    std::sort(all.begin(), all.end(),
              [](const JobOutcome &a, const JobOutcome &b) {
                  return a.jobId < b.jobId;
              });
    for (NodeSlot &s : nodes_)
        s.loadScore->set(s.node->loadSnapshot().score());
    return all;
}

void
Router::stopServe()
{
    drainPool_.reset();
}

void
Router::setJournalSink(replay::JournalSink *sink)
{
    sink_ = sink;
    for (NodeSlot &s : nodes_) {
        s.stamp->inner = sink;
        s.node->setJournalSink(sink ? s.stamp.get() : nullptr);
    }
}

RouterCounters
Router::counters() const
{
    RouterCounters c;
    c.routed = counters_.routed.value();
    c.forwards = counters_.forwards.value();
    c.forwardAdmits = counters_.forwardAdmits.value();
    c.rejectedEverywhere = counters_.rejectedEverywhere.value();
    return c;
}

obs::Snapshot
Router::metricsSnapshot() const
{
    std::vector<std::pair<std::string, obs::Snapshot>> parts;
    parts.reserve(nodes_.size() + 1);
    parts.emplace_back("", metrics_.snapshot());
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        parts.emplace_back("node=\"" + std::to_string(i) + "\"",
                           nodes_[i].node->metrics().snapshot());
    return obs::merge(parts);
}

ServiceCounters
Router::totals() const
{
    ServiceCounters t;
    for (const NodeSlot &s : nodes_) {
        const ServiceCounters &c = s.node->counters();
        t.jobsAdmitted += c.jobsAdmitted;
        t.jobsRejected += c.jobsRejected;
        t.rejectedQueueFull += c.rejectedQueueFull;
        t.rejectedTenantQuota += c.rejectedTenantQuota;
        t.rejectedBadRequest += c.rejectedBadRequest;
        t.rejectedDeadline += c.rejectedDeadline;
        t.jobsCoalesced += c.jobsCoalesced;
        t.cacheHits += c.cacheHits;
        t.workItems += c.workItems;
        t.shardsExecuted += c.shardsExecuted;
        t.shardsRequeued += c.shardsRequeued;
        t.shotsExecuted += c.shotsExecuted;
        t.circuitsExecuted += c.circuitsExecuted;
        t.deadlinesMet += c.deadlinesMet;
        t.deadlineSheds += c.deadlineSheds;
        t.shotsShed += c.shotsShed;
        t.ridersJoined += c.ridersJoined;
        t.memberJoins += c.memberJoins;
        t.memberLeaves += c.memberLeaves;
        t.supervisedRestores += c.supervisedRestores;
    }
    return t;
}

std::vector<uint64_t>
Router::nodeShotTotals() const
{
    std::vector<uint64_t> out;
    out.reserve(nodes_.size());
    for (const NodeSlot &s : nodes_) {
        uint64_t shots = 0;
        for (uint64_t m : s.node->memberShotCounts())
            shots += m;
        out.push_back(shots);
    }
    return out;
}

} // namespace serve
} // namespace eqc
