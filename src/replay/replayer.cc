#include "replay/replayer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/logging.h"
#include "serve/router.h"

namespace eqc {
namespace replay {

// ---------------------------------------------------------------------------
// Config builders
// ---------------------------------------------------------------------------

std::vector<Device>
devicesFor(const JournalConfig &c, int node)
{
    std::vector<Device> devices;
    devices.reserve(c.devices.size());
    for (const DeviceSpec &spec : c.devices) {
        if (node >= 0 && spec.node != node)
            continue;
        Device dev = deviceByName(spec.name, c.catalogSeed);
        if (spec.spikeRatePerHour >= 0.0 || spec.spikeSeverity >= 0.0)
            dev.drift = dev.drift.spiked(spec.spikeRatePerHour,
                                         spec.spikeSeverity);
        devices.push_back(std::move(dev));
    }
    return devices;
}

VqaProblem
problemByName(const std::string &name, uint64_t initSeed)
{
    if (name == "heisenberg_vqe")
        return makeHeisenbergVqe(initSeed);
    if (name == "ring_maxcut_qaoa")
        return makeRingMaxCutQaoa(initSeed);
    fatal("replay: unknown workload problem '" + name + "'");
    return VqaProblem{}; // unreachable
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

namespace {

std::string
fieldMismatch(uint64_t jobId, const char *field, double got,
              double want)
{
    return "job " + std::to_string(jobId) + ": " + field +
           " replayed " + hexBits(got) + " recorded " + hexBits(want);
}

std::string
intMismatch(uint64_t jobId, const char *field, long long got,
            long long want)
{
    return "job " + std::to_string(jobId) + ": " + field +
           " replayed " + std::to_string(got) + " recorded " +
           std::to_string(want);
}

/** The request an Admit, Reject or Route record carries verbatim. */
serve::JobRequest
requestOf(const EventRecord &r)
{
    serve::JobRequest req;
    req.tenantId = r.tenant;
    req.workload = r.workload;
    req.params = r.params;
    req.shots = r.shots;
    req.priority = r.priority;
    req.submitH = r.submitH;
    req.deadlineH = r.deadlineH;
    return req;
}

/** Compare replayed @p outcomes against the journal's Finalizes. */
void
compareFinalizes(const EventJournal &journal,
                 const std::vector<serve::JobOutcome> &outcomes,
                 ReplayResult &res)
{
    std::unordered_map<uint64_t, const EventRecord *> finals;
    for (const EventRecord &r : journal.records())
        if (r.kind == EventKind::Finalize)
            finals.emplace(r.jobId, &r);
    for (const serve::JobOutcome &o : outcomes) {
        auto it = finals.find(o.jobId);
        if (it == finals.end()) {
            res.mismatches.push_back(
                "job " + std::to_string(o.jobId) +
                ": replay produced an outcome the journal never "
                "finalized");
            continue;
        }
        const EventRecord &f = *it->second;
        ++res.jobsCompared;
        if (!bitEqual(o.energy, f.energy))
            res.mismatches.push_back(
                fieldMismatch(o.jobId, "energy", o.energy, f.energy));
        if (!bitEqual(o.variance, f.variance))
            res.mismatches.push_back(fieldMismatch(
                o.jobId, "variance", o.variance, f.variance));
        if (!bitEqual(o.pCorrect, f.pCorrect))
            res.mismatches.push_back(fieldMismatch(
                o.jobId, "pCorrect", o.pCorrect, f.pCorrect));
        if (!bitEqual(o.completeH, f.doneH))
            res.mismatches.push_back(fieldMismatch(
                o.jobId, "completeH", o.completeH, f.doneH));
        if (o.shotsExecuted != f.shots)
            res.mismatches.push_back(intMismatch(
                o.jobId, "shotsExecuted", o.shotsExecuted, f.shots));
        if (o.shardsExecuted != f.shardsRun)
            res.mismatches.push_back(
                intMismatch(o.jobId, "shardsExecuted",
                            o.shardsExecuted, f.shardsRun));
        if (o.circuitsRun != f.circuits)
            res.mismatches.push_back(intMismatch(
                o.jobId, "circuitsRun", o.circuitsRun, f.circuits));
        if (o.requeues != f.round)
            res.mismatches.push_back(intMismatch(
                o.jobId, "requeues", o.requeues, f.round));
        if (o.shedShots != f.shedShots)
            res.mismatches.push_back(intMismatch(
                o.jobId, "shedShots", o.shedShots, f.shedShots));
        if (o.degraded != f.degraded || o.fromCache != f.fromCache ||
            o.coalesced != f.coalesced || o.shed != f.shed)
            res.mismatches.push_back(
                "job " + std::to_string(o.jobId) +
                ": outcome flags diverge from the record");
        finals.erase(it);
    }
    for (const auto &kv : finals)
        res.mismatches.push_back(
            "job " + std::to_string(kv.first) +
            ": journal finalized it but the replay never did");
}

} // namespace

ReplayResult
Replayer::run(TaskPool *pool) const
{
    ReplayResult res;
    const JournalConfig &c = journal_.config;
    if (c.devices.empty()) {
        res.mismatches.push_back("journal config lists no devices");
        return res;
    }

    // Rebuild the recorded target: one ServiceNode, or (nodes > 1) a
    // Router fleet with each node's own members.
    std::unique_ptr<serve::Router> router;
    std::unique_ptr<serve::ServiceNode> single;
    std::vector<serve::ServiceNode *> nodes;
    if (c.nodes > 1) {
        for (const DeviceSpec &spec : c.devices) {
            if (spec.node < 0 || spec.node >= c.nodes) {
                res.mismatches.push_back(
                    "device '" + spec.name + "' names node " +
                    std::to_string(spec.node) +
                    " outside the fleet of " + std::to_string(c.nodes));
                return res;
            }
        }
        serve::RouterOptions ro;
        ro.virtualNodes = c.virtualNodes;
        ro.forwardHops = c.forwardHops;
        router = std::make_unique<serve::Router>(ro);
        for (int n = 0; n < c.nodes; ++n) {
            std::vector<Device> devices = devicesFor(c, n);
            if (devices.empty()) {
                res.mismatches.push_back(
                    "journal config lists no devices for node " +
                    std::to_string(n));
                return res;
            }
            nodes.push_back(&router->node(
                router->addNode(std::move(devices), c.options)));
        }
    } else {
        single = std::make_unique<serve::ServiceNode>(devicesFor(c),
                                                      c.options);
        nodes.push_back(single.get());
    }
    for (const WorkloadSpec &w : c.workloads) {
        VqaProblem p = problemByName(w.problem, w.initSeed);
        if (router)
            router->registerWorkload(p.ansatz, p.hamiltonian);
        else
            single->registerWorkload(p.ansatz, p.hamiltonian);
    }
    // Fleet nodes drain on their own single-thread pools.
    auto runTo = [&](double limitH) {
        if (router)
            return std::isfinite(limitH) ? router->runUntil(limitH)
                                         : router->drain();
        return std::isfinite(limitH) ? single->runUntil(limitH, pool)
                                     : single->drain(pool);
    };

    // Terminal verdict of each routed request: the last Admit/Reject
    // stamped with its ruid (the chain's end after any forwards).
    std::unordered_map<uint64_t, const EventRecord *> terminal;
    for (const EventRecord &r : journal_.records())
        if ((r.kind == EventKind::Admit ||
             r.kind == EventKind::Reject) &&
            r.ruid != 0)
            terminal[r.ruid] = &r;

    // Re-drive the recorded stimulus in publication order: requests
    // (admission verdicts are part of the contract), member health
    // and membership transitions, and drains. Everything else is
    // derived and verified via the Finalizes below.
    std::vector<serve::JobOutcome> outcomes;
    for (const EventRecord &r : journal_.records()) {
        switch (r.kind) {
        case EventKind::Admit:
        case EventKind::Reject: {
            // A routed verdict is re-derived from its Route record.
            if (router)
                break;
            serve::Ticket t = single->submit(requestOf(r));
            if (static_cast<int>(t.status) != r.status)
                res.mismatches.push_back(intMismatch(
                    r.jobId, "admit status",
                    static_cast<int>(t.status), r.status));
            else if (r.kind == EventKind::Admit && t.jobId != r.jobId)
                res.mismatches.push_back(
                    intMismatch(r.jobId, "job id",
                                static_cast<long long>(t.jobId),
                                static_cast<long long>(r.jobId)));
            break;
        }
        case EventKind::Route: {
            // The router re-derives the home node, forwards and
            // verdict; the chain's terminal verdict must match.
            if (!router)
                break;
            const serve::Ticket t = router->submit(requestOf(r));
            auto it = terminal.find(r.ruid);
            if (it == terminal.end()) {
                res.mismatches.push_back(
                    "ruid " + std::to_string(r.ruid) +
                    ": routed but the journal records no verdict");
                break;
            }
            const EventRecord &vr = *it->second;
            if (static_cast<int>(t.status) != vr.status)
                res.mismatches.push_back(intMismatch(
                    vr.jobId, "routed admit status",
                    static_cast<int>(t.status), vr.status));
            else if (vr.kind == EventKind::Admit &&
                     t.jobId != vr.jobId)
                res.mismatches.push_back(
                    intMismatch(vr.jobId, "routed job id",
                                static_cast<long long>(t.jobId),
                                static_cast<long long>(vr.jobId)));
            break;
        }
        case EventKind::MemberFail:
        case EventKind::MemberRestore:
        case EventKind::MemberJoin:
        case EventKind::MemberLeave: {
            // Supervised restores are produced by the node's own
            // backoff events — re-driving them would double-restore.
            if (r.kind == EventKind::MemberRestore && r.autoRestore)
                break;
            if (router && (r.node < 0 || static_cast<std::size_t>(
                                             r.node) >= nodes.size())) {
                res.mismatches.push_back(
                    std::string(kindName(r.kind)) +
                    " record names node " + std::to_string(r.node) +
                    " outside the fleet");
                break;
            }
            serve::ServiceNode &node =
                *nodes[router ? static_cast<std::size_t>(r.node) : 0];
            if (r.kind == EventKind::MemberJoin) {
                node.addMember(deviceByName(r.name, c.catalogSeed),
                               r.atH);
                break;
            }
            if (r.member < 0 || static_cast<std::size_t>(r.member) >=
                                    node.numMembers()) {
                res.mismatches.push_back(
                    std::string(kindName(r.kind)) +
                    " record names member " + std::to_string(r.member) +
                    " outside its node's " +
                    std::to_string(node.numMembers()) + " members");
                break;
            }
            const auto m = static_cast<std::size_t>(r.member);
            if (r.kind == EventKind::MemberFail)
                node.failMemberAt(m, r.atH);
            else if (r.kind == EventKind::MemberRestore)
                node.restoreMember(m);
            else
                node.removeMember(m, r.atH);
            break;
        }
        case EventKind::Drain: {
            // A router drain journals one Drain per node, in node
            // order; node 0's record is the cue to re-drive the whole
            // fleet drain, the others are its echoes.
            if (router && r.node != 0)
                break;
            std::vector<serve::JobOutcome> got = runTo(r.atH);
            outcomes.insert(outcomes.end(), got.begin(), got.end());
            break;
        }
        default:
            break;
        }
    }
    // Journals normally end on a drained loop; tolerate a live
    // capture cut mid-stream by finishing the pending work.
    if (std::any_of(nodes.begin(), nodes.end(),
                    [](serve::ServiceNode *node) {
                        return node->pendingJobs() > 0 ||
                               !node->loop().empty();
                    })) {
        std::vector<serve::JobOutcome> got =
            runTo(std::numeric_limits<double>::infinity());
        outcomes.insert(outcomes.end(), got.begin(), got.end());
    }

    compareFinalizes(journal_, outcomes, res);
    return res;
}

} // namespace replay
} // namespace eqc
