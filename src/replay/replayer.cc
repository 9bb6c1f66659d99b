#include "replay/replayer.h"

#include <cmath>
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

/**
 * Routed replay (config.nodes > 1): rebuild the Router fleet, re-drive
 * every Route record through Router::submit — the router re-derives
 * the home node, forwards and verdicts deterministically, so the
 * terminal Admit/Reject of each routed request must match the journal
 * — plus node-dispatched member health transitions and drains.
 */
ReplayResult
replayRouted(const EventJournal &journal, TaskPool *pool)
{
    (void)pool; // nodes drain through their own single-thread pools
    ReplayResult res;
    const JournalConfig &c = journal.config;

    for (const DeviceSpec &spec : c.devices) {
        if (spec.node < 0 || spec.node >= c.nodes) {
            res.mismatches.push_back(
                "device '" + spec.name + "' names node " +
                std::to_string(spec.node) + " outside the fleet of " +
                std::to_string(c.nodes));
            return res;
        }
    }

    serve::RouterOptions ro;
    ro.virtualNodes = c.virtualNodes;
    ro.forwardHops = c.forwardHops;
    serve::Router router(ro);
    for (int n = 0; n < c.nodes; ++n) {
        std::vector<Device> devices = devicesFor(c, n);
        if (devices.empty()) {
            res.mismatches.push_back(
                "journal config lists no devices for node " +
                std::to_string(n));
            return res;
        }
        router.addNode(std::move(devices), c.options);
    }
    for (const WorkloadSpec &w : c.workloads) {
        VqaProblem p = problemByName(w.problem, w.initSeed);
        router.registerWorkload(p.ansatz, p.hamiltonian);
    }

    // Terminal verdict of each routed request: the last Admit/Reject
    // stamped with its ruid (the chain's end after any forwards).
    std::unordered_map<uint64_t, const EventRecord *> terminal;
    for (const EventRecord &r : journal.records())
        if ((r.kind == EventKind::Admit ||
             r.kind == EventKind::Reject) &&
            r.ruid != 0)
            terminal[r.ruid] = &r;

    auto nodeOk = [&](const EventRecord &r) {
        if (r.node >= 0 &&
            static_cast<std::size_t>(r.node) < router.numNodes())
            return true;
        res.mismatches.push_back(
            std::string(kindName(r.kind)) + " record names node " +
            std::to_string(r.node) + " outside the fleet");
        return false;
    };

    std::vector<serve::JobOutcome> outcomes;
    for (const EventRecord &r : journal.records()) {
        switch (r.kind) {
        case EventKind::Route: {
            serve::JobRequest req;
            req.tenantId = r.tenant;
            req.workload = r.workload;
            req.params = r.params;
            req.shots = r.shots;
            req.priority = r.priority;
            req.submitH = r.submitH;
            req.deadlineH = r.deadlineH;
            const serve::Ticket t = router.submit(req);
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
            if (nodeOk(r))
                router.node(static_cast<std::size_t>(r.node))
                    .failMemberAt(static_cast<std::size_t>(r.member),
                                  r.atH);
            break;
        case EventKind::MemberRestore:
            if (!r.autoRestore && nodeOk(r))
                router.node(static_cast<std::size_t>(r.node))
                    .restoreMember(
                        static_cast<std::size_t>(r.member));
            break;
        case EventKind::MemberJoin:
            if (nodeOk(r))
                router.node(static_cast<std::size_t>(r.node))
                    .addMember(deviceByName(r.name, c.catalogSeed),
                               r.atH);
            break;
        case EventKind::MemberLeave:
            if (nodeOk(r))
                router.node(static_cast<std::size_t>(r.node))
                    .removeMember(static_cast<std::size_t>(r.member),
                                  r.atH);
            break;
        case EventKind::Drain: {
            // A router drain journals one Drain per node, in node
            // order; node 0's record is the cue to re-drive the whole
            // fleet drain, the others are its echoes.
            if (r.node != 0)
                break;
            std::vector<serve::JobOutcome> got =
                std::isfinite(r.atH) ? router.runUntil(r.atH)
                                     : router.drain();
            outcomes.insert(outcomes.end(), got.begin(), got.end());
            break;
        }
        default:
            break; // Admit/Reject/Forward re-derive from Route
        }
    }
    bool pending = false;
    for (std::size_t n = 0; n < router.numNodes(); ++n)
        if (router.node(n).pendingJobs() > 0 ||
            !router.node(n).loop().empty())
            pending = true;
    if (pending) {
        std::vector<serve::JobOutcome> got = router.drain();
        outcomes.insert(outcomes.end(), got.begin(), got.end());
    }

    compareFinalizes(journal, outcomes, res);
    return res;
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
    if (c.nodes > 1)
        return replayRouted(journal_, pool);

    serve::ServiceNode node(devicesFor(c), c.options);
    for (const WorkloadSpec &w : c.workloads) {
        VqaProblem p = problemByName(w.problem, w.initSeed);
        node.registerWorkload(p.ansatz, p.hamiltonian);
    }

    // Re-drive the recorded stimulus in publication order: requests
    // (admitted and rejected alike — admission verdicts are part of
    // the contract), member health transitions, and drains.
    std::vector<serve::JobOutcome> outcomes;
    for (const EventRecord &r : journal_.records()) {
        switch (r.kind) {
        case EventKind::Admit:
        case EventKind::Reject: {
            serve::JobRequest req;
            req.tenantId = r.tenant;
            req.workload = r.workload;
            req.params = r.params;
            req.shots = r.shots;
            req.priority = r.priority;
            req.submitH = r.submitH;
            req.deadlineH = r.deadlineH;
            serve::Ticket t = node.submit(req);
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
        case EventKind::MemberFail:
            node.failMemberAt(static_cast<std::size_t>(r.member),
                              r.atH);
            break;
        case EventKind::MemberRestore:
            // Supervised restores are produced by the node's own
            // backoff events — re-driving them would double-restore.
            if (!r.autoRestore)
                node.restoreMember(static_cast<std::size_t>(r.member));
            break;
        case EventKind::MemberJoin:
            node.addMember(deviceByName(r.name, c.catalogSeed), r.atH);
            break;
        case EventKind::MemberLeave:
            node.removeMember(static_cast<std::size_t>(r.member),
                              r.atH);
            break;
        case EventKind::Drain: {
            std::vector<serve::JobOutcome> got =
                std::isfinite(r.atH) ? node.runUntil(r.atH, pool)
                                     : node.drain(pool);
            outcomes.insert(outcomes.end(), got.begin(), got.end());
            break;
        }
        default:
            break; // derived records: verified via Finalize below
        }
    }
    if (node.pendingJobs() > 0 || !node.loop().empty()) {
        // Journals normally end on a drained loop; tolerate a live
        // capture cut mid-stream by finishing the pending work.
        std::vector<serve::JobOutcome> got = node.drain(pool);
        outcomes.insert(outcomes.end(), got.begin(), got.end());
    }

    compareFinalizes(journal_, outcomes, res);
    return res;
}

} // namespace replay
} // namespace eqc
