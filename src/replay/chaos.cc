#include "replay/chaos.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "device/catalog.h"
#include "replay/replayer.h"
#include "serve/aggregator.h"
#include "serve/router.h"
#include "serve/service_node.h"
#include "vqa/problem.h"

namespace eqc {
namespace replay {

// ---------------------------------------------------------------------------
// Invariant checker
// ---------------------------------------------------------------------------

namespace {

/** Key of one dispatched shard: (work uid, shard seq). */
using ShardKey = std::pair<uint64_t, int>;

struct ShardTrace
{
    const EventRecord *dispatch = nullptr;
    const EventRecord *resolve = nullptr;
};

void
flag(std::vector<Violation> &v, const char *invariant,
     std::string detail)
{
    v.push_back(Violation{invariant, std::move(detail)});
}

} // namespace

std::vector<Violation>
InvariantChecker::check(const EventJournal &journal)
{
    std::vector<Violation> v;
    const JournalConfig &cfg = journal.config;
    const double inf = std::numeric_limits<double>::infinity();

    std::unordered_map<uint64_t, const EventRecord *> admits;
    std::unordered_map<uint64_t, const EventRecord *> finals;
    // (uid, seq) -> dispatch/resolution trace, ordered for replay of
    // the aggregation (std::map iterates uid asc, seq asc).
    std::map<ShardKey, ShardTrace> shards;
    // First executed (non-cache) Finalize per work uid: the aggregate
    // every rider of the item shares.
    std::unordered_map<uint64_t, const EventRecord *> itemFinal;
    // Everything a node keeps to itself gets audited to itself:
    // member indices, health epochs, loop clocks and cache contents
    // are all node-local, so multi-node journals key this state by
    // the record's node stamp (single-node journals only ever touch
    // node 0, auditing exactly as before).
    struct NodeState
    {
        // Per-member health and membership windows: configured
        // devices span (-inf, inf); live joins open at their join
        // hour, leavers close at theirs. Vectors grow with
        // MemberJoin records.
        std::vector<double> failAtH;
        std::vector<double> joinAtH;
        std::vector<double> leaveAtH;
        int healthEpoch = 0;
        // Energies of executed aggregates this node stored so far
        // (the only legal cache-hit sources — caches are per node).
        std::set<uint64_t> executedEnergyBits;
        // I11: loop-fired records are journaled at the node loop's
        // current hour, which never runs backwards.
        double lastLoopT = -std::numeric_limits<double>::infinity();
    };
    std::map<int, NodeState> nodeStates;
    for (const DeviceSpec &d : cfg.devices) {
        NodeState &ns = nodeStates[d.node];
        ns.failAtH.push_back(inf);
        ns.joinAtH.push_back(-inf);
        ns.leaveAtH.push_back(inf);
    }
    nodeStates[0]; // node 0 exists even in a device-less journal
    // Capacity rejections grouped by (node, hint-hour bits, health
    // epoch): within one group the hint is a pure function of depth,
    // so it must be strictly monotone. Member kills/restores change
    // the alive set the hint minimizes over, hence the epoch split.
    std::map<std::tuple<int, uint64_t, int>,
             std::vector<std::pair<int, double>>>
        rejectGroups;
    // First DeadlineShed record per work uid (I7/I8/I12).
    std::unordered_map<uint64_t, const EventRecord *> shedRecs;
    // Uids already finalized (I12: no shed after the first finalize).
    std::set<uint64_t> finalizedUids;
    bool sawMemberFail = false;
    bool sawMemberLeave = false;
    // Route/Forward/Admit/Reject chains per routed-request uid, in
    // journal order (I13/I14).
    std::map<uint64_t, std::vector<const EventRecord *>> routedSeq;
    auto checkLoopOrder = [&](const EventRecord &r) {
        NodeState &ns = nodeStates[r.node];
        if (r.tH < ns.lastLoopT)
            flag(v, "event-order",
                 std::string(kindName(r.kind)) + " at t=" +
                     std::to_string(r.tH) +
                     " fired after the loop already reached t=" +
                     std::to_string(ns.lastLoopT));
        else
            ns.lastLoopT = r.tH;
    };

    for (const EventRecord &r : journal.records()) {
        switch (r.kind) {
        case EventKind::Admit:
            if (!admits.emplace(r.jobId, &r).second)
                flag(v, "admitted-completes",
                     "job " + std::to_string(r.jobId) +
                         " admitted twice");
            if (r.ruid != 0)
                routedSeq[r.ruid].push_back(&r);
            else if (cfg.nodes > 1)
                flag(v, "routed-exactly-once",
                     "job " + std::to_string(r.jobId) +
                         " admitted without a routed-request uid in "
                         "a multi-node journal");
            break;
        case EventKind::Route:
        case EventKind::Forward:
            if (r.ruid == 0)
                flag(v, "routed-exactly-once",
                     std::string(kindName(r.kind)) + " record at t=" +
                         std::to_string(r.tH) +
                         " carries no routed-request uid");
            else
                routedSeq[r.ruid].push_back(&r);
            break;
        case EventKind::Reject: {
            if (r.ruid != 0)
                routedSeq[r.ruid].push_back(&r);
            const bool capacity =
                r.status ==
                    static_cast<int>(
                        serve::AdmitStatus::RejectedQueueFull) ||
                r.status ==
                    static_cast<int>(
                        serve::AdmitStatus::RejectedTenantQuota);
            if (!capacity)
                break;
            if (!(r.retryAfterS > 0.0))
                flag(v, "backpressure-monotone",
                     "capacity rejection at t=" +
                         std::to_string(r.tH) +
                         " carries a non-positive retry-after of " +
                         std::to_string(r.retryAfterS) + "s");
            rejectGroups[{r.node, doubleBits(r.tH),
                          nodeStates[r.node].healthEpoch}]
                .push_back({r.depth, r.retryAfterS});
            break;
        }
        case EventKind::MemberFail: {
            NodeState &ns = nodeStates[r.node];
            sawMemberFail = true;
            ++ns.healthEpoch;
            if (r.member < 0 || static_cast<std::size_t>(r.member) >=
                                    ns.failAtH.size()) {
                flag(v, "no-zombie-shards",
                     "member_fail names member " +
                         std::to_string(r.member) +
                         " outside the known ensemble");
                break;
            }
            ns.failAtH[static_cast<std::size_t>(r.member)] = r.atH;
            break;
        }
        case EventKind::MemberRestore: {
            NodeState &ns = nodeStates[r.node];
            ++ns.healthEpoch;
            if (r.member >= 0 &&
                static_cast<std::size_t>(r.member) < ns.failAtH.size())
                ns.failAtH[static_cast<std::size_t>(r.member)] = inf;
            break;
        }
        case EventKind::MemberJoin: {
            NodeState &ns = nodeStates[r.node];
            // Joins change the alive set backpressure hints minimize
            // over, so they split I2's epoch groups like fails do.
            ++ns.healthEpoch;
            if (r.member != static_cast<int>(ns.failAtH.size()))
                flag(v, "membership-window",
                     "member_join names index " +
                         std::to_string(r.member) + " but " +
                         std::to_string(ns.failAtH.size()) +
                         " members exist");
            ns.failAtH.push_back(inf);
            ns.joinAtH.push_back(r.atH);
            ns.leaveAtH.push_back(inf);
            break;
        }
        case EventKind::MemberLeave: {
            NodeState &ns = nodeStates[r.node];
            sawMemberLeave = true;
            ++ns.healthEpoch;
            if (r.member < 0 || static_cast<std::size_t>(r.member) >=
                                    ns.leaveAtH.size())
                flag(v, "membership-window",
                     "member_leave names member " +
                         std::to_string(r.member) +
                         " outside the known ensemble");
            else
                ns.leaveAtH[static_cast<std::size_t>(r.member)] =
                    r.atH;
            break;
        }
        case EventKind::Dispatch: {
            NodeState &ns = nodeStates[r.node];
            ShardTrace &t = shards[{r.workUid, r.seq}];
            if (t.dispatch)
                flag(v, "dispatch-resolution",
                     "shard (" + std::to_string(r.workUid) + "," +
                         std::to_string(r.seq) +
                         ") dispatched twice");
            t.dispatch = &r;
            if (r.member < 0 || static_cast<std::size_t>(r.member) >=
                                    ns.joinAtH.size())
                flag(v, "membership-window",
                     "shard (" + std::to_string(r.workUid) + "," +
                         std::to_string(r.seq) +
                         ") dispatched onto unknown member " +
                         std::to_string(r.member));
            else if (r.tH < ns.joinAtH[static_cast<std::size_t>(
                                r.member)] ||
                     r.tH >= ns.leaveAtH[static_cast<std::size_t>(
                                 r.member)])
                flag(v, "membership-window",
                     "shard (" + std::to_string(r.workUid) + "," +
                         std::to_string(r.seq) +
                         ") dispatched at h=" + std::to_string(r.tH) +
                         " outside member " + std::to_string(r.member) +
                         "'s membership window");
            break;
        }
        case EventKind::ShardDone:
        case EventKind::ShardFail: {
            NodeState &ns = nodeStates[r.node];
            checkLoopOrder(r);
            ShardTrace &t = shards[{r.workUid, r.seq}];
            if (t.resolve)
                flag(v, "dispatch-resolution",
                     "shard (" + std::to_string(r.workUid) + "," +
                         std::to_string(r.seq) +
                         ") resolved twice");
            t.resolve = &r;
            if (r.kind == EventKind::ShardDone && r.member >= 0 &&
                static_cast<std::size_t>(r.member) <
                    ns.failAtH.size() &&
                r.doneH >=
                    ns.failAtH[static_cast<std::size_t>(r.member)])
                flag(v, "no-zombie-shards",
                     "shard (" + std::to_string(r.workUid) + "," +
                         std::to_string(r.seq) +
                         ") completed at h=" + std::to_string(r.doneH) +
                         " on member " + std::to_string(r.member) +
                         " killed at h=" +
                         std::to_string(ns.failAtH[static_cast<
                             std::size_t>(r.member)]));
            break;
        }
        case EventKind::CacheHit:
            if (cfg.options.resultCacheTtlH <= 0.0)
                flag(v, "cache-freshness",
                     "cache hit recorded with reuse disabled "
                     "(ttl <= 0)");
            else if (r.tH - r.storedAtH > cfg.options.resultCacheTtlH)
                flag(v, "cache-freshness",
                     "work " + std::to_string(r.workUid) +
                         " served an entry aged " +
                         std::to_string(r.tH - r.storedAtH) +
                         "h against a TTL of " +
                         std::to_string(cfg.options.resultCacheTtlH) + "h");
            if (r.servedShots < r.shots)
                flag(v, "cache-freshness",
                     "work " + std::to_string(r.workUid) +
                         " served " + std::to_string(r.servedShots) +
                         " cached shots for a " +
                         std::to_string(r.shots) + "-shot request");
            if (!nodeStates[r.node].executedEnergyBits.count(
                    doubleBits(r.energy)))
                flag(v, "cache-freshness",
                     "work " + std::to_string(r.workUid) +
                         " served energy " + hexBits(r.energy) +
                         " that no earlier execution on its node "
                         "stored");
            break;
        case EventKind::DeadlineShed: {
            checkLoopOrder(r);
            if (finalizedUids.count(r.workUid))
                flag(v, "shed-before-finalize",
                     "work " + std::to_string(r.workUid) +
                         " shed at t=" + std::to_string(r.tH) +
                         " after it already finalized");
            if (!shedRecs.emplace(r.workUid, &r).second)
                flag(v, "deadline-resolution",
                     "work " + std::to_string(r.workUid) +
                         " shed twice");
            break;
        }
        case EventKind::Finalize:
            checkLoopOrder(r);
            finalizedUids.insert(r.workUid);
            if (!finals.emplace(r.jobId, &r).second)
                flag(v, "admitted-completes",
                     "job " + std::to_string(r.jobId) +
                         " finalized twice");
            if (!r.fromCache) {
                itemFinal.emplace(r.workUid, &r);
                nodeStates[r.node].executedEnergyBits.insert(
                    doubleBits(r.energy));
            }
            break;
        default:
            break;
        }
    }

    // I1: every admitted job finalizes, with its full shot budget
    // unless degraded — and degradation implies a member failure.
    for (const auto &kv : admits) {
        auto it = finals.find(kv.first);
        if (it == finals.end()) {
            flag(v, "admitted-completes",
                 "job " + std::to_string(kv.first) +
                     " was admitted but never finalized");
            continue;
        }
        const EventRecord &fin = *it->second;
        if (!fin.degraded && fin.shots < kv.second->shots)
            flag(v, "admitted-completes",
                 "job " + std::to_string(kv.first) + " requested " +
                     std::to_string(kv.second->shots) +
                     " shots but finalized undegraded with " +
                     std::to_string(fin.shots));
        if (fin.degraded && !sawMemberFail && !sawMemberLeave &&
            !fin.shed)
            flag(v, "admitted-completes",
                 "job " + std::to_string(kv.first) +
                     " degraded without any member failure, "
                     "member leave, or deadline shed on record");
    }
    for (const auto &kv : finals)
        if (!admits.count(kv.first))
            flag(v, "admitted-completes",
                 "job " + std::to_string(kv.first) +
                     " finalized without an admission record");

    // I2: within one (instant, health-epoch) group, retry-after hints
    // strictly increase with the observed backlog depth.
    for (auto &kv : rejectGroups) {
        auto &g = kv.second;
        std::sort(g.begin(), g.end(),
                  [](const std::pair<int, double> &a,
                     const std::pair<int, double> &b) {
                      if (a.first != b.first)
                          return a.first < b.first;
                      return a.second < b.second;
                  });
        for (std::size_t i = 1; i < g.size(); ++i) {
            const bool deeper = g[i].first > g[i - 1].first;
            const bool ok = deeper
                                ? g[i].second > g[i - 1].second
                                : bitEqual(g[i].second, g[i - 1].second);
            if (!ok)
                flag(v, "backpressure-monotone",
                     "retry-after " + std::to_string(g[i].second) +
                         "s at depth " + std::to_string(g[i].first) +
                         " does not dominate " +
                         std::to_string(g[i - 1].second) +
                         "s at depth " +
                         std::to_string(g[i - 1].first));
        }
    }

    // I6 + I4: every dispatch resolves exactly once and matches its
    // plan; re-aggregating the survivors (failed shards never enter,
    // so survivor weights renormalize to 1 by construction) must
    // reproduce the finalized aggregate bit for bit.
    uint64_t openUid = 0;
    // Shed items finalize through the equi-weighted fallback
    // aggregator regardless of the configured mode.
    auto modeFor = [&](uint64_t uid) {
        return shedRecs.count(uid)
                   ? serve::AggregationMode::EquiWeighted
                   : cfg.options.aggregation;
    };
    serve::Aggregator agg(modeFor(0));
    auto finishUid = [&](uint64_t uid, serve::Aggregator &a) {
        auto it = itemFinal.find(uid);
        if (it == itemFinal.end())
            return;
        const EventRecord &fin = *it->second;
        if (!bitEqual(a.energy(), fin.energy))
            flag(v, "survivor-renormalization",
                 "work " + std::to_string(uid) + ": re-aggregated " +
                     hexBits(a.energy()) + " vs finalized " +
                     hexBits(fin.energy));
        if (!bitEqual(a.variance(), fin.variance))
            flag(v, "survivor-renormalization",
                 "work " + std::to_string(uid) +
                     ": variance diverges (" + hexBits(a.variance()) +
                     " vs " + hexBits(fin.variance) + ")");
        if (!bitEqual(a.pCorrect(), fin.pCorrect))
            flag(v, "survivor-renormalization",
                 "work " + std::to_string(uid) +
                     ": pCorrect diverges (" + hexBits(a.pCorrect()) +
                     " vs " + hexBits(fin.pCorrect) + ")");
        auto sit = shedRecs.find(uid);
        if (sit != shedRecs.end()) {
            // A shed item completes at the hour the deadline fired,
            // not at its (truncated) aggregate's last shard hour.
            if (!bitEqual(fin.doneH, sit->second->tH))
                flag(v, "survivor-renormalization",
                     "work " + std::to_string(uid) +
                         ": shed completion hour " +
                         hexBits(fin.doneH) +
                         " differs from the shed event hour " +
                         hexBits(sit->second->tH));
        } else if (!bitEqual(a.completeH(), fin.doneH)) {
            flag(v, "survivor-renormalization",
                 "work " + std::to_string(uid) +
                     ": completion hour diverges");
        }
        if (a.shotsExecuted() != fin.shots ||
            a.shardsExecuted() != fin.shardsRun ||
            a.circuitsRun() != fin.circuits)
            flag(v, "survivor-renormalization",
                 "work " + std::to_string(uid) +
                     ": shot/shard/circuit totals diverge from the "
                     "finalized outcome");
    };
    for (const auto &kv : shards) {
        const uint64_t uid = kv.first.first;
        const ShardTrace &t = kv.second;
        if (uid != openUid) {
            if (openUid)
                finishUid(openUid, agg);
            openUid = uid;
            agg = serve::Aggregator(modeFor(uid));
        }
        if (!t.dispatch) {
            flag(v, "dispatch-resolution",
                 "shard (" + std::to_string(uid) + "," +
                     std::to_string(kv.first.second) +
                     ") resolved without a dispatch");
            continue;
        }
        if (!t.resolve) {
            flag(v, "dispatch-resolution",
                 "shard (" + std::to_string(uid) + "," +
                     std::to_string(kv.first.second) +
                     ") dispatched but never resolved");
            continue;
        }
        if (t.resolve->member != t.dispatch->member ||
            t.resolve->shots != t.dispatch->shots)
            flag(v, "dispatch-resolution",
                 "shard (" + std::to_string(uid) + "," +
                     std::to_string(kv.first.second) +
                     ") resolved with a member/shots pair different "
                     "from its dispatch");
        if (t.resolve->late)
            continue; // resolved after a deadline shed: not aggregated
        serve::ShardResult s;
        s.member = t.resolve->member;
        s.shots = t.resolve->shots;
        s.failed = t.resolve->kind == EventKind::ShardFail;
        s.pCorrect = t.resolve->pCorrect;
        s.energy = t.resolve->energy;
        s.variance = t.resolve->variance;
        s.completeH = t.resolve->doneH;
        s.circuitsRun = t.resolve->circuits;
        agg.add(s);
    }
    if (openUid)
        finishUid(openUid, agg);
    // Executed items that planned no shard at all (every member dead
    // at intake) still finalize; their aggregate must be the empty
    // one.
    for (const auto &kv : itemFinal) {
        if (shards.lower_bound({kv.first, 0}) != shards.end() &&
            shards.lower_bound({kv.first, 0})->first.first ==
                kv.first)
            continue;
        serve::Aggregator empty(modeFor(kv.first));
        finishUid(kv.first, empty);
    }

    // I7: every admitted job with an SLO resolves to exactly one of
    // met (finalized at or before the deadline, no shed record) or
    // shed (shed record present, outcome marked shed and degraded).
    for (const auto &kv : admits) {
        const EventRecord &ad = *kv.second;
        if (ad.deadlineH <= 0.0)
            continue;
        auto it = finals.find(kv.first);
        if (it == finals.end())
            continue; // I1 already flagged the missing finalize
        const EventRecord &fin = *it->second;
        const bool hasShedRec = shedRecs.count(fin.workUid) > 0;
        if (fin.shed != hasShedRec)
            flag(v, "deadline-resolution",
                 "job " + std::to_string(kv.first) +
                     (fin.shed
                          ? " finalized shed without a deadline_shed "
                            "record"
                          : " finalized met although its work item "
                            "has a deadline_shed record"));
        if (!fin.shed && fin.doneH > ad.deadlineH)
            flag(v, "deadline-resolution",
                 "job " + std::to_string(kv.first) +
                     " claims a met deadline but finalized at h=" +
                     std::to_string(fin.doneH) +
                     " past its SLO of h=" +
                     std::to_string(ad.deadlineH));
        if (fin.shed && !fin.degraded)
            flag(v, "deadline-resolution",
                 "job " + std::to_string(kv.first) +
                     " shed but not marked degraded");
    }
    for (const auto &kv : shedRecs) {
        auto it = itemFinal.find(kv.first);
        if (it == itemFinal.end() || !it->second->shed)
            flag(v, "deadline-resolution",
                 "work " + std::to_string(kv.first) +
                     " has a deadline_shed record but never "
                     "finalized shed");
    }

    // I8: a shed item's completed + shed shots account for exactly
    // its budget (the largest rider request), and the finalized
    // totals match the shed record.
    std::unordered_map<uint64_t, int> uidBudget;
    for (const auto &kv : finals) {
        auto a = admits.find(kv.first);
        if (a == admits.end())
            continue;
        int &b = uidBudget[kv.second->workUid];
        b = std::max(b, a->second->shots);
    }
    for (const auto &kv : shedRecs) {
        auto it = itemFinal.find(kv.first);
        if (it == itemFinal.end())
            continue;
        const EventRecord &fin = *it->second;
        const EventRecord &shedRec = *kv.second;
        if (fin.shots != shedRec.shots ||
            fin.shedShots != shedRec.shedShots)
            flag(v, "shed-shot-accounting",
                 "work " + std::to_string(kv.first) +
                     " finalized with " + std::to_string(fin.shots) +
                     "+" + std::to_string(fin.shedShots) +
                     " (completed+shed) shots but its shed record "
                     "says " +
                     std::to_string(shedRec.shots) + "+" +
                     std::to_string(shedRec.shedShots));
        auto b = uidBudget.find(kv.first);
        if (b != uidBudget.end() &&
            fin.shots + fin.shedShots != b->second)
            flag(v, "shed-shot-accounting",
                 "work " + std::to_string(kv.first) + " completed " +
                     std::to_string(fin.shots) + " and shed " +
                     std::to_string(fin.shedShots) +
                     " shots against a budget of " +
                     std::to_string(b->second));
    }

    // I10: every rider of one work item finalizes with the same
    // aggregate bits and the same outcome flags — coalesced and
    // rider-joined jobs are indistinguishable from the lead.
    std::unordered_map<uint64_t, const EventRecord *> uidLead;
    for (const auto &kv : finals) {
        const EventRecord &fin = *kv.second;
        auto lead = uidLead.emplace(fin.workUid, &fin);
        if (lead.second)
            continue;
        const EventRecord &l = *lead.first->second;
        if (!bitEqual(fin.energy, l.energy) ||
            !bitEqual(fin.variance, l.variance) ||
            !bitEqual(fin.pCorrect, l.pCorrect))
            flag(v, "coalesced-rider-consistency",
                 "work " + std::to_string(fin.workUid) + ": jobs " +
                     std::to_string(l.jobId) + " and " +
                     std::to_string(fin.jobId) +
                     " finalized different aggregate bits");
        if (fin.shots != l.shots || fin.shardsRun != l.shardsRun ||
            fin.circuits != l.circuits || fin.round != l.round)
            flag(v, "coalesced-rider-consistency",
                 "work " + std::to_string(fin.workUid) + ": jobs " +
                     std::to_string(l.jobId) + " and " +
                     std::to_string(fin.jobId) +
                     " finalized different shot/shard/round totals");
        if (fin.degraded != l.degraded || fin.shed != l.shed ||
            fin.shedShots != l.shedShots ||
            fin.fromCache != l.fromCache)
            flag(v, "coalesced-rider-consistency",
                 "work " + std::to_string(fin.workUid) + ": jobs " +
                     std::to_string(l.jobId) + " and " +
                     std::to_string(fin.jobId) +
                     " journaled different outcome bits");
        if (!fin.fromCache && !bitEqual(fin.doneH, l.doneH))
            flag(v, "coalesced-rider-consistency",
                 "work " + std::to_string(fin.workUid) + ": jobs " +
                     std::to_string(l.jobId) + " and " +
                     std::to_string(fin.jobId) +
                     " finalized at different hours");
    }

    // I13 + I14: walk each routed request's Route/Forward/verdict
    // chain in journal order. The chain must open with exactly one
    // Route, every verdict must land on the node the router last sent
    // the request to, at most one Admit may occur and it ends the
    // chain — and every Forward must be justified by the rejection
    // that precedes it (same node, positive retry-after hint).
    for (const auto &kv : routedSeq) {
        const std::string tag = "request ruid " +
                                std::to_string(kv.first);
        const EventRecord *route = nullptr;
        const EventRecord *lastVerdict = nullptr;
        const EventRecord *pendingFwd = nullptr;
        bool admitted = false;
        for (const EventRecord *e : kv.second) {
            switch (e->kind) {
            case EventKind::Route:
                if (route)
                    flag(v, "routed-exactly-once",
                         tag + " routed twice");
                route = e;
                break;
            case EventKind::Forward:
                if (!lastVerdict ||
                    lastVerdict->kind != EventKind::Reject)
                    flag(v, "forward-only-on-rejection",
                         tag + " forwarded to node " +
                             std::to_string(e->node) +
                             " without a preceding rejection");
                else if (!(lastVerdict->retryAfterS > 0.0))
                    flag(v, "forward-only-on-rejection",
                         tag + " forwarded after a rejection "
                               "carrying no retry-after hint "
                               "(status " +
                             std::to_string(lastVerdict->status) +
                             ")");
                else if (lastVerdict->node != e->fromNode)
                    flag(v, "forward-only-on-rejection",
                         tag + " forward claims from-node " +
                             std::to_string(e->fromNode) +
                             " but the rejection was on node " +
                             std::to_string(lastVerdict->node));
                pendingFwd = e;
                break;
            case EventKind::Admit:
            case EventKind::Reject: {
                if (admitted)
                    flag(v, "routed-exactly-once",
                         tag + " got a verdict after it was already "
                               "admitted");
                if (!route) {
                    flag(v, "routed-exactly-once",
                         tag + " got a verdict without a route "
                               "record");
                } else {
                    const int expect =
                        pendingFwd ? pendingFwd->node : route->node;
                    if (e->node != expect)
                        flag(v, "routed-exactly-once",
                             tag + " got a verdict on node " +
                                 std::to_string(e->node) +
                                 " but the router sent it to node " +
                                 std::to_string(expect));
                }
                pendingFwd = nullptr;
                lastVerdict = e;
                if (e->kind == EventKind::Admit)
                    admitted = true;
                break;
            }
            default:
                break;
            }
        }
        if (route && !lastVerdict)
            flag(v, "routed-exactly-once",
                 tag + " was routed but never reached a verdict");
        else if (pendingFwd)
            flag(v, "routed-exactly-once",
                 tag + " ends on a forward with no verdict from the "
                       "target node");
    }

    return v;
}

// ---------------------------------------------------------------------------
// Chaos engine
// ---------------------------------------------------------------------------

namespace {

/**
 * Binding a tenant pair submits: the problem's initial parameters with
 * the first shifted per pair and the last per round key, so pairs
 * coalesce and repeated round keys hit the result cache.
 */
std::vector<double>
pairBinding(const VqaProblem &prob, int pair, int roundKey)
{
    std::vector<double> params(prob.initialParams);
    params[0] += 0.13 * pair;
    params.back() += 0.037 * roundKey;
    return params;
}

} // namespace

ChaosReport
ChaosEngine::run(TaskPool *pool)
{
    const ChaosOptions &o = opts_;
    // One node is driven directly; a fleet of N > 1 sits behind a
    // Router. Churn and the wall clock are single-node only.
    const int N = std::max(1, o.nodes);
    const bool routed = N > 1;
    const bool steady = !routed && o.steadyClock;
    journal_ = EventJournal();
    ChaosReport rep;
    rep.seed = o.seed;

    Rng rng = Rng(o.seed).fork(routed ? "chaos-routed" : "chaos");

    // Draw each node's lineup from the evaluation catalog and dial some
    // members' drift incidents up (the spike travels into the journal
    // config so replays rebuild the same timelines). A single node
    // draws distinct members and keeps the rest as its join pool;
    // fleet nodes draw with replacement (they are separate simulators,
    // so two may front the same catalog device).
    std::vector<Device> catalog = evaluationEnsemble();
    const int members =
        std::max(1, std::min<int>(o.members,
                                  static_cast<int>(catalog.size())));
    const int lastIdx = static_cast<int>(catalog.size()) - 1;
    std::vector<int> idx(catalog.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::vector<std::vector<Device>> lineups(static_cast<std::size_t>(N));
    std::vector<DeviceSpec> specs;
    for (int n = 0; n < N; ++n) {
        for (int i = 0; i < members; ++i) {
            int pick;
            if (routed) {
                pick = rng.uniformInt(0, lastIdx);
            } else {
                const int j = rng.uniformInt(i, lastIdx);
                std::swap(idx[static_cast<std::size_t>(i)],
                          idx[static_cast<std::size_t>(j)]);
                pick = idx[static_cast<std::size_t>(i)];
            }
            Device dev = catalog[static_cast<std::size_t>(pick)];
            DeviceSpec spec;
            spec.name = dev.name;
            spec.node = n;
            if (rng.bernoulli(o.driftSpikeProb)) {
                spec.spikeRatePerHour = rng.uniform(0.3, 2.0);
                spec.spikeSeverity = rng.uniform(3.0, 10.0);
                dev.drift = dev.drift.spiked(spec.spikeRatePerHour,
                                             spec.spikeSeverity);
                ++rep.driftSpikes;
            }
            lineups[static_cast<std::size_t>(n)].push_back(
                std::move(dev));
            specs.push_back(std::move(spec));
        }
    }

    // Every node shares one ServiceOptions (the journal config
    // describes the whole fleet).
    serve::ServiceOptions so;
    so.seed = splitmix64(o.seed ^ 0xC4A05EEDull);
    so.resultCacheTtlH = o.cacheTtlH;
    so.admission.maxQueueDepth = o.queueDepth;
    so.admission.maxQueuedPerTenant = o.tenantQuota;
    so.scheduler.minShardShots = 32;
    static const serve::AggregationMode modes[] = {
        serve::AggregationMode::FidelityWeighted,
        serve::AggregationMode::EquiWeighted,
        serve::AggregationMode::MajorityVote,
    };
    so.aggregation = modes[o.seed % 3];

    serve::RouterOptions ro;
    SteadyClock wall(o.timescaleS);
    std::unique_ptr<serve::Router> router;
    std::unique_ptr<serve::ServiceNode> single;
    std::vector<serve::ServiceNode *> nodes;
    if (routed) {
        router = std::make_unique<serve::Router>(ro);
        for (std::vector<Device> &lineup : lineups)
            nodes.push_back(
                &router->node(router->addNode(std::move(lineup), so)));
    } else {
        single = std::make_unique<serve::ServiceNode>(
            std::move(lineups[0]), so, steady ? &wall : nullptr);
        nodes.push_back(single.get());
    }
    auto setSink = [&](JournalSink *sink) {
        if (router)
            router->setJournalSink(sink);
        else
            single->setJournalSink(sink);
    };
    auto registerWorkload = [&](const VqaProblem &p) {
        return router ? router->registerWorkload(p.ansatz, p.hamiltonian)
                      : single->registerWorkload(p.ansatz, p.hamiltonian);
    };
    auto submit = [&](const serve::JobRequest &req) {
        if (router)
            router->submit(req);
        else
            single->submit(req);
    };

    journal_.config.options = so;
    journal_.config.devices = specs;
    journal_.config.workloads = {{"heisenberg_vqe", 7},
                                 {"ring_maxcut_qaoa", 7}};
    journal_.config.nodes = N;
    journal_.config.virtualNodes = ro.virtualNodes;
    journal_.config.forwardHops = ro.forwardHops;
    if (steady)
        journal_.config.clock = "steady";
    setSink(&journal_);

    VqaProblem vqe = problemByName("heisenberg_vqe", 7);
    VqaProblem qaoa = problemByName("ring_maxcut_qaoa", 7);
    const serve::WorkloadId wVqe = registerWorkload(vqe);
    const serve::WorkloadId wQaoa = registerWorkload(qaoa);

    // dead[n][m]: node n's member m is currently killed.
    std::vector<std::vector<bool>> dead(
        static_cast<std::size_t>(N),
        std::vector<bool>(static_cast<std::size_t>(members), false));
    // Catalog devices not in the single node's lineup: the join pool.
    int nextSpare = members;
    const int pairs = (o.tenants + 1) / 2;
    std::vector<int> lastRoundKey(static_cast<std::size_t>(pairs), -1);
    double baseH = 0.0;
    const int shotSteps = std::max(1, o.maxShots / 64);

    for (int round = 0; round < o.rounds; ++round) {
        // Probabilistic restores first: a member brought back before
        // the round's submissions is eligible for planning again.
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            std::vector<bool> &d = dead[n];
            for (std::size_t m = 0; m < d.size(); ++m) {
                if (d[m] && rng.bernoulli(o.restoreProb)) {
                    nodes[n]->restoreMember(m);
                    d[m] = false;
                    ++rep.restores;
                }
            }
        }

        // Live membership churn: join a spare catalog device or
        // retire an active member. All draws are gated on churnProb
        // so legacy seeds stay byte-stable with the knob off.
        if (!routed && o.churnProb > 0.0 && rng.bernoulli(o.churnProb)) {
            std::vector<bool> &d = dead[0];
            const bool canJoin =
                nextSpare < static_cast<int>(idx.size());
            if (canJoin && rng.bernoulli(0.5)) {
                Device dev = catalog[static_cast<std::size_t>(
                    idx[static_cast<std::size_t>(nextSpare++)])];
                single->addMember(std::move(dev),
                                  baseH + rng.uniform(0.0, 0.2));
                d.push_back(false);
                ++rep.joins;
            } else {
                const int m = rng.uniformInt(
                    0, static_cast<int>(d.size()) - 1);
                single->removeMember(static_cast<std::size_t>(m),
                                     baseH + rng.uniform(0.0, 0.3));
                ++rep.leaves;
            }
        }

        // Per-pair round keys: a pair resubmitting an earlier round's
        // binding walks into its node's result cache; otherwise the
        // pair's two tenants still share a binding and coalesce.
        std::vector<int> roundKey(static_cast<std::size_t>(pairs),
                                  round);
        for (int p = 0; p < pairs; ++p) {
            if (lastRoundKey[static_cast<std::size_t>(p)] >= 0 &&
                rng.bernoulli(o.repeatProb))
                roundKey[static_cast<std::size_t>(p)] =
                    lastRoundKey[static_cast<std::size_t>(p)];
            lastRoundKey[static_cast<std::size_t>(p)] =
                roundKey[static_cast<std::size_t>(p)];
        }

        // Normal traffic: pairs of tenants submit identical bindings.
        // Behind a router distinct pair bindings hash to distinct home
        // nodes, so the keyspace spreads.
        for (int t = 0; t < o.tenants; ++t) {
            const int pair = t / 2;
            const bool useQaoa = pair % 2 == 1;
            const VqaProblem &prob = useQaoa ? qaoa : vqe;
            serve::JobRequest req;
            req.tenantId = t;
            req.workload = useQaoa ? wQaoa : wVqe;
            req.params = pairBinding(
                prob, pair, roundKey[static_cast<std::size_t>(pair)]);
            req.shots = 64 * rng.uniformInt(1, shotSteps);
            req.priority = rng.uniformInt(0, 2);
            req.submitH = baseH + rng.uniform(0.0, 0.05);
            if (rng.bernoulli(o.skewProb)) {
                // Clock-skewed burst: a submitter claiming an hour
                // already in the past (clamped to now) or far ahead.
                req.submitH =
                    rng.bernoulli(0.5)
                        ? std::max(0.0,
                                   baseH - rng.uniform(0.0, 0.3))
                        : baseH + rng.uniform(0.3, 0.8);
                ++rep.skewed;
            }
            if (o.deadlineProb > 0.0 &&
                rng.bernoulli(o.deadlineProb))
                // Tight enough that mid-flight sheds actually occur,
                // loose enough that most SLOs are attainable. Skewed
                // submitters can blow their own SLO at the door.
                req.deadlineH = req.submitH + rng.uniform(0.05, 0.6);
            submit(req);
        }

        // Tenant flood: one tenant hammers one binding far past its
        // node's depth and its own quota. Behind a router the binding
        // lands on a drawn pair's home node and the overflow walks the
        // ring successors, exercising forwards and
        // rejected-everywhere tails.
        if (rng.bernoulli(o.floodProb)) {
            ++rep.floods;
            serve::JobRequest flood;
            flood.tenantId = rng.uniformInt(0, o.tenants - 1);
            flood.workload = wVqe;
            flood.params = vqe.initialParams;
            if (routed)
                flood.params[0] += 0.13 * rng.uniformInt(0, pairs);
            flood.shots = 64;
            flood.priority = 0;
            flood.submitH = baseH;
            const int burst = (static_cast<int>(o.queueDepth) + 4) *
                              std::min(N, 1 + ro.forwardHops);
            for (int i = 0; i < burst; ++i)
                submit(flood);
        }

        // Kills aimed per node at the window its coming drain executes
        // in: nextTimeH() is the earliest pending intake, so a kill
        // hour shortly after it lands mid-run and forces requeues.
        for (std::size_t n = 0; n < nodes.size(); ++n) {
            serve::ServiceNode &node = *nodes[n];
            const double windowH =
                std::isfinite(node.loop().nextTimeH())
                    ? node.loop().nextTimeH()
                    : baseH;
            std::vector<bool> &d = dead[n];
            for (std::size_t m = 0; m < d.size(); ++m) {
                if (!d[m] && rng.bernoulli(o.killProb)) {
                    node.failMemberAt(m,
                                      windowH + rng.uniform(0.0, 0.5));
                    d[m] = true;
                    ++rep.kills;
                }
            }
        }

        // Fleet nodes drain on their own single-thread pools.
        std::vector<serve::JobOutcome> out =
            router ? router->drain() : single->drain(pool);
        rep.jobsCompleted += static_cast<int>(out.size());
        double maxNowH = 0.0;
        for (serve::ServiceNode *node : nodes)
            maxNowH = std::max(maxNowH, node->loop().now());
        baseH = maxNowH + 0.01;
    }

    setSink(nullptr);
    if (router) {
        rep.counters = router->totals();
        rep.forwards = static_cast<int>(router->counters().forwards);
        rep.forwardAdmits =
            static_cast<int>(router->counters().forwardAdmits);
    } else {
        rep.counters = single->counters();
    }
    rep.sheds = static_cast<int>(rep.counters.deadlineSheds);
    rep.violations = InvariantChecker::check(journal_);

    // Wall-clock journals carry real timestamps and are not
    // bit-replayable; the invariant audit above still applies.
    if (o.verifyReplay && !steady) {
        std::string err;
        EventJournal parsed =
            EventJournal::parse(journal_.serialize(), &err);
        if (!err.empty()) {
            flag(rep.violations, "journal-roundtrip", err);
        } else {
            Replayer replayer(std::move(parsed));
            ReplayResult rr = replayer.run(pool);
            rep.replayVerified = true;
            for (const std::string &m : rr.mismatches)
                flag(rep.violations, "replay-divergence", m);
        }
    }
    return rep;
}

} // namespace replay
} // namespace eqc
