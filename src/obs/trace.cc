#include "obs/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "common/stats.h"

namespace eqc {
namespace obs {

using replay::EventKind;
using replay::EventRecord;

namespace {

std::string
fmtProblem(const char *what, uint64_t id)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s (id %" PRIu64 ")", what, id);
    return buf;
}

} // namespace

std::size_t
TraceBuilder::openJobs() const
{
    std::size_t n = 0;
    for (const auto &kv : jobs_)
        if (!kv.second.finalized)
            ++n;
    return n;
}

std::size_t
TraceBuilder::rejectedEverywhere() const
{
    std::size_t n = 0;
    for (const auto &kv : routes_) {
        auto it = routeAdmitted_.find(kv.first);
        if (it == routeAdmitted_.end() || !it->second)
            ++n;
    }
    return n;
}

void
TraceBuilder::add(const EventRecord &r)
{
    if (records_ == 0) {
        minTH_ = r.tH;
        maxTH_ = r.tH;
    } else {
        minTH_ = std::min(minTH_, r.tH);
        maxTH_ = std::max(maxTH_, r.tH);
    }
    ++records_;

    switch (r.kind) {
    case EventKind::Route:
        routes_[r.ruid] = r.tH;
        break;

    case EventKind::Forward: {
        char edge[32];
        std::snprintf(edge, sizeof(edge), "%d->%d", r.fromNode, r.node);
        ++forwardEdges_[edge];
        break;
    }

    case EventKind::Admit: {
        JobState &j = jobs_[r.jobId];
        j.admitH = r.tH;
        j.tenant = r.tenant;
        j.node = r.node;
        j.traceId = r.traceId ? r.traceId : r.jobId;
        if (r.ruid) {
            auto it = routes_.find(r.ruid);
            if (it != routes_.end()) {
                j.routed = true;
                j.routeH = it->second;
            }
            routeAdmitted_[r.ruid] = true;
        }
        break;
    }

    case EventKind::Reject:
        break;

    case EventKind::Coalesce:
    case EventKind::RiderJoin: {
        auto it = jobs_.find(r.jobId);
        if (it == jobs_.end()) {
            problems_.push_back(
                fmtProblem("coalesce of unadmitted job", r.jobId));
            break;
        }
        it->second.uid = r.workUid;
        it->second.coalesced = true;
        break;
    }

    case EventKind::CacheHit:
        items_[r.workUid].cacheHitH = r.tH;
        break;

    case EventKind::Dispatch: {
        ItemState &item = items_[r.workUid];
        if (item.shards.count(r.seq)) {
            problems_.push_back(
                fmtProblem("shard dispatched twice", r.workUid));
            break;
        }
        ShardState &s = item.shards[r.seq];
        s.dispatchH = r.tH;
        s.member = r.member;
        s.shots = r.shots;
        s.node = r.node;
        if (item.firstDispatchH < 0.0 || r.tH < item.firstDispatchH)
            item.firstDispatchH = r.tH;
        break;
    }

    case EventKind::ShardDone:
    case EventKind::ShardFail: {
        auto iit = items_.find(r.workUid);
        if (iit == items_.end() || !iit->second.shards.count(r.seq)) {
            problems_.push_back(
                fmtProblem("shard resolution without dispatch", r.workUid));
            break;
        }
        ShardState &s = iit->second.shards[r.seq];
        if (s.resolved) {
            problems_.push_back(
                fmtProblem("shard resolved twice", r.workUid));
            break;
        }
        s.resolved = true;
        if (r.tH < s.dispatchH)
            problems_.push_back(
                fmtProblem("shard span runs backwards", r.workUid));
        TraceSpan span;
        span.name = "shard";
        span.beginH = s.dispatchH;
        span.endH = r.tH;
        span.workUid = r.workUid;
        span.node = s.node;
        span.member = r.member;
        span.seq = r.seq;
        span.shots = r.shots;
        span.failed = r.kind == EventKind::ShardFail;
        span.late = r.late;
        spans_.push_back(std::move(span));
        if (!r.late) {
            ++iit->second.resolved;
            iit->second.lastResolveH =
                std::max(iit->second.lastResolveH, r.tH);
        }
        break;
    }

    case EventKind::Finalize:
        finalizeJob(r);
        break;

    case EventKind::MemberFail:
        instants_.push_back({"member_fail", r.tH, r.node, r.member});
        break;
    case EventKind::MemberRestore:
        instants_.push_back({"member_restore", r.tH, r.node, r.member});
        break;
    case EventKind::MemberJoin:
        instants_.push_back({"member_join", r.tH, r.node, r.member});
        break;
    case EventKind::MemberLeave:
        instants_.push_back({"member_leave", r.tH, r.node, r.member});
        break;

    case EventKind::Replan:
    case EventKind::Drain:
    case EventKind::DeadlineShed:
        break;
    }
}

void
TraceBuilder::finalizeJob(const EventRecord &r)
{
    auto jit = jobs_.find(r.jobId);
    if (jit == jobs_.end()) {
        problems_.push_back(
            fmtProblem("finalize without admit", r.jobId));
        return;
    }
    JobState &j = jit->second;
    if (j.finalized) {
        problems_.push_back(fmtProblem("job finalized twice", r.jobId));
        return;
    }
    j.finalized = true;
    j.uid = r.workUid;

    const double tA = j.admitH;
    const double tF = r.tH;
    // A clock-skewed rider can admit after its coalesced item
    // finalized; the service clamps such latencies to zero, and the
    // stage partition covers [tA, tEnd] to do the same.
    const double tEnd = std::max(tA, tF);

    JobPath p;
    p.traceId = j.traceId;
    p.jobId = r.jobId;
    p.workUid = r.workUid;
    p.tenant = r.tenant;
    p.node = r.node;
    p.admitH = tA;
    p.finalizeH = tF;
    p.routed = j.routed;
    p.fromCache = r.fromCache;
    p.coalesced = r.coalesced;
    p.shed = r.shed;
    p.degraded = r.degraded;
    p.shedShots = r.shedShots;

    const ItemState *item = nullptr;
    auto iit = items_.find(r.workUid);
    if (iit != items_.end()) {
        item = &iit->second;
        p.shards = item->resolved;
    }

    // Pre-admit route span (routed runs): not part of the chained
    // [admit, finalize] partition — routing happens before the home
    // node ever sees the job.
    if (j.routed && j.routeH <= tA) {
        TraceSpan route;
        route.name = "route";
        route.beginH = j.routeH;
        route.endH = tA;
        route.traceId = j.traceId;
        route.jobId = r.jobId;
        route.workUid = r.workUid;
        route.tenant = r.tenant;
        route.node = r.node;
        spans_.push_back(std::move(route));
    }

    // Chained stage anchors. Each anchor is consumed only if it keeps
    // the chain monotone inside [tA, tEnd] (riders joining mid-flight
    // admit after the item's dispatch, so their path starts deeper in
    // the pipeline); the final segment always closes at tEnd, so the
    // emitted spans partition [tA, tEnd] exactly by construction.
    const std::size_t firstSpan = spans_.size();
    double cur = tA;
    const double dispatchAnchor =
        item ? (item->firstDispatchH >= 0.0 ? item->firstDispatchH
                                            : item->cacheHitH)
             : -1.0;
    const bool startedExec = dispatchAnchor >= 0.0;

    auto emitStage = [&](const char *name, double beginH, double endH) {
        TraceSpan s;
        s.name = name;
        s.beginH = beginH;
        s.endH = endH;
        s.traceId = j.traceId;
        s.jobId = r.jobId;
        s.workUid = r.workUid;
        s.tenant = r.tenant;
        s.node = r.node;
        spans_.push_back(std::move(s));
    };

    if (dispatchAnchor >= cur && dispatchAnchor <= tEnd) {
        emitStage("queue_wait", cur, dispatchAnchor);
        cur = dispatchAnchor;
    }
    if (item && item->lastResolveH >= cur &&
        item->lastResolveH <= tEnd) {
        emitStage("execute", cur, item->lastResolveH);
        cur = item->lastResolveH;
    }
    emitStage(spans_.size() > firstSpan || startedExec ? "aggregate"
                                                       : "queue_wait",
              cur, tEnd);

    // Verify the chain bitwise (and fold stage durations into the
    // path) — trace_report's exactness guarantee rests on this.
    p.chainExact = true;
    double prev = tA;
    for (std::size_t i = firstSpan; i < spans_.size(); ++i) {
        const TraceSpan &s = spans_[i];
        if (!replay::bitEqual(s.beginH, prev) || s.endH < s.beginH)
            p.chainExact = false;
        prev = s.endH;
        if (s.name == "queue_wait")
            p.queueWaitH += s.durationH();
        else if (s.name == "execute")
            p.executeH += s.durationH();
        else
            p.aggregateH += s.durationH();
    }
    if (!replay::bitEqual(prev, tEnd))
        p.chainExact = false;
    if (!p.chainExact)
        problems_.push_back(
            fmtProblem("critical-path spans do not chain", r.jobId));

    paths_.push_back(std::move(p));
}

// ---------------------------------------------------------------------------
// Chrome trace_event export
// ---------------------------------------------------------------------------

namespace {

/** Model hours -> trace_event microseconds (true wall scale). */
double
usOf(double h)
{
    return h * 3600.0e6;
}

std::string
fmtUs(double us)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", us);
    return buf;
}

/** Stable per-trace lane id, clear of the member-lane tid range. */
int
jobLane(uint64_t traceId)
{
    return static_cast<int>(1000 + traceId % 1000000);
}

} // namespace

std::string
chromeTrace(const TraceBuilder &b)
{
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    auto emit = [&](const std::string &ev) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "  " + ev;
    };

    // Process/thread metadata: one process per node, one thread lane
    // per member (shards) — job lifecycle spans get per-trace lanes.
    std::map<int, std::map<int, bool>> members;
    for (const TraceSpan &s : b.spans())
        if (s.name == "shard")
            members[s.node][s.member] = true;
    for (const auto &nkv : members) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\": \"M\", \"name\": \"process_name\", "
                      "\"pid\": %d, \"args\": {\"name\": \"node %d\"}}",
                      nkv.first, nkv.first);
        emit(buf);
        for (const auto &mkv : nkv.second) {
            std::snprintf(buf, sizeof(buf),
                          "{\"ph\": \"M\", \"name\": \"thread_name\", "
                          "\"pid\": %d, \"tid\": %d, "
                          "\"args\": {\"name\": \"member %d\"}}",
                          nkv.first, mkv.first, mkv.first);
            emit(buf);
        }
    }

    for (const TraceSpan &s : b.spans()) {
        const bool shard = s.name == "shard";
        const int tid = shard ? s.member : jobLane(s.traceId);
        char buf[320];
        std::snprintf(
            buf, sizeof(buf),
            "{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
            "\"pid\": %d, \"tid\": %d, \"ts\": %s, \"dur\": %s, "
            "\"args\": {\"job\": %" PRIu64 ", \"trace\": %" PRIu64
            ", \"uid\": %" PRIu64 ", \"seq\": %d, \"shots\": %d, "
            "\"failed\": %s, \"late\": %s}}",
            s.name.c_str(), shard ? "shard" : "job", s.node, tid,
            fmtUs(usOf(s.beginH)).c_str(),
            fmtUs(usOf(s.durationH())).c_str(), s.jobId, s.traceId,
            s.workUid, s.seq, s.shots, s.failed ? "true" : "false",
            s.late ? "true" : "false");
        emit(buf);
    }

    for (const TraceInstant &i : b.instants()) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "{\"ph\": \"i\", \"name\": \"%s\", \"s\": \"p\", "
                      "\"pid\": %d, \"tid\": %d, \"ts\": %s}",
                      i.name.c_str(), i.node, i.member >= 0 ? i.member : 0,
                      fmtUs(usOf(i.tH)).c_str());
        emit(buf);
    }

    out += "\n]}\n";
    return out;
}

// ---------------------------------------------------------------------------
// Journal-driven analysis (trace_report's data model)
// ---------------------------------------------------------------------------

namespace {

StageBreakdown
stageRow(const char *stage, std::vector<double> xs, double totalSum)
{
    StageBreakdown row;
    row.stage = stage;
    if (xs.empty())
        return row;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    std::sort(xs.begin(), xs.end());
    row.meanH = sum / static_cast<double>(xs.size());
    row.p50H = exactQuantile(xs, 0.50);
    row.p95H = exactQuantile(xs, 0.95);
    row.p99H = exactQuantile(xs, 0.99);
    row.maxH = xs.back();
    row.share = totalSum > 0.0 ? sum / totalSum : 0.0;
    return row;
}

/** Fraction of [lo, hi] covered by the union of intervals. */
double
coverage(const std::vector<std::pair<double, double>> &merged, double lo,
         double hi)
{
    if (hi <= lo)
        return 0.0;
    double covered = 0.0;
    for (const auto &iv : merged) {
        double a = std::max(iv.first, lo);
        double b = std::min(iv.second, hi);
        if (b > a)
            covered += b - a;
    }
    return covered / (hi - lo);
}

} // namespace

TraceAnalysis
analyze(const TraceBuilder &b)
{
    TraceAnalysis a;
    a.records = b.records();
    a.jobs = b.paths().size();
    a.openJobs = b.openJobs();
    a.windowStartH = b.windowStartH();
    a.windowEndH = b.windowEndH();
    a.problems = b.problems();
    a.forwardEdges = b.forwardEdges();
    a.rejectedEverywhere = b.rejectedEverywhere();

    // Critical-path breakdown over finalized jobs.
    std::vector<double> qw, ex, ag, tot;
    bool exact = true;
    double totalSum = 0.0;
    for (const JobPath &p : b.paths()) {
        qw.push_back(p.queueWaitH);
        ex.push_back(p.executeH);
        ag.push_back(p.aggregateH);
        tot.push_back(p.totalH());
        totalSum += p.totalH();
        exact = exact && p.chainExact;
        if (p.fromCache)
            ++a.cacheServed;
        if (p.coalesced)
            ++a.coalesced;
        if (p.shed) {
            ++a.shed;
            auto &row = a.shedsByTenant[p.tenant];
            row.first += 1;
            row.second += static_cast<uint64_t>(p.shedShots);
        }
        if (p.degraded)
            ++a.degraded;
    }
    a.criticalPathsExact = exact && a.problems.empty();
    a.breakdown.push_back(stageRow("queue_wait", std::move(qw), totalSum));
    a.breakdown.push_back(stageRow("execute", std::move(ex), totalSum));
    a.breakdown.push_back(stageRow("aggregate", std::move(ag), totalSum));
    a.breakdown.push_back(stageRow("total", std::move(tot), totalSum));

    // Per-member utilization from shard spans (late resolutions ran
    // real shots, so they count as busy time too).
    std::map<std::pair<int, int>, std::vector<std::pair<double, double>>>
        busy;
    std::map<std::pair<int, int>, MemberUtilization> rows;
    for (const TraceSpan &s : b.spans()) {
        if (s.name != "shard")
            continue;
        ++a.shardSpans;
        if (s.late)
            ++a.lateShards;
        if (s.failed)
            ++a.failedShards;
        auto key = std::make_pair(s.node, s.member);
        MemberUtilization &row = rows[key];
        row.node = s.node;
        row.member = s.member;
        ++row.shards;
        row.shots += static_cast<uint64_t>(s.shots);
        busy[key].push_back({s.beginH, s.endH});
    }
    const double lo = a.windowStartH, hi = a.windowEndH;
    for (auto &kv : rows) {
        auto &ivs = busy[kv.first];
        std::sort(ivs.begin(), ivs.end());
        std::vector<std::pair<double, double>> merged;
        for (const auto &iv : ivs) {
            if (!merged.empty() && iv.first <= merged.back().second)
                merged.back().second =
                    std::max(merged.back().second, iv.second);
            else
                merged.push_back(iv);
        }
        for (const auto &iv : merged)
            kv.second.busyH += iv.second - iv.first;
        if (hi > lo)
            kv.second.utilization = kv.second.busyH / (hi - lo);
        // 60-bucket busy-fraction sparkline over the journal window.
        std::string line;
        for (int t = 0; t < 60; ++t) {
            double bl = lo + (hi - lo) * t / 60.0;
            double bh = lo + (hi - lo) * (t + 1) / 60.0;
            double c = coverage(merged, bl, bh);
            line += c <= 0.0 ? ' ' : c <= 1.0 / 3 ? '.'
                                 : c <= 2.0 / 3   ? '+'
                                                  : '#';
        }
        kv.second.timeline = line;
        a.members.push_back(kv.second);
    }
    return a;
}

// ---------------------------------------------------------------------------
// Plain-text report
// ---------------------------------------------------------------------------

std::string
renderReport(const TraceAnalysis &a)
{
    std::string out;
    char buf[256];
    auto line = [&](const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        out += buf;
        out += "\n";
    };

    out += "== trace report ==\n";
    line("records %zu  window [%.6f, %.6f] h", a.records, a.windowStartH,
         a.windowEndH);
    line("jobs %zu (cache %zu, coalesced %zu, shed %zu, degraded %zu)  "
         "open %zu",
         a.jobs, a.cacheServed, a.coalesced, a.shed, a.degraded,
         a.openJobs);
    line("shards %zu (failed %zu, late %zu)", a.shardSpans, a.failedShards,
         a.lateShards);
    line("critical paths: %s (%zu jobs chain admit->finalize bitwise)",
         a.criticalPathsExact ? "exact" : "BROKEN", a.jobs);
    for (const std::string &p : a.problems)
        line("problem: %s", p.c_str());

    out += "\n-- critical path breakdown (hours) --\n";
    line("%-11s %10s %10s %10s %10s %10s %7s", "stage", "mean", "p50",
         "p95", "p99", "max", "share");
    for (const StageBreakdown &s : a.breakdown)
        line("%-11s %10.6f %10.6f %10.6f %10.6f %10.6f %6.1f%%",
             s.stage.c_str(), s.meanH, s.p50H, s.p95H, s.p99H, s.maxH,
             100.0 * s.share);

    out += "\n-- member utilization --\n";
    line("%-4s %-6s %7s %9s %10s %6s  %s", "node", "member", "shards",
         "shots", "busyH", "util", "timeline");
    for (const MemberUtilization &m : a.members)
        line("%-4d %-6d %7d %9" PRIu64 " %10.6f %5.1f%%  |%s|", m.node,
             m.member, m.shards, m.shots, m.busyH, 100.0 * m.utilization,
             m.timeline.c_str());

    if (!a.shedsByTenant.empty()) {
        out += "\n-- shed attribution --\n";
        line("%-6s %6s %9s", "tenant", "jobs", "shots");
        for (const auto &kv : a.shedsByTenant)
            line("%-6d %6" PRIu64 " %9" PRIu64, kv.first, kv.second.first,
                 kv.second.second);
    }

    if (!a.forwardEdges.empty() || a.rejectedEverywhere) {
        out += "\n-- forward attribution --\n";
        for (const auto &kv : a.forwardEdges)
            line("%-8s %6" PRIu64, kv.first.c_str(), kv.second);
        line("rejected-everywhere %zu", a.rejectedEverywhere);
    }

    return out;
}

} // namespace obs
} // namespace eqc
