#include "replay/journal.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>

namespace eqc {
namespace replay {

// ---------------------------------------------------------------------------
// Kind names
// ---------------------------------------------------------------------------

const char *
kindName(EventKind kind)
{
    switch (kind) {
    case EventKind::Admit: return "admit";
    case EventKind::Reject: return "reject";
    case EventKind::Coalesce: return "coalesce";
    case EventKind::CacheHit: return "cache_hit";
    case EventKind::Dispatch: return "dispatch";
    case EventKind::ShardDone: return "shard_done";
    case EventKind::ShardFail: return "shard_fail";
    case EventKind::Replan: return "replan";
    case EventKind::MemberFail: return "member_fail";
    case EventKind::MemberRestore: return "member_restore";
    case EventKind::Drain: return "drain";
    case EventKind::Finalize: return "finalize";
    case EventKind::DeadlineShed: return "deadline_shed";
    case EventKind::MemberJoin: return "member_join";
    case EventKind::MemberLeave: return "member_leave";
    case EventKind::RiderJoin: return "rider_join";
    case EventKind::Route: return "route";
    case EventKind::Forward: return "forward";
    }
    return "?";
}

std::string
hexBits(double v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(doubleBits(v)));
    return buf;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

void
key(std::string &out, const char *k)
{
    out += out.back() == '{' ? "\"" : ",\"";
    out += k;
    out += "\":";
}

void
putD(std::string &out, const char *k, double v)
{
    // %.17g round-trips every finite double exactly through strtod.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    key(out, k);
    out += buf;
}

void
putU(std::string &out, const char *k, uint64_t v)
{
    key(out, k);
    out += std::to_string(v);
}

void
putI(std::string &out, const char *k, long long v)
{
    key(out, k);
    out += std::to_string(v);
}

void
putB(std::string &out, const char *k, bool v)
{
    key(out, k);
    out += v ? "true" : "false";
}

void
putS(std::string &out, const char *k, const std::string &v)
{
    key(out, k);
    out += '"';
    for (char c : v) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
}

void
putArr(std::string &out, const char *k, const std::vector<double> &v)
{
    key(out, k);
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
        out += buf;
    }
    out += ']';
}

void
serializeRecord(std::string &out, const EventRecord &r)
{
    out += '{';
    putS(out, "k", kindName(r.kind));
    putD(out, "t", r.tH);
    switch (r.kind) {
    case EventKind::Admit:
        putU(out, "job", r.jobId);
        putI(out, "tenant", r.tenant);
        putI(out, "wl", r.workload);
        putI(out, "shots", r.shots);
        putI(out, "prio", r.priority);
        putD(out, "subH", r.submitH);
        putD(out, "deadH", r.deadlineH);
        putArr(out, "params", r.params);
        break;
    case EventKind::Reject:
        putI(out, "tenant", r.tenant);
        putI(out, "wl", r.workload);
        putI(out, "shots", r.shots);
        putI(out, "prio", r.priority);
        putD(out, "subH", r.submitH);
        putD(out, "deadH", r.deadlineH);
        putI(out, "status", r.status);
        putI(out, "depth", r.depth);
        putD(out, "retryS", r.retryAfterS);
        putArr(out, "params", r.params);
        break;
    case EventKind::Coalesce:
        putU(out, "job", r.jobId);
        putU(out, "uid", r.workUid);
        break;
    case EventKind::CacheHit:
        putU(out, "uid", r.workUid);
        putD(out, "storedH", r.storedAtH);
        putI(out, "served", r.servedShots);
        putI(out, "shots", r.shots);
        putD(out, "energy", r.energy);
        putI(out, "riders", r.riders);
        break;
    case EventKind::Dispatch:
        putU(out, "uid", r.workUid);
        putI(out, "member", r.member);
        putI(out, "shots", r.shots);
        putI(out, "seq", r.seq);
        putD(out, "pc", r.pCorrect);
        putI(out, "depth", r.depth);
        break;
    case EventKind::ShardDone:
        putU(out, "uid", r.workUid);
        putI(out, "member", r.member);
        putI(out, "shots", r.shots);
        putI(out, "seq", r.seq);
        putD(out, "energy", r.energy);
        putD(out, "var", r.variance);
        putD(out, "pc", r.pCorrect);
        putI(out, "circuits", r.circuits);
        putD(out, "doneH", r.doneH);
        putB(out, "late", r.late);
        break;
    case EventKind::ShardFail:
        putU(out, "uid", r.workUid);
        putI(out, "member", r.member);
        putI(out, "shots", r.shots);
        putI(out, "seq", r.seq);
        putB(out, "late", r.late);
        break;
    case EventKind::Replan:
        putU(out, "uid", r.workUid);
        putI(out, "round", r.round);
        putI(out, "shots", r.shots);
        putI(out, "planned", r.planned);
        putB(out, "exhausted", r.exhausted);
        break;
    case EventKind::MemberFail:
        putI(out, "member", r.member);
        putD(out, "atH", r.atH);
        break;
    case EventKind::MemberRestore:
        putI(out, "member", r.member);
        putB(out, "auto", r.autoRestore);
        break;
    case EventKind::Drain:
        // Full drains stay byte-compatible with version-1 journals;
        // only a bounded runUntil carries its limit.
        if (std::isfinite(r.atH))
            putD(out, "untilH", r.atH);
        break;
    case EventKind::Finalize:
        putU(out, "job", r.jobId);
        putU(out, "uid", r.workUid);
        putI(out, "tenant", r.tenant);
        putI(out, "wl", r.workload);
        putD(out, "energy", r.energy);
        putD(out, "var", r.variance);
        putD(out, "pc", r.pCorrect);
        putD(out, "doneH", r.doneH);
        putI(out, "shots", r.shots);
        putI(out, "shardsRun", r.shardsRun);
        putI(out, "circuits", r.circuits);
        putI(out, "round", r.round);
        putB(out, "degraded", r.degraded);
        putB(out, "cache", r.fromCache);
        putB(out, "coal", r.coalesced);
        putD(out, "deadH", r.deadlineH);
        putI(out, "shedShots", r.shedShots);
        putB(out, "shed", r.shed);
        break;
    case EventKind::DeadlineShed:
        putU(out, "job", r.jobId);
        putU(out, "uid", r.workUid);
        putI(out, "shots", r.shots);
        putI(out, "shedShots", r.shedShots);
        putD(out, "deadH", r.deadlineH);
        break;
    case EventKind::MemberJoin:
        putI(out, "member", r.member);
        putS(out, "name", r.name);
        putD(out, "atH", r.atH);
        break;
    case EventKind::MemberLeave:
        putI(out, "member", r.member);
        putD(out, "atH", r.atH);
        break;
    case EventKind::RiderJoin:
        putU(out, "job", r.jobId);
        putU(out, "uid", r.workUid);
        putI(out, "shots", r.shots);
        break;
    case EventKind::Route:
        // Carries the full request (like Admit) so a routed replay can
        // re-drive Router::submit from the journal alone; "node" in
        // the generic tail is the ring-owner target.
        putI(out, "tenant", r.tenant);
        putI(out, "wl", r.workload);
        putI(out, "shots", r.shots);
        putI(out, "prio", r.priority);
        putD(out, "subH", r.submitH);
        putD(out, "deadH", r.deadlineH);
        putArr(out, "params", r.params);
        break;
    case EventKind::Forward:
        putI(out, "from", r.fromNode);
        putD(out, "retryS", r.retryAfterS);
        break;
    }
    // Generic multi-node tail: emitted only when non-default, so
    // single-node journals stay byte-identical to the version-1 wire
    // format (node 0, unrouted work emits nothing here).
    if (r.node != 0)
        putI(out, "node", r.node);
    if (r.ruid != 0)
        putU(out, "ruid", r.ruid);
    out += "}\n";
}

} // namespace

std::string
EventJournal::serialize() const
{
    std::string out;
    out.reserve(128 + records_.size() * 96);

    const JournalConfig &c = config;
    const serve::ServiceOptions &o = c.options;
    out += '{';
    putS(out, "k", "config");
    putI(out, "version", c.version);
    putS(out, "clock", c.clock);
    putU(out, "seed", o.seed);
    putD(out, "ttlH", o.resultCacheTtlH);
    putU(out, "cacheCap", o.resultCacheCapacity);
    putU(out, "queueDepth", o.admission.maxQueueDepth);
    putI(out, "tenantQuota", o.admission.maxQueuedPerTenant);
    putI(out, "maxShots", o.admission.maxShotsPerJob);
    putI(out, "minShard", o.scheduler.minShardShots);
    putD(out, "minLatS", o.scheduler.minLatencyS);
    putD(out, "warmBoost", o.scheduler.warmBoost);
    putI(out, "agg", static_cast<int>(o.aggregation));
    putI(out, "shotMode", static_cast<int>(o.shotMode));
    putI(out, "pcMode", static_cast<int>(o.pCorrectMode));
    putB(out, "mitig", o.readoutMitigation);
    putI(out, "requeueRounds", o.maxRequeueRounds);
    putD(out, "parkRetryH", o.retryUnplannableH);
    putD(out, "supBase", o.superviseBaseBackoffH);
    putD(out, "supMax", o.superviseMaxBackoffH);
    putD(out, "coldPenalty", o.scheduler.coldStartPenalty);
    putD(out, "coldH", o.scheduler.coldStartH);
    putU(out, "catalogSeed", c.catalogSeed);
    if (c.nodes != 1) {
        putI(out, "nodes", c.nodes);
        putI(out, "vnodes", c.virtualNodes);
        putI(out, "forwardHops", c.forwardHops);
    }
    out += "}\n";

    for (const DeviceSpec &d : c.devices) {
        out += '{';
        putS(out, "k", "device");
        putS(out, "name", d.name);
        putD(out, "spikeRate", d.spikeRatePerHour);
        putD(out, "spikeSev", d.spikeSeverity);
        if (d.node != 0)
            putI(out, "node", d.node);
        out += "}\n";
    }
    for (const WorkloadSpec &w : c.workloads) {
        out += '{';
        putS(out, "k", "workload");
        putS(out, "problem", w.problem);
        putU(out, "initSeed", w.initSeed);
        out += "}\n";
    }
    for (const EventRecord &r : records_)
        serializeRecord(out, r);
    return out;
}

// ---------------------------------------------------------------------------
// Parsing (minimal flat-object JSONL, exactly the dialect serialized)
// ---------------------------------------------------------------------------

namespace {

/** One parsed JSON value: string, raw number text, bool, or array. */
struct Tok
{
    enum Type { Str, Num, Bool, Arr } type = Num;
    std::string s; // Str payload or Num raw text
    bool b = false;
    std::vector<double> arr;

    double d() const { return std::strtod(s.c_str(), nullptr); }
    long long i() const
    {
        return std::strtoll(s.c_str(), nullptr, 10);
    }
    uint64_t u() const
    {
        return std::strtoull(s.c_str(), nullptr, 10);
    }
};

struct Cursor
{
    const char *p;
    const char *end;

    bool done() const { return p >= end; }
    char peek() const { return done() ? '\0' : *p; }
    void skipWs()
    {
        while (!done() && (*p == ' ' || *p == '\t'))
            ++p;
    }
    bool eat(char c)
    {
        skipWs();
        if (peek() != c)
            return false;
        ++p;
        return true;
    }
};

bool
parseString(Cursor &c, std::string &out)
{
    if (!c.eat('"'))
        return false;
    out.clear();
    while (!c.done() && *c.p != '"') {
        char ch = *c.p++;
        if (ch == '\\' && !c.done())
            ch = *c.p++;
        out += ch;
    }
    return c.eat('"');
}

bool
parseNumberText(Cursor &c, std::string &out)
{
    c.skipWs();
    out.clear();
    // Accept the %.17g alphabet, including inf/nan spellings.
    while (!c.done()) {
        char ch = *c.p;
        if ((ch >= '0' && ch <= '9') || ch == '+' || ch == '-' ||
            ch == '.' || ch == 'e' || ch == 'E' || ch == 'i' ||
            ch == 'n' || ch == 'f' || ch == 'a') {
            out += ch;
            ++c.p;
        } else {
            break;
        }
    }
    return !out.empty();
}

bool
parseValue(Cursor &c, Tok &tok)
{
    c.skipWs();
    const char ch = c.peek();
    if (ch == '"') {
        tok.type = Tok::Str;
        return parseString(c, tok.s);
    }
    if (ch == '[') {
        tok.type = Tok::Arr;
        ++c.p;
        c.skipWs();
        if (c.peek() == ']') {
            ++c.p;
            return true;
        }
        for (;;) {
            std::string num;
            if (!parseNumberText(c, num))
                return false;
            tok.arr.push_back(std::strtod(num.c_str(), nullptr));
            c.skipWs();
            if (c.eat(']'))
                return true;
            if (!c.eat(','))
                return false;
        }
    }
    if (ch == 't' || ch == 'f') {
        tok.type = Tok::Bool;
        const char *word = ch == 't' ? "true" : "false";
        for (const char *w = word; *w; ++w)
            if (c.done() || *c.p++ != *w)
                return false;
        tok.b = ch == 't';
        return true;
    }
    tok.type = Tok::Num;
    return parseNumberText(c, tok.s);
}

bool
parseLine(const std::string &line, std::map<std::string, Tok> &out)
{
    Cursor c{line.data(), line.data() + line.size()};
    if (!c.eat('{'))
        return false;
    c.skipWs();
    if (c.eat('}'))
        return true;
    for (;;) {
        std::string k;
        Tok v;
        if (!parseString(c, k) || !c.eat(':') || !parseValue(c, v))
            return false;
        out.emplace(std::move(k), std::move(v));
        if (c.eat('}'))
            return true;
        if (!c.eat(','))
            return false;
    }
}

EventKind
kindFromName(const std::string &name, bool &ok)
{
    static const std::pair<const char *, EventKind> table[] = {
        {"admit", EventKind::Admit},
        {"reject", EventKind::Reject},
        {"coalesce", EventKind::Coalesce},
        {"cache_hit", EventKind::CacheHit},
        {"dispatch", EventKind::Dispatch},
        {"shard_done", EventKind::ShardDone},
        {"shard_fail", EventKind::ShardFail},
        {"replan", EventKind::Replan},
        {"member_fail", EventKind::MemberFail},
        {"member_restore", EventKind::MemberRestore},
        {"drain", EventKind::Drain},
        {"finalize", EventKind::Finalize},
        {"deadline_shed", EventKind::DeadlineShed},
        {"member_join", EventKind::MemberJoin},
        {"member_leave", EventKind::MemberLeave},
        {"rider_join", EventKind::RiderJoin},
        {"route", EventKind::Route},
        {"forward", EventKind::Forward},
    };
    ok = true;
    for (const auto &e : table)
        if (name == e.first)
            return e.second;
    ok = false;
    return EventKind::Drain;
}

/** Field lookup helpers tolerating absent keys (sparse records). */
double
getD(const std::map<std::string, Tok> &m, const char *k, double dflt = 0.0)
{
    auto it = m.find(k);
    return it == m.end() ? dflt : it->second.d();
}

long long
getI(const std::map<std::string, Tok> &m, const char *k, long long dflt = 0)
{
    auto it = m.find(k);
    return it == m.end() ? dflt : it->second.i();
}

uint64_t
getU(const std::map<std::string, Tok> &m, const char *k, uint64_t dflt = 0)
{
    auto it = m.find(k);
    return it == m.end() ? dflt : it->second.u();
}

bool
getB(const std::map<std::string, Tok> &m, const char *k, bool dflt = false)
{
    auto it = m.find(k);
    return it == m.end() ? dflt : it->second.b;
}

std::string
getS(const std::map<std::string, Tok> &m, const char *k)
{
    auto it = m.find(k);
    return it == m.end() ? std::string() : it->second.s;
}

} // namespace

EventJournal
EventJournal::parse(const std::string &text, std::string *err)
{
    EventJournal j;
    if (err)
        err->clear();
    std::size_t lineNo = 0;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos)
            eol = text.size();
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        ++lineNo;
        if (line.empty())
            continue;
        std::map<std::string, Tok> m;
        if (!parseLine(line, m)) {
            if (err)
                *err = "journal parse error at line " +
                       std::to_string(lineNo);
            return j;
        }
        const std::string k = getS(m, "k");
        if (k == "config") {
            // Older journals also carry "reservoir" (the size of a
            // deleted latency estimator); it is ignored.
            JournalConfig &c = j.config;
            serve::ServiceOptions &o = c.options;
            c.version = static_cast<int>(getI(m, "version", 1));
            c.clock = getS(m, "clock");
            o.seed = getU(m, "seed", 1);
            o.resultCacheTtlH = getD(m, "ttlH");
            o.resultCacheCapacity =
                static_cast<std::size_t>(getU(m, "cacheCap", 256));
            o.admission.maxQueueDepth =
                static_cast<std::size_t>(getU(m, "queueDepth", 1024));
            o.admission.maxQueuedPerTenant =
                static_cast<int>(getI(m, "tenantQuota", 64));
            o.admission.maxShotsPerJob =
                static_cast<int>(getI(m, "maxShots", 1 << 20));
            o.scheduler.minShardShots =
                static_cast<int>(getI(m, "minShard", 64));
            o.scheduler.minLatencyS = getD(m, "minLatS", 1.0);
            o.scheduler.warmBoost = getD(m, "warmBoost", 1.25);
            o.aggregation =
                static_cast<serve::AggregationMode>(getI(m, "agg"));
            o.shotMode = static_cast<ShotMode>(getI(m, "shotMode", 2));
            o.pCorrectMode = static_cast<PCorrectMode>(getI(m, "pcMode"));
            o.readoutMitigation = getB(m, "mitig", true);
            o.maxRequeueRounds =
                static_cast<int>(getI(m, "requeueRounds", 4));
            o.retryUnplannableH = getD(m, "parkRetryH");
            o.superviseBaseBackoffH = getD(m, "supBase");
            o.superviseMaxBackoffH = getD(m, "supMax", 2.0);
            o.scheduler.coldStartPenalty = getD(m, "coldPenalty", 0.35);
            o.scheduler.coldStartH = getD(m, "coldH", 0.25);
            c.catalogSeed = getU(m, "catalogSeed", 2022);
            c.nodes = static_cast<int>(getI(m, "nodes", 1));
            c.virtualNodes = static_cast<int>(getI(m, "vnodes", 64));
            c.forwardHops =
                static_cast<int>(getI(m, "forwardHops", 2));
            continue;
        }
        if (k == "device") {
            DeviceSpec d;
            d.name = getS(m, "name");
            d.spikeRatePerHour = getD(m, "spikeRate", -1.0);
            d.spikeSeverity = getD(m, "spikeSev", -1.0);
            d.node = static_cast<int>(getI(m, "node"));
            j.config.devices.push_back(std::move(d));
            continue;
        }
        if (k == "workload") {
            WorkloadSpec w;
            w.problem = getS(m, "problem");
            w.initSeed = getU(m, "initSeed", 7);
            j.config.workloads.push_back(std::move(w));
            continue;
        }
        bool known = false;
        EventRecord r;
        r.kind = kindFromName(k, known);
        if (!known) {
            if (err)
                *err = "journal: unknown record kind '" + k +
                       "' at line " + std::to_string(lineNo);
            return j;
        }
        r.tH = getD(m, "t");
        r.jobId = getU(m, "job");
        r.workUid = getU(m, "uid");
        r.tenant = static_cast<int>(getI(m, "tenant"));
        r.workload = static_cast<int>(getI(m, "wl", -1));
        r.member = static_cast<int>(getI(m, "member", -1));
        r.shots = static_cast<int>(getI(m, "shots"));
        r.servedShots = static_cast<int>(getI(m, "served"));
        r.seq = static_cast<int>(getI(m, "seq"));
        r.round = static_cast<int>(getI(m, "round"));
        r.planned = static_cast<int>(getI(m, "planned"));
        r.circuits = static_cast<int>(getI(m, "circuits"));
        r.shardsRun = static_cast<int>(getI(m, "shardsRun"));
        r.priority = static_cast<int>(getI(m, "prio"));
        r.status = static_cast<int>(getI(m, "status"));
        r.depth = static_cast<int>(getI(m, "depth"));
        r.riders = static_cast<int>(getI(m, "riders"));
        r.submitH = getD(m, "subH");
        r.atH = getD(m, "atH");
        r.storedAtH = getD(m, "storedH");
        r.doneH = getD(m, "doneH");
        r.retryAfterS = getD(m, "retryS");
        r.energy = getD(m, "energy");
        r.variance = getD(m, "var");
        r.pCorrect = getD(m, "pc");
        r.degraded = getB(m, "degraded");
        r.fromCache = getB(m, "cache");
        r.coalesced = getB(m, "coal");
        r.exhausted = getB(m, "exhausted");
        r.deadlineH = getD(m, "deadH");
        r.shedShots = static_cast<int>(getI(m, "shedShots"));
        r.shed = getB(m, "shed");
        r.late = getB(m, "late");
        r.autoRestore = getB(m, "auto");
        r.name = getS(m, "name");
        r.node = static_cast<int>(getI(m, "node"));
        r.ruid = getU(m, "ruid");
        r.fromNode = static_cast<int>(getI(m, "from", -1));
        if (r.kind == EventKind::Drain)
            r.atH = getD(m, "untilH",
                         std::numeric_limits<double>::infinity());
        auto it = m.find("params");
        if (it != m.end() && it->second.type == Tok::Arr)
            r.params = it->second.arr;
        j.records_.push_back(std::move(r));
    }
    return j;
}

} // namespace replay
} // namespace eqc
