#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/rng.h"

namespace e2e {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // exec, so it would report the launching process's peak.
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf", &kib) == 1)
            break;
    std::fclose(f);
    return kib / 1024.0;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t a, uint64_t b)
{
    return eqc::splitmix64(eqc::splitmix64(eqc::splitmix64(seed) ^ a) ^
                           (b + 0x9E3779B97F4A7C15ULL));
}

void
Digest::add(double x)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
        h_ ^= (bits >> (8 * i)) & 0xFFu;
        h_ *= 1099511628211ULL;
    }
}

namespace {

int
threadTag()
{
    static std::atomic<int> next{0};
    thread_local const int tag = next.fetch_add(1);
    return tag;
}

} // namespace

int
Tracer::record(const char *name, int parent, uint64_t traceId,
               int64_t startNs, int64_t endNs)
{
    if (!enabled_)
        return -1;
    const int tid = threadTag();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, traceId, startNs, endNs, tid});
    return static_cast<int>(spans_.size() - 1);
}

int
Tracer::begin(const char *name, int parent, uint64_t traceId)
{
    return record(name, parent, traceId, nowNs(), 0);
}

void
Tracer::end(int index)
{
    if (index < 0)
        return;
    const int64_t t = nowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].endNs = t;
}

std::map<std::string, Tracer::NameStats>
Tracer::selfTimes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)]
                .push_back(static_cast<int>(i));

    std::map<std::string, NameStats> out;
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // Children may overlap (concurrent campaigns), so subtract the
        // union of their intervals, clipped to the parent.
        iv.clear();
        for (int c : children[i]) {
            const Span &k = spans_[static_cast<std::size_t>(c)];
            const int64_t a = std::max(k.startNs, s.startNs);
            const int64_t b = std::min(k.endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0;
        int64_t curA = 0, curB = 0;
        bool open = false;
        for (const auto &p : iv) {
            if (open && p.first <= curB) {
                curB = std::max(curB, p.second);
                continue;
            }
            if (open)
                covered += curB - curA;
            curA = p.first;
            curB = p.second;
            open = true;
        }
        if (open)
            covered += curB - curA;
        const double durMs = static_cast<double>(s.endNs - s.startNs) * 1e-6;
        const double selfMs = static_cast<double>(s.endNs - s.startNs -
                                                  covered) *
                              1e-6;
        NameStats &ns = out[s.name];
        ++ns.count;
        ns.totalMs += durMs;
        ns.selfMs += selfMs;
        ns.selfMsSamples.push_back(selfMs);
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    int64_t t0 = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (i == 0 || spans_[i].startNs < t0)
            t0 = spans_[i].startNs;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,"
                     "\"trace_id\":%llu}}\n",
                     i ? "," : "", s.name,
                     static_cast<int>(std::strcspn(s.name, ".")), s.name,
                     s.tid, static_cast<double>(s.startNs - t0) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3, i,
                     s.parent,
                     static_cast<unsigned long long>(s.traceId));
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, uint64_t attempted, uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += i ? ", " : "";
        line += jsonString(metrics[i].name) + ": {\"value\": " +
                jsonNumber(metrics[i].value) +
                ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

} // namespace e2e
