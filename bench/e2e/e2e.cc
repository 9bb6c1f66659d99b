/**
 * @file
 * eqc_e2e — one workload of the end-to-end benchmark, in one process.
 *
 *   eqc_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *           [--trace-dir DIR] [--smoke] [--check]
 *
 * The run does fixed work: round(S / 2) segments (10 at the default 20
 * seconds; one with --smoke), each sized to take about 2 s on the
 * machine that defined the benchmark, with inputs generated from
 * (seed, segment). Every segment sets up afresh (timed as set-up), runs
 * its work (timed) on one thread and checks the outputs. The last
 * stdout line is the JSON result: the end-to-end metrics, or with
 * --trace 1 the per-layer metrics, in which case the odd segments also
 * record spans, a layer probe runs afterwards, and DIR/NAME.trace.json
 * (Chrome trace events) and DIR/NAME.layers.json are written.
 *
 * --check (implied by --trace 1) replays the untraced segment 0 at the
 * min(nproc, 4) thread budget and requires its result digest to equal
 * the 1-thread one: the library's determinism contract. Exit status 1
 * when any check fails.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/task_pool.h"
#include "obs/metrics.h"
#include "workloads.h"

using namespace e2e;

namespace {

/** Target wall time of one segment when the benchmark was defined. */
constexpr double kSegmentSeconds = 2.0;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string traceDir = "build-e2e/trace";
    bool smoke = false;
    bool check = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "eqc_e2e: %s\nusage: eqc_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-dir DIR] "
                 "[--smoke] [--check]\n"
                 "workloads:",
                 msg);
    for (const Workload &w : workloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((flag + " needs a value").c_str());
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--seed")
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (flag == "--seconds")
            a.seconds = std::atof(value().c_str());
        else if (flag == "--trace")
            a.trace = value() != "0";
        else if (flag == "--trace-dir")
            a.traceDir = value();
        else if (flag == "--smoke")
            a.smoke = true;
        else if (flag == "--check")
            a.check = true;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (!findWorkload(a.workload))
        usage(("unknown workload '" + a.workload + "'").c_str());
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/** Pooled, per-segment and replay results of the run. */
struct RunData
{
    std::vector<SegmentResult> segments;
    std::vector<bool> traced;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    count(const SegmentResult &r)
    {
        attempted += r.attempted;
        failed += r.failed;
        for (const std::string &m : r.failures)
            std::fprintf(stderr, "check failed: %s\n", m.c_str());
    }

    /** Every step time of the run. */
    std::vector<double>
    steps() const
    {
        std::vector<double> all;
        for (const SegmentResult &s : segments)
            all.insert(all.end(), s.stepMs.begin(), s.stepMs.end());
        return all;
    }

    /** Per-segment rates: all segments (-1), untraced (0) or traced (1). */
    std::vector<double>
    opsPerS(int tracedFilter) const
    {
        std::vector<double> v;
        for (std::size_t i = 0; i < segments.size(); ++i)
            if (tracedFilter < 0 || traced[i] == (tracedFilter == 1))
                v.push_back(static_cast<double>(segments[i].ops) /
                            segments[i].wallS);
        return v;
    }
};

std::vector<Metric>
endToEndMetrics(const RunData &d)
{
    std::vector<double> setup;
    double modelS = 0.0, ops = 0.0, errAbs = 0.0, refAbs = 0.0;
    for (const SegmentResult &s : d.segments) {
        setup.push_back(s.setupS);
        modelS += s.modelSeconds;
        ops += static_cast<double>(s.ops);
        errAbs += s.errAbs;
        refAbs += s.refAbs;
    }
    return {
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ops_per_s", median(d.opsPerS(-1)), "1/s"},
        {"step_ms_p50", median(d.steps()), "ms"},
        {"model_s_per_op", modelS / ops, "model_s"},
        {"energy_err_pct", 100.0 * errAbs / refAbs, "%"},
    };
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** What the replay at the thread budget measured. */
struct Scaling
{
    double speedup = 0.0;
    /** (user + sys CPU) / (wall x threads) of the replay. */
    double cpuBusy = 0.0;
    /** Shared-pool telemetry, read after the replay. */
    double poolFanouts = 0.0;
    double poolInline = 0.0;
};

/** Per-layer metrics, in BENCHMARK.json order. */
std::vector<Metric>
layerMetrics(const LayerSamples &l, const Tracer &tracer, const RunData &d,
             const Scaling &scaling)
{
    auto q = [&](const char *key, double p) {
        auto it = l.samples.find(key);
        return it == l.samples.end() ? 0.0 : quantile(it->second, p);
    };
    auto v = [&](const char *key) {
        auto it = l.values.find(key);
        return it == l.values.end() ? 0.0 : it->second;
    };

    // The benchmark's own code: segment time outside the library calls
    // (self time of bench.segment) plus the closed loop's per-round
    // bookkeeping (self time of serve.round).
    const auto spans = tracer.selfTimes();
    auto selfMs = [&](const char *name) {
        auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.selfMs;
    };
    auto totalMs = [&](const char *name) {
        auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second.totalMs;
    };
    const double selfShare =
        ratio(selfMs("bench.segment") + selfMs("serve.round"),
              totalMs("bench.segment"));
    const double tracedRate = median(d.opsPerS(1));
    const double plainRate = median(d.opsPerS(0));
    // A single-segment (smoke) run has no traced segment to compare.
    const double overheadPct =
        tracedRate > 0.0 ? 100.0 * (plainRate - tracedRate) / plainRate
                         : 0.0;
    const double admitted = v("serve.admitted");

    return {
        {"transpile.calls", v("transpile.calls"), "count"},
        {"transpile.us_p50", q("transpile.us", 0.5), "us"},
        {"sim.fuse_us_p50", q("sim.fuse_us", 0.5), "us"},
        {"sim.fused_ops_per_circuit", v("sim.fused_ops_per_circuit"),
         "count"},
        {"device.execute_cold_us_p50", q("device.execute_cold_us", 0.5),
         "us"},
        {"device.execute_warm_us_p50", q("device.execute_warm_us", 0.5),
         "us"},
        {"device.execute_warm_us_p99", q("device.execute_warm_us", 0.99),
         "us"},
        {"device.execute_newtime_us_p50",
         q("device.execute_newtime_us", 0.5), "us"},
        {"quantum.apply_program_us_p50", q("quantum.apply_program_us", 0.5),
         "us"},
        {"quantum.compact_qubits", v("quantum.compact_qubits"), "count"},
        {"quantum.bytes_per_circuit", v("quantum.bytes_per_circuit"),
         "bytes"},
        {"vqa.estimate_batch_ms_p50", q("vqa.estimate_batch_ms", 0.5), "ms"},
        {"vqa.estimate_batch_ms_p99", q("vqa.estimate_batch_ms", 0.99),
         "ms"},
        {"vqa.circuits_per_epoch", ratio(v("vqa.circuits"), v("vqa.epochs")),
         "count"},
        {"vqa.ideal_energy_us_p50", q("vqa.ideal_energy_us", 0.5), "us"},
        {"core.client_init_us_p50", q("core.client_init_us", 0.5), "us"},
        {"core.begin_process_us_p50", q("core.begin_process_us", 0.5), "us"},
        {"core.finish_process_ms_p50", q("core.finish_process_ms", 0.5),
         "ms"},
        {"core.finish_process_ms_p99", q("core.finish_process_ms", 0.99),
         "ms"},
        {"core.result_gap_ms_p50", q("core.result_gap_ms", 0.5), "ms"},
        {"core.result_gap_ms_p99", q("core.result_gap_ms", 0.99), "ms"},
        {"serve.submit_us_p50", q("serve.submit_us", 0.5), "us"},
        {"serve.submit_us_p99", q("serve.submit_us", 0.99), "us"},
        {"serve.drain_ms_p50", q("serve.drain_ms", 0.5), "ms"},
        {"serve.drain_ms_p99", q("serve.drain_ms", 0.99), "ms"},
        {"serve.cache_hit_rate", ratio(v("serve.cache_hits"), admitted),
         "ratio"},
        {"serve.coalesce_rate", ratio(v("serve.coalesced"), admitted),
         "ratio"},
        {"serve.circuits_per_job", ratio(v("serve.circuits"), admitted),
         "count"},
        {"serve.shards_per_item",
         ratio(v("serve.shards"), v("serve.work_items")), "count"},
        {"serve.requeued_shards", v("serve.requeued_shards"), "count"},
        {"serve.shed_shots", v("serve.shed_shots"), "count"},
        {"serve.rejected", v("serve.rejected"), "count"},
        {"serve.refused_frac",
         ratio(v("serve.refused"), v("serve.attempted")), "ratio"},
        {"serve.model_latency_s_p99", q("serve.model_latency_s", 0.99),
         "model_s"},
        {"serve.router_forwards", v("serve.router_forwards"), "count"},
        {"serve.node_shot_imbalance",
         l.samples.count("serve.node_shot_imbalance")
             ? q("serve.node_shot_imbalance", 0.5)
             : 1.0,
         "ratio"},
        {"common.pool_fanouts", scaling.poolFanouts, "count"},
        {"common.pool_inline_runs", scaling.poolInline, "count"},
        {"common.cpu_busy_frac", scaling.cpuBusy, "ratio"},
        {"common.speedup_vs_1thread", scaling.speedup, "ratio"},
        {"bench.step_ms_p90", quantile(d.steps(), 0.9), "ms"},
        {"bench.self_share", selfShare, "ratio"},
        {"bench.trace_overhead_pct", overheadPct, "%"},
    };
}

bool
writeLayersJson(const std::string &path, const Args &a,
                const std::vector<Metric> &metrics,
                const LayerSamples &l, const Tracer &tracer,
                const RunData &d)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
                 jsonString(a.workload).c_str(),
                 static_cast<unsigned long long>(a.seed));
    std::fprintf(f, "  \"segments\": %zu,\n  \"traced_segments\": [",
                 d.segments.size());
    for (std::size_t i = 0, k = 0; i < d.traced.size(); ++i)
        if (d.traced[i])
            std::fprintf(f, "%s%zu", k++ ? ", " : "", i);
    std::fprintf(f, "],\n  \"metrics\": {\n");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        // A percentile metric ("x_p50") reports how many samples of "x"
        // it rests on.
        std::string stem = m.name;
        const std::size_t cut = stem.rfind("_p");
        if (cut != std::string::npos &&
            stem.find_first_not_of("0123456789", cut + 2) == std::string::npos)
            stem.erase(cut);
        auto it = l.samples.find(stem);
        std::fprintf(f, "    %s: {\"value\": %s, \"unit\": %s",
                     jsonString(m.name).c_str(),
                     jsonNumber(m.value).c_str(),
                     jsonString(m.unit).c_str());
        if (it != l.samples.end())
            std::fprintf(f, ", \"samples\": %zu", it->second.size());
        std::fprintf(f, "}%s\n", i + 1 < metrics.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"spans\": {\n");
    const auto spans = tracer.selfTimes();
    std::size_t i = 0;
    for (const auto &kv : spans) {
        const Tracer::NameStats &s = kv.second;
        std::fprintf(f,
                     "    %s: {\"count\": %llu, \"total_ms\": %s, "
                     "\"self_ms\": %s, \"self_ms_p50\": %s}%s\n",
                     jsonString(kv.first).c_str(),
                     static_cast<unsigned long long>(s.count),
                     jsonNumber(s.totalMs).c_str(),
                     jsonNumber(s.selfMs).c_str(),
                     jsonNumber(median(s.selfMsSamples)).c_str(),
                     ++i < spans.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    return std::fclose(f) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    // Size the process-wide pool before anything touches it.
    setenv("EQC_THREADS", std::to_string(threadBudget()).c_str(), 1);
    eqc::obs::MetricsRegistry poolMetrics;
    if (a.trace)
        eqc::TaskPool::shared().instrument(poolMetrics);

    const Workload &w = *findWorkload(a.workload);
    const Inputs in = makeInputs(w);
    const int segments =
        a.smoke ? 1
                : std::max(1, static_cast<int>(
                                  std::lround(a.seconds / kSegmentSeconds)));

    Tracer tracer;
    LayerSamples layers;
    RunData d;
    std::vector<double> hours;
    for (int s = 0; s < segments; ++s) {
        const uint64_t segSeed = deriveSeed(a.seed, 0, s);
        // Tracing alternates by segment, so the traced run also
        // measures its own overhead against its untraced segments.
        // Segment 0 stays untraced: the replay below compares with it.
        const bool traced = a.trace && s % 2 == 1;
        tracer.setEnabled(traced);
        SegmentResult r = runSegment(w, in, segSeed, 1, tracer,
                                     static_cast<uint64_t>(s),
                                     traced ? &layers : nullptr);
        tracer.setEnabled(false);
        if (r.ops == 0 || !(r.wallS > 0.0)) {
            ++r.failed;
            r.failures.push_back(w.name + " segment completed no work");
        }
        d.count(r);
        hours.insert(hours.end(), r.hours.begin(), r.hours.end());
        d.segments.push_back(std::move(r));
        d.traced.push_back(traced);
    }

    // Replay segment 0 at the thread budget: the digests must agree,
    // and the wall times give the speed-up of the thread budget.
    Scaling scaling;
    if (a.check || a.trace) {
        const int threads = threadBudget();
        const uint64_t segSeed = deriveSeed(a.seed, 0, 0);
        Tracer off;
        SegmentResult r = runSegment(w, in, segSeed, threads, off, 0, nullptr);
        const SegmentResult &first = d.segments.front();
        if (r.digest != first.digest) {
            ++r.failed;
            r.failures.push_back(w.name +
                                 " segment 0 digest differs between 1 and " +
                                 std::to_string(threads) + " threads");
        }
        scaling.speedup = first.wallS / r.wallS;
        scaling.cpuBusy = r.cpuS / (r.wallS * threads);
        scaling.poolFanouts = static_cast<double>(
            poolMetrics.counter("eqc_pool_parallel_total")->value());
        scaling.poolInline = static_cast<double>(
            poolMetrics.counter("eqc_pool_inline_total")->value());
        d.count(r);
    }

    std::vector<Metric> metrics;
    if (a.trace) {
        d.count(runLayerProbe(w, in, hours, deriveSeed(a.seed, 0, 0),
                              layers));
        metrics = layerMetrics(layers, tracer, d, scaling);
        std::error_code ec;
        std::filesystem::create_directories(a.traceDir, ec);
        const std::string base = a.traceDir + "/" + w.name;
        if (!tracer.writeChromeTrace(base + ".trace.json") ||
            !writeLayersJson(base + ".layers.json", a, metrics, layers,
                             tracer, d)) {
            std::fprintf(stderr, "cannot write %s.*.json\n", base.c_str());
            ++d.failed;
        }
    } else {
        metrics = endToEndMetrics(d);
    }

    bool correct = d.failed == 0;
    for (const Metric &m : metrics)
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "metric %s is not finite\n",
                         m.name.c_str());
            correct = false;
        }
    printResult(correct, d.attempted, d.failed, metrics);
    return correct ? 0 : 1;
}
