/**
 * @file
 * Observability tests: the lock-free metrics registry (exact totals
 * under thread contention, `le` bucket boundaries, labelled series,
 * exposition formats, serving histograms that count each outcome and
 * each capacity rejection once), the record-stream tracer (span
 * chains that telescope admit->finalize bitwise, byte-identity of a
 * journal with a live collector attached), and the trace_report
 * analysis golden against a committed mini journal.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/task_pool.h"
#include "device/catalog.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay/journal.h"
#include "serve/router.h"
#include "vqa/problem.h"

namespace eqc {
namespace {

using namespace eqc::serve;

// ---------------------------------------------------------------------------
// MetricsRegistry: lock-free instruments
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersExactUnderContention)
{
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 100000;

    obs::MetricsRegistry reg;
    obs::Counter *shared = reg.counter("eqc_test_shared_total");
    obs::Gauge *level = reg.gauge("eqc_test_level");
    std::vector<obs::Counter *> mine(kThreads);
    for (int t = 0; t < kThreads; ++t)
        mine[static_cast<std::size_t>(t)] = reg.counter(
            "eqc_test_thread_total", "", "t=\"" + std::to_string(t) + "\"");

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            obs::Counter *own = mine[static_cast<std::size_t>(t)];
            for (uint64_t i = 0; i < kPerThread; ++i) {
                shared->inc();
                own->inc();
                level->add(1.0);
            }
        });
    for (std::thread &th : threads)
        th.join();

    EXPECT_EQ(shared->value(), kThreads * kPerThread);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(mine[static_cast<std::size_t>(t)]->value(), kPerThread);
    // Integer-valued gauge adds stay exact well below 2^53.
    EXPECT_DOUBLE_EQ(level->value(),
                     static_cast<double>(kThreads * kPerThread));
}

TEST(MetricsRegistry, ReregistrationReturnsTheSameInstrument)
{
    obs::MetricsRegistry reg;
    obs::Counter *a = reg.counter("eqc_test_total", "events");
    obs::Counter *b = reg.counter("eqc_test_total");
    EXPECT_EQ(a, b);
    ++*a;
    *b += 2;
    EXPECT_EQ(a->value(), 3u);

    // Labels split the identity: same name, distinct series.
    obs::Counter *n0 = reg.counter("eqc_test_total", "", "node=\"0\"");
    obs::Counter *n1 = reg.counter("eqc_test_total", "", "node=\"1\"");
    EXPECT_NE(n0, a);
    EXPECT_NE(n0, n1);
    n0->inc(5);
    EXPECT_EQ(n0->value(), 5u);
    EXPECT_EQ(n1->value(), 0u);

    // Snapshot orders by (name, labels) so scrapes diff cleanly.
    obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 3u);
    EXPECT_EQ(snap.samples[0].labels, "");
    EXPECT_EQ(snap.samples[1].labels, "node=\"0\"");
    EXPECT_EQ(snap.samples[2].labels, "node=\"1\"");
    EXPECT_DOUBLE_EQ(snap.samples[1].value, 5.0);
}

TEST(MetricsRegistry, HistogramBucketBoundariesAreLe)
{
    obs::MetricsRegistry reg;
    obs::Histogram *h =
        reg.histogram("eqc_test_hist", {1.0, 2.0, 5.0});

    // Boundary values land in their own bucket (`x <= bound`).
    for (double x : {0.5, 1.0, 1.5, 2.0, 5.0, 7.0})
        h->observe(x);

    std::vector<uint64_t> buckets = h->bucketCounts();
    ASSERT_EQ(buckets.size(), 4u); // 3 bounds + the implicit +inf
    EXPECT_EQ(buckets[0], 2u);     // 0.5, 1.0
    EXPECT_EQ(buckets[1], 2u);     // 1.5, 2.0
    EXPECT_EQ(buckets[2], 1u);     // 5.0
    EXPECT_EQ(buckets[3], 1u);     // 7.0
    EXPECT_EQ(h->count(), 6u);
    EXPECT_DOUBLE_EQ(h->sum(), 17.0);

    obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.samples.size(), 1u);
    EXPECT_EQ(snap.samples[0].kind, obs::MetricSample::KindHistogram);
    EXPECT_EQ(snap.samples[0].buckets, buckets);
    EXPECT_EQ(snap.samples[0].count, 6u);
}

TEST(Exposition, PrometheusGroupsFamiliesAcrossMergedSources)
{
    obs::MetricsRegistry a, b;
    a.counter("eqc_test_total", "events")->inc(3);
    a.histogram("eqc_test_wait", {0.1, 1.0})->observe(0.05);
    b.counter("eqc_test_total", "events")->inc(4);

    obs::Snapshot merged = obs::merge(
        {{"node=\"0\"", a.snapshot()}, {"node=\"1\"", b.snapshot()}});
    std::string text = obs::toPrometheus(merged);

    // One HELP/TYPE header per family even though two sources
    // contributed samples of eqc_test_total.
    auto occurrences = [&text](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(occurrences("# TYPE eqc_test_total counter"), 1u);
    EXPECT_EQ(occurrences("# TYPE eqc_test_wait histogram"), 1u);
    EXPECT_NE(text.find("eqc_test_total{node=\"0\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("eqc_test_total{node=\"1\"} 4"),
              std::string::npos);
    // Cumulative le rendering ends with the +inf bucket == count.
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);

    std::string json = obs::toJson(merged);
    EXPECT_NE(json.find("\"name\": \"eqc_test_total\""),
              std::string::npos);
    EXPECT_NE(json.find("\"labels\": \"node=\\\"0\\\"\""),
              std::string::npos);

    // Counter diff against an older scrape of the same fleet.
    b.counter("eqc_test_total")->inc(10);
    obs::Snapshot newer = obs::merge(
        {{"node=\"0\"", a.snapshot()}, {"node=\"1\"", b.snapshot()}});
    obs::Snapshot delta = obs::diff(newer, merged);
    bool found = false;
    for (const obs::MetricSample &s : delta.samples)
        if (s.name == "eqc_test_total" && s.labels == "node=\"1\"") {
            found = true;
            EXPECT_DOUBLE_EQ(s.value, 10.0);
        }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Trace fixtures (mirrors test_router's fleet helpers)
// ---------------------------------------------------------------------------

std::vector<Device>
smallEnsemble(int shift)
{
    std::vector<Device> catalog = evaluationEnsemble();
    return {catalog[static_cast<std::size_t>(shift) % catalog.size()],
            catalog[static_cast<std::size_t>(shift + 1) %
                    catalog.size()]};
}

ServiceOptions
nodeOptions(uint64_t seed = 11)
{
    ServiceOptions o;
    o.seed = seed;
    o.scheduler.minShardShots = 32;
    return o;
}

JobRequest
requestFor(WorkloadId wl, const VqaProblem &prob, int tenant,
           double bindShift, int shots = 128)
{
    JobRequest req;
    req.tenantId = tenant;
    req.workload = wl;
    req.params = prob.initialParams;
    req.params[0] += bindShift;
    req.shots = shots;
    return req;
}

/** One deterministic mixed routed schedule against @p router. */
void
runSchedule(Router &router, WorkloadId wl, const VqaProblem &prob)
{
    Rng rng = Rng(404).fork("schedule");
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 10; ++i) {
            JobRequest req =
                requestFor(wl, prob, i % 4, 0.05 * (i % 5),
                           64 * rng.uniformInt(1, 3));
            req.priority = rng.uniformInt(0, 2);
            req.submitH = router.node(0).loop().now() +
                          rng.uniform(0.0, 0.05);
            router.submit(req);
        }
        router.drain();
    }
}

// ---------------------------------------------------------------------------
// TraceBuilder: span chains under the virtual clock
// ---------------------------------------------------------------------------

TEST(Trace, JobSpansChainBitwiseAndPartitionTheCriticalPath)
{
    VqaProblem prob = makeHeisenbergVqe(7);
    Router router;
    for (int i = 0; i < 3; ++i)
        router.addNode(smallEnsemble(i), nodeOptions());
    const WorkloadId wl =
        router.registerWorkload(prob.ansatz, prob.hamiltonian);

    obs::TraceSink sink; // pure live collector, no inner journal
    router.setJournalSink(&sink);
    runSchedule(router, wl, prob);
    router.setJournalSink(nullptr);

    const obs::TraceBuilder &b = sink.builder();
    EXPECT_TRUE(b.problems().empty())
        << (b.problems().empty() ? "" : b.problems().front());
    EXPECT_EQ(b.openJobs(), 0u);
    ASSERT_EQ(b.paths().size(), 20u);

    for (const obs::JobPath &p : b.paths()) {
        EXPECT_TRUE(p.chainExact)
            << "job " << p.jobId << " spans do not chain";
        // The stage partition covers [admit, max(admit, finalize)].
        EXPECT_GE(p.queueWaitH, 0.0);
        EXPECT_GE(p.executeH, 0.0);
        EXPECT_GE(p.aggregateH, 0.0);
        EXPECT_GE(p.totalH(), 0.0);
    }

    // The per-job span sequence is ordered: each job-level span ends
    // bitwise where the next one begins (telescoping sum).
    std::map<uint64_t, std::vector<const obs::TraceSpan *>> byJob;
    for (const obs::TraceSpan &s : b.spans())
        if (s.name != "shard")
            byJob[s.jobId].push_back(&s);
    ASSERT_EQ(byJob.size(), 20u);
    for (const auto &kv : byJob) {
        const std::vector<const obs::TraceSpan *> &spans = kv.second;
        for (std::size_t i = 0; i + 1 < spans.size(); ++i) {
            EXPECT_TRUE(replay::bitEqual(spans[i]->endH,
                                         spans[i + 1]->beginH))
                << "job " << kv.first << " span " << spans[i]->name
                << " ends " << replay::hexBits(spans[i]->endH)
                << " but " << spans[i + 1]->name << " begins "
                << replay::hexBits(spans[i + 1]->beginH);
            EXPECT_LE(spans[i]->beginH, spans[i]->endH);
        }
    }

    // analyze() aggregates the same chain verdict.
    obs::TraceAnalysis a = obs::analyze(b);
    EXPECT_TRUE(a.criticalPathsExact);
    EXPECT_EQ(a.jobs, 20u);
    EXPECT_FALSE(a.breakdown.empty());
    EXPECT_FALSE(a.members.empty());

    // The report and Chrome export render without structural gaps.
    std::string report = obs::renderReport(a);
    EXPECT_NE(report.find("critical paths: exact"), std::string::npos);
    std::string chrome = obs::chromeTrace(b);
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.find("\"ph\": \"X\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Byte-identity: a live collector never perturbs the journal
// ---------------------------------------------------------------------------

TEST(Trace, CollectorAttachedJournalIsByteIdentical)
{
    VqaProblem prob = makeHeisenbergVqe(7);

    auto run = [&prob](bool collect, std::string *bytes,
                       std::size_t *paths) {
        Router router;
        for (int i = 0; i < 3; ++i)
            router.addNode(smallEnsemble(i), nodeOptions());
        const WorkloadId wl =
            router.registerWorkload(prob.ansatz, prob.hamiltonian);

        replay::EventJournal journal;
        obs::TraceSink sink(&journal);
        router.setJournalSink(collect
                                  ? static_cast<replay::JournalSink *>(
                                        &sink)
                                  : &journal);
        runSchedule(router, wl, prob);
        router.setJournalSink(nullptr);

        *bytes = journal.serialize();
        if (paths)
            *paths = sink.builder().paths().size();
    };

    std::string bare, collected;
    std::size_t paths = 0;
    run(false, &bare, nullptr);
    run(true, &collected, &paths);

    ASSERT_FALSE(bare.empty());
    EXPECT_EQ(bare, collected)
        << "attaching the trace collector changed the journal bytes";
    EXPECT_EQ(paths, 20u);
}

// ---------------------------------------------------------------------------
// Serving histograms count every observation exactly once
// ---------------------------------------------------------------------------

/** Count of histogram @p name summed over every labelled sample. */
uint64_t
histogramCount(const obs::Snapshot &snap, const std::string &name)
{
    uint64_t n = 0;
    for (const obs::MetricSample &s : snap.samples)
        if (s.name == name)
            n += s.count;
    return n;
}

/** What a tenant saw over one submit/drain schedule. */
struct Tally
{
    uint64_t outcomes = 0;
    /** Tickets rejected for capacity (queue full or tenant quota). */
    uint64_t capacityRejected = 0;
};

/**
 * Two rounds of ten submissions from four tenants, then a drain each:
 * with a one-job tenant quota most rounds draw capacity rejections.
 * @p front is a ServiceNode or a Router.
 */
template <typename Front>
Tally
runTightSchedule(Front &front, WorkloadId wl, const VqaProblem &prob)
{
    Tally t;
    Rng rng = Rng(505).fork("tight");
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 10; ++i) {
            const Ticket k = front.submit(requestFor(
                wl, prob, i % 4, 0.05 * (i % 5),
                64 * rng.uniformInt(1, 3)));
            if (k.status == AdmitStatus::RejectedQueueFull ||
                k.status == AdmitStatus::RejectedTenantQuota)
                ++t.capacityRejected;
        }
        t.outcomes += front.drain().size();
    }
    return t;
}

ServiceOptions
tightOptions()
{
    ServiceOptions o = nodeOptions();
    o.admission.maxQueuedPerTenant = 1;
    o.admission.maxQueueDepth = 3;
    return o;
}

TEST(ServingMetrics, HistogramsCountEachObservationOnce)
{
    VqaProblem prob = makeHeisenbergVqe(7);

    // One node: one latency observation per drained outcome, one hint
    // observation per capacity-rejected ticket.
    ServiceNode node(smallEnsemble(0), tightOptions());
    const WorkloadId wl =
        node.registerWorkload(prob.ansatz, prob.hamiltonian);
    const Tally one = runTightSchedule(node, wl, prob);
    ASSERT_GT(one.outcomes, 0u);
    ASSERT_GT(one.capacityRejected, 0u);
    const obs::Snapshot snap = node.metrics().snapshot();
    EXPECT_EQ(histogramCount(snap, "eqc_service_latency_hours"),
              one.outcomes);
    EXPECT_EQ(histogramCount(snap, "eqc_service_retry_after_seconds"),
              one.capacityRejected);

    // Three routed nodes: the fleet scrape sums the node series, and
    // still counts every outcome once. Each node observes the hints it
    // issued, forwarded hops included, so the fleet count is the sum
    // of the nodes' capacity rejections; tenants see only the last.
    Router router;
    for (int i = 0; i < 3; ++i)
        router.addNode(smallEnsemble(i), tightOptions());
    const WorkloadId rwl =
        router.registerWorkload(prob.ansatz, prob.hamiltonian);
    const Tally fleet = runTightSchedule(router, rwl, prob);
    const ServiceCounters c = router.totals();
    ASSERT_GT(fleet.capacityRejected, 0u);
    EXPECT_EQ(fleet.outcomes, c.jobsAdmitted);
    const obs::Snapshot all = router.metricsSnapshot();
    EXPECT_EQ(histogramCount(all, "eqc_service_latency_hours"),
              fleet.outcomes);
    const uint64_t hints =
        histogramCount(all, "eqc_service_retry_after_seconds");
    EXPECT_EQ(hints, c.rejectedQueueFull + c.rejectedTenantQuota);
    EXPECT_GE(hints, fleet.capacityRejected);
}

// ---------------------------------------------------------------------------
// Golden: committed mini journal through the analyzer
// ---------------------------------------------------------------------------

std::string
readDataFile(const std::string &name)
{
    std::ifstream in(std::string(EQC_TEST_DATA_DIR) + "/" + name,
                     std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

TEST(TraceReport, GoldenMiniJournal)
{
    const std::string journalText = readDataFile("mini_journal.jsonl");
    ASSERT_FALSE(journalText.empty())
        << "tests/data/mini_journal.jsonl missing";

    std::string err;
    replay::EventJournal journal =
        replay::EventJournal::parse(journalText, &err);
    ASSERT_TRUE(err.empty()) << err;

    obs::TraceBuilder builder;
    for (const replay::EventRecord &r : journal.records())
        builder.add(r);
    obs::TraceAnalysis a = obs::analyze(builder);

    EXPECT_TRUE(a.problems.empty())
        << (a.problems.empty() ? "" : a.problems.front());
    EXPECT_TRUE(a.criticalPathsExact);
    EXPECT_GT(a.jobs, 0u);
    EXPECT_EQ(a.openJobs, 0u);

    const std::string golden = readDataFile("mini_report.txt");
    ASSERT_FALSE(golden.empty())
        << "tests/data/mini_report.txt missing";
    EXPECT_EQ(obs::renderReport(a), golden)
        << "analyzer output drifted from the committed golden report; "
           "regenerate with: trace_report tests/data/mini_journal.jsonl "
           "> tests/data/mini_report.txt";
}

} // namespace
} // namespace eqc
