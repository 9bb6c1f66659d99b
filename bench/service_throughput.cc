/**
 * @file
 * Closed-loop multi-tenant load generator for the eqc::serve layer.
 *
 * N tenants each keep one job in flight against a shared ServiceNode
 * fronting the paper's 10-device evaluation ensemble. Tenants come in
 * pairs that poll the same (workload, binding) — the access pattern
 * request coalescing exists for — and each binding drifts slowly
 * between rounds the way an optimizer's parameters would (holding for
 * two rounds, so the result cache sees genuine repeats). Per round
 * every tenant submits at its previous completion time (closed loop
 * on the serving clock) and the node drains. A tenant whose
 * submission is rejected backs off by the ticket's retry-after hint —
 * the backpressure protocol a well-behaved client follows.
 *
 * The node runs in either clock mode:
 *   --clock virtual  (default) deterministic replay, full speed
 *   --clock steady   wall-clock serving: events fire in real time at
 *                    --timescale wall seconds per model hour
 *
 * Reported: wall-clock jobs/sec, exact virtual-time latency
 * percentiles p50/p95/p99 over every drained outcome,
 * coalescing/cache-hit/requeue counters, admission rejections by
 * reason with the exact retry-after percentiles over every
 * capacity-rejected ticket a tenant received, and
 * per-member executed shots (cache-aware placement telemetry).
 * Optional --fail kills one member mid-campaign to exercise the
 * requeue path under load. With --out the same numbers land in a
 * JSON file for CI artifact diffing.
 *
 * Streaming robustness knobs: --deadline-frac attaches a latency SLO
 * (submit + --slo-h hours) to that fraction of submissions, so the
 * report gains SLO attainment, shed-shot fraction and degraded-outcome
 * rate; --churn injects live membership churn (random joins/leaves)
 * at that per-round probability.
 *
 * Router tier: --nodes N (N >= 1) replaces the single ServiceNode
 * with a serve::Router fronting N nodes — each fronting its own copy
 * of the evaluation ensemble. Submissions admit inline; the nodes
 * drain side by side on the Router's fork-join pool (threadedDrain)
 * with inline shard execution, so jobs/sec scales with node-level
 * concurrency. Requests consistent-hash by
 * (workload, binding); capacity rejections overflow along the ring.
 * --nodes 1 is the Router baseline the scaling numbers compare
 * against (same per-node resources); omitting --nodes keeps the
 * legacy single-node path byte-for-byte. Routed runs require the
 * virtual clock and do not support --churn.
 *
 * Usage:
 *   bench_service_throughput [--tenants N] [--rounds N] [--shots N]
 *                            [--depth N] [--ttl H] [--fail]
 *                            [--nodes N]
 *                            [--clock virtual|steady] [--timescale S]
 *                            [--deadline-frac F] [--slo-h H]
 *                            [--churn P] [--seed S] [--out FILE]
 *                            [--metrics-out FILE]
 *
 * --metrics-out writes one fleet-wide metrics scrape as JSON — the
 * obs::toJson schema documented in src/obs/exposition.h: an object
 * with a "metrics" array of {name, type, labels?, value | count+sum+
 * bounds+buckets} samples. Node registries carry `node="i"` labels,
 * the shared TaskPool's samples carry `tier="pool"`. The file is a
 * raw scrape (not a diff), so CI can archive it per run and diff two
 * runs with obs::diff semantics offline.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <memory>

#include "bench_util.h"
#include "common/event_loop.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/task_pool.h"
#include "obs/exposition.h"
#include "device/catalog.h"
#include "serve/router.h"
#include "serve/service_node.h"
#include "vqa/problem.h"

using namespace eqc;
using namespace eqc::serve;

int
main(int argc, char **argv)
{
    int tenants = 8;
    int rounds = 25;
    int shots = 4096;
    int depth = -1; // admission queue depth; -1 keeps the default
    double ttlH = 0.5;
    bool fail = false;
    std::string clockMode = "virtual";
    double timescaleS = 0.05; // wall seconds per model hour (steady)
    double deadlineFrac = 0.0; // fraction of submissions with an SLO
    double sloH = 0.25;        // SLO horizon (hours past submit)
    double churn = 0.0;        // per-round join/leave probability
    uint64_t seed = 2026;      // node root seed; echoed in every report
    int nodes = 0; // 0 = legacy single ServiceNode; >= 1 = Router tier
    std::string outPath;
    std::string metricsOutPath;
    for (int i = 1; i < argc; ++i) {
        auto next = [&](const char *flag) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--tenants"))
            tenants = std::atoi(next("--tenants"));
        else if (!std::strcmp(argv[i], "--rounds"))
            rounds = std::atoi(next("--rounds"));
        else if (!std::strcmp(argv[i], "--shots"))
            shots = std::atoi(next("--shots"));
        else if (!std::strcmp(argv[i], "--depth"))
            depth = std::atoi(next("--depth"));
        else if (!std::strcmp(argv[i], "--ttl"))
            ttlH = std::atof(next("--ttl"));
        else if (!std::strcmp(argv[i], "--fail"))
            fail = true;
        else if (!std::strcmp(argv[i], "--clock"))
            clockMode = next("--clock");
        else if (!std::strcmp(argv[i], "--timescale"))
            timescaleS = std::atof(next("--timescale"));
        else if (!std::strcmp(argv[i], "--deadline-frac"))
            deadlineFrac = std::atof(next("--deadline-frac"));
        else if (!std::strcmp(argv[i], "--slo-h"))
            sloH = std::atof(next("--slo-h"));
        else if (!std::strcmp(argv[i], "--churn"))
            churn = std::atof(next("--churn"));
        else if (!std::strcmp(argv[i], "--nodes"))
            nodes = std::atoi(next("--nodes"));
        else if (!std::strcmp(argv[i], "--seed"))
            seed = std::strtoull(next("--seed"), nullptr, 10);
        else if (!std::strcmp(argv[i], "--out"))
            outPath = next("--out");
        else if (!std::strcmp(argv[i], "--metrics-out"))
            metricsOutPath = next("--metrics-out");
        else {
            std::fprintf(stderr, "unknown flag %s\n", argv[i]);
            return 2;
        }
    }
    if (clockMode != "virtual" && clockMode != "steady") {
        std::fprintf(stderr, "--clock must be virtual or steady\n");
        return 2;
    }
    if (nodes > 0 && clockMode != "virtual") {
        std::fprintf(stderr, "--nodes requires --clock virtual\n");
        return 2;
    }
    if (nodes > 0 && churn > 0.0) {
        std::fprintf(stderr,
                     "--churn is not supported with --nodes\n");
        return 2;
    }

    bench::banner("eqc::serve closed-loop throughput");
    std::printf(
        "tenants=%d rounds=%d shots=%d threads=%d fail=%d clock=%s "
        "seed=%llu\n",
        tenants, rounds, shots, TaskPool::shared().threadCount(),
        fail ? 1 : 0, clockMode.c_str(),
        static_cast<unsigned long long>(seed));

    // Pool telemetry rides the --metrics-out scrape as tier="pool".
    obs::MetricsRegistry poolMetrics;
    TaskPool::shared().instrument(poolMetrics);

    SteadyClock steady(timescaleS);
    Clock *clock = clockMode == "steady"
                       ? static_cast<Clock *>(&steady)
                       : nullptr; // node default: VirtualClock

    ServiceOptions opts;
    opts.seed = seed;
    opts.resultCacheTtlH = ttlH;
    if (depth > 0)
        opts.admission.maxQueueDepth =
            static_cast<std::size_t>(depth);

    // Legacy path: one ServiceNode, shards fanned out on the shared
    // pool. Router path (--nodes): N nodes drained concurrently with
    // inline shards — scaling comes from node concurrency.
    std::unique_ptr<ServiceNode> single;
    std::unique_ptr<Router> router;
    VqaProblem vqe = makeHeisenbergVqe();
    VqaProblem qaoa = makeRingMaxCutQaoa();
    WorkloadId wVqe;
    WorkloadId wQaoa;
    if (nodes > 0) {
        RouterOptions ro;
        ro.threadedDrain = true;
        router.reset(new Router(ro));
        for (int n = 0; n < nodes; ++n)
            router->addNode(evaluationEnsemble(), opts);
        wVqe = router->registerWorkload(vqe.ansatz, vqe.hamiltonian);
        wQaoa =
            router->registerWorkload(qaoa.ansatz, qaoa.hamiltonian);
        std::printf("router: nodes=%d (threaded node drains) "
                    "vnodes=%d forward hops=%d\n",
                    nodes, router->options().virtualNodes,
                    router->options().forwardHops);
    } else {
        single.reset(new ServiceNode(evaluationEnsemble(), opts,
                                     clock));
        wVqe = single->registerWorkload(vqe.ansatz, vqe.hamiltonian);
        wQaoa =
            single->registerWorkload(qaoa.ansatz, qaoa.hamiltonian);
    }
    auto submitJob = [&](const JobRequest &r) {
        return router ? router->submit(r) : single->submit(r);
    };
    auto drainAll = [&]() {
        return router ? router->drain() : single->drain();
    };

    // Tenant pairs share a binding stream; odd pairs run the QAOA
    // workload so the node serves a heterogeneous mix.
    struct Tenant
    {
        JobRequest req;
        double nextSubmitH = 0.0;
    };
    std::vector<Tenant> fleet(static_cast<std::size_t>(tenants));
    for (int t = 0; t < tenants; ++t) {
        Tenant &tn = fleet[static_cast<std::size_t>(t)];
        const int pair = t / 2;
        const bool isQaoa = pair % 2 == 1;
        tn.req.tenantId = t;
        tn.req.workload = isQaoa ? wQaoa : wVqe;
        tn.req.params = isQaoa ? qaoa.initialParams : vqe.initialParams;
        tn.req.params[0] += 0.05 * pair;
        tn.req.shots = shots;
        tn.req.priority = t % 3;
    }

    if (fail) // member 0 (of node 0 when routed) dies one second in
        (router ? router->node(0) : *single)
            .failMemberAt(0, 1.0 / 3600.0);

    const auto wall0 = std::chrono::steady_clock::now();
    uint64_t completed = 0;
    uint64_t backedOff = 0;
    uint64_t sloJobs = 0;
    uint64_t sloMet = 0;
    uint64_t degradedJobs = 0;
    // Every drained outcome's latency and every capacity-rejected
    // ticket's retry-after hint, for exact percentiles at the end.
    std::vector<double> latencies;
    std::vector<double> retryHints;
    // Deterministic bench-side injection stream: deadline coin flips
    // and churn events come from one forked Rng, independent of the
    // node's own seed-derived execution randomness.
    Rng brng = Rng(seed).fork("bench");
    const std::vector<Device> spares = evaluationEnsemble();
    std::size_t joinCursor = 0;
    for (int r = 0; r < rounds; ++r) {
        if (churn > 0.0 && brng.bernoulli(churn)) {
            // Live membership churn: alternate between grafting a
            // spare catalog device onto the ensemble and retiring a
            // random member mid-campaign.
            const double nowH = single->loop().now();
            if (brng.bernoulli(0.5)) {
                single->addMember(
                    spares[joinCursor++ % spares.size()], nowH);
            } else {
                const std::size_t victim = static_cast<std::size_t>(
                    brng.uniformInt(
                        0, static_cast<int>(single->numMembers() -
                                            1)));
                single->removeMember(victim, nowH);
            }
        }
        for (Tenant &tn : fleet) {
            tn.req.submitH = tn.nextSubmitH;
            // Parameter drift between rounds: what a live optimizer's
            // binding stream looks like. The binding holds for two
            // rounds (pairs stay identical within a round, so
            // coalescing triggers; repeats across rounds give the
            // result cache real hits).
            tn.req.params[1 % tn.req.params.size()] = 0.02 * (r / 2);
            tn.req.deadlineH =
                deadlineFrac > 0.0 && brng.bernoulli(deadlineFrac)
                    ? tn.req.submitH + sloH
                    : 0.0;
            Ticket ticket = submitJob(tn.req);
            if (ticket.status == AdmitStatus::RejectedQueueFull ||
                ticket.status == AdmitStatus::RejectedTenantQuota)
                retryHints.push_back(ticket.retryAfterS);
            if (!ticket.admitted()) {
                // Backpressure: come back when the hint says so.
                tn.nextSubmitH += ticket.retryAfterS / 3600.0;
                ++backedOff;
            }
        }
        for (const JobOutcome &o : drainAll()) {
            fleet[static_cast<std::size_t>(o.tenantId)].nextSubmitH =
                o.completeH;
            ++completed;
            latencies.push_back(o.latencyH);
            if (o.deadlineH > 0.0) {
                ++sloJobs;
                if (!o.shed)
                    ++sloMet;
            }
            if (o.degraded)
                ++degradedJobs;
        }
    }
    const double wallS =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0)
            .count();

    if (router)
        router->stopServe();

    std::sort(latencies.begin(), latencies.end());
    std::sort(retryHints.begin(), retryHints.end());
    const double latP50 = exactQuantile(latencies, 0.50) * 3600.0;
    const double latP95 = exactQuantile(latencies, 0.95) * 3600.0;
    const double latP99 = exactQuantile(latencies, 0.99) * 3600.0;
    const double retryP50 = exactQuantile(retryHints, 0.50);
    const double retryP95 = exactQuantile(retryHints, 0.95);
    const double retryP99 = exactQuantile(retryHints, 0.99);
    const ServiceCounters c =
        router ? router->totals() : single->counters();
    const double jobsPerSec =
        wallS > 0.0 ? static_cast<double>(completed) / wallS : 0.0;
    const double cacheHitRate =
        c.jobsAdmitted > 0
            ? static_cast<double>(c.cacheHits) /
                  static_cast<double>(c.jobsAdmitted)
            : 0.0;

    bench::heading("throughput");
    std::printf("jobs completed      %10llu\n",
                static_cast<unsigned long long>(completed));
    std::printf("wall seconds        %10.3f\n", wallS);
    std::printf("jobs per second     %10.2f\n", jobsPerSec);

    bench::heading("virtual service latency (seconds)");
    std::printf("p50  %10.2f\np95  %10.2f\np99  %10.2f\n", latP50,
                latP95, latP99);

    bench::heading("service counters");
    std::printf("admitted %llu  coalesced %llu  cache hits %llu "
                "(rate %.3f)\n",
                static_cast<unsigned long long>(c.jobsAdmitted),
                static_cast<unsigned long long>(c.jobsCoalesced),
                static_cast<unsigned long long>(c.cacheHits),
                cacheHitRate);
    std::printf("work items %llu  shards %llu  requeued %llu\n",
                static_cast<unsigned long long>(c.workItems),
                static_cast<unsigned long long>(c.shardsExecuted),
                static_cast<unsigned long long>(c.shardsRequeued));
    std::printf("shots executed %llu  circuits %llu\n",
                static_cast<unsigned long long>(c.shotsExecuted),
                static_cast<unsigned long long>(c.circuitsExecuted));

    const double sloAttainment =
        sloJobs > 0 ? static_cast<double>(sloMet) /
                          static_cast<double>(sloJobs)
                    : 1.0;
    const double shedShotFraction =
        c.shotsExecuted + c.shotsShed > 0
            ? static_cast<double>(c.shotsShed) /
                  static_cast<double>(c.shotsExecuted + c.shotsShed)
            : 0.0;
    const double degradedRate =
        completed > 0 ? static_cast<double>(degradedJobs) /
                            static_cast<double>(completed)
                      : 0.0;

    bench::heading("latency SLOs");
    std::printf("slo jobs %llu  met %llu  attainment %.4f\n",
                static_cast<unsigned long long>(sloJobs),
                static_cast<unsigned long long>(sloMet),
                sloAttainment);
    std::printf("deadline sheds %llu  shots shed %llu "
                "(fraction %.4f)  degraded rate %.4f\n",
                static_cast<unsigned long long>(c.deadlineSheds),
                static_cast<unsigned long long>(c.shotsShed),
                shedShotFraction, degradedRate);
    std::printf("member joins %llu  leaves %llu\n",
                static_cast<unsigned long long>(c.memberJoins),
                static_cast<unsigned long long>(c.memberLeaves));

    bench::heading("admission backpressure");
    std::printf("rejected %llu (queue full %llu, tenant quota %llu, "
                "bad request %llu)\n",
                static_cast<unsigned long long>(c.jobsRejected),
                static_cast<unsigned long long>(c.rejectedQueueFull),
                static_cast<unsigned long long>(c.rejectedTenantQuota),
                static_cast<unsigned long long>(c.rejectedBadRequest));
    std::printf("tenant back-offs %llu  retry-after p50 %.1f s  "
                "p95 %.1f s\n",
                static_cast<unsigned long long>(backedOff), retryP50,
                retryP95);

    if (router) {
        const RouterCounters &rc = router->counters();
        bench::heading("router");
        std::printf("routed %llu  forwards %llu  forward admits %llu "
                    "rejected everywhere %llu\n",
                    static_cast<unsigned long long>(rc.routed),
                    static_cast<unsigned long long>(rc.forwards),
                    static_cast<unsigned long long>(rc.forwardAdmits),
                    static_cast<unsigned long long>(
                        rc.rejectedEverywhere));
        bench::heading("per-node executed shots");
        const std::vector<uint64_t> nodeShots =
            router->nodeShotTotals();
        for (std::size_t n = 0; n < nodeShots.size(); ++n)
            std::printf("  node %-2zu %14llu\n", n,
                        static_cast<unsigned long long>(
                            nodeShots[n]));
    } else {
        bench::heading("per-member executed shots");
        for (std::size_t m = 0; m < single->numMembers(); ++m)
            std::printf("  %-16s %12llu\n",
                        single->memberDevice(m).name.c_str(),
                        static_cast<unsigned long long>(
                            single->memberShotCounts()[m]));
    }

    if (!outPath.empty()) {
        std::FILE *f = std::fopen(outPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
            return 1;
        }
        std::fprintf(
            f,
            "{\n"
            "  \"bench\": \"service_throughput\",\n"
            "  \"clock\": \"%s\",\n"
            "  \"timescale_s_per_h\": %.3f,\n"
            "  \"tenants\": %d,\n"
            "  \"rounds\": %d,\n"
            "  \"shots\": %d,\n"
            "  \"seed\": %llu,\n"
            "  \"threads\": %d,\n"
            "  \"nodes\": %d,\n"
            "  \"routed\": %s,\n"
            "  \"queue_depth_limit\": %d,\n"
            "  \"cache_ttl_h\": %.3f,\n"
            "  \"fail_injected\": %s,\n"
            "  \"jobs_completed\": %llu,\n"
            "  \"wall_seconds\": %.6f,\n"
            "  \"jobs_per_sec\": %.3f,\n"
            "  \"latency_p50_s\": %.3f,\n"
            "  \"latency_p95_s\": %.3f,\n"
            "  \"latency_p99_s\": %.3f,\n"
            "  \"jobs_admitted\": %llu,\n"
            "  \"jobs_coalesced\": %llu,\n"
            "  \"cache_hits\": %llu,\n"
            "  \"cache_hit_rate\": %.4f,\n"
            "  \"jobs_rejected\": %llu,\n"
            "  \"rejected_queue_full\": %llu,\n"
            "  \"rejected_tenant_quota\": %llu,\n"
            "  \"rejected_bad_request\": %llu,\n"
            "  \"tenant_backoffs\": %llu,\n"
            "  \"retry_after_p50_s\": %.3f,\n"
            "  \"retry_after_p95_s\": %.3f,\n"
            "  \"retry_after_p99_s\": %.3f,\n"
            "  \"work_items\": %llu,\n"
            "  \"shards_executed\": %llu,\n"
            "  \"shards_requeued\": %llu,\n"
            "  \"shots_executed\": %llu,\n"
            "  \"deadline_frac\": %.4f,\n"
            "  \"slo_h\": %.4f,\n"
            "  \"churn\": %.4f,\n"
            "  \"slo_jobs\": %llu,\n"
            "  \"slo_met\": %llu,\n"
            "  \"slo_attainment\": %.4f,\n"
            "  \"deadline_sheds\": %llu,\n"
            "  \"shots_shed\": %llu,\n"
            "  \"shed_shot_fraction\": %.6f,\n"
            "  \"degraded_jobs\": %llu,\n"
            "  \"degraded_rate\": %.4f,\n"
            "  \"member_joins\": %llu,\n"
            "  \"member_leaves\": %llu,\n",
            clockMode.c_str(), timescaleS, tenants, rounds, shots,
            static_cast<unsigned long long>(seed),
            TaskPool::shared().threadCount(),
            nodes > 0 ? nodes : 1, nodes > 0 ? "true" : "false",
            depth > 0 ? depth
                      : static_cast<int>(opts.admission.maxQueueDepth),
            ttlH, fail ? "true" : "false",
            static_cast<unsigned long long>(completed), wallS,
            jobsPerSec, latP50, latP95, latP99,
            static_cast<unsigned long long>(c.jobsAdmitted),
            static_cast<unsigned long long>(c.jobsCoalesced),
            static_cast<unsigned long long>(c.cacheHits), cacheHitRate,
            static_cast<unsigned long long>(c.jobsRejected),
            static_cast<unsigned long long>(c.rejectedQueueFull),
            static_cast<unsigned long long>(c.rejectedTenantQuota),
            static_cast<unsigned long long>(c.rejectedBadRequest),
            static_cast<unsigned long long>(backedOff), retryP50,
            retryP95, retryP99,
            static_cast<unsigned long long>(c.workItems),
            static_cast<unsigned long long>(c.shardsExecuted),
            static_cast<unsigned long long>(c.shardsRequeued),
            static_cast<unsigned long long>(c.shotsExecuted),
            deadlineFrac, sloH, churn,
            static_cast<unsigned long long>(sloJobs),
            static_cast<unsigned long long>(sloMet), sloAttainment,
            static_cast<unsigned long long>(c.deadlineSheds),
            static_cast<unsigned long long>(c.shotsShed),
            shedShotFraction,
            static_cast<unsigned long long>(degradedJobs),
            degradedRate,
            static_cast<unsigned long long>(c.memberJoins),
            static_cast<unsigned long long>(c.memberLeaves));
        if (router) {
            const RouterCounters &rc = router->counters();
            std::fprintf(
                f,
                "  \"router_routed\": %llu,\n"
                "  \"router_forwards\": %llu,\n"
                "  \"router_forward_admits\": %llu,\n"
                "  \"router_rejected_everywhere\": %llu,\n"
                "  \"node_shots\": [",
                static_cast<unsigned long long>(rc.routed),
                static_cast<unsigned long long>(rc.forwards),
                static_cast<unsigned long long>(rc.forwardAdmits),
                static_cast<unsigned long long>(
                    rc.rejectedEverywhere));
            const std::vector<uint64_t> nodeShots =
                router->nodeShotTotals();
            for (std::size_t n = 0; n < nodeShots.size(); ++n)
                std::fprintf(f, "%s%llu", n ? ", " : "",
                             static_cast<unsigned long long>(
                                 nodeShots[n]));
        } else {
            std::fprintf(f, "  \"member_shots\": [");
            for (std::size_t m = 0; m < single->numMembers(); ++m)
                std::fprintf(f, "%s%llu", m ? ", " : "",
                             static_cast<unsigned long long>(
                                 single->memberShotCounts()[m]));
        }
        std::fprintf(f, "]\n}\n");
        std::fclose(f);
        std::printf("\nwrote %s\n", outPath.c_str());
    }

    if (!metricsOutPath.empty()) {
        const obs::Snapshot fleet =
            router ? router->metricsSnapshot()
                   : single->metrics().snapshot();
        const obs::Snapshot scrape = obs::merge(
            {{"", fleet}, {"tier=\"pool\"", poolMetrics.snapshot()}});
        std::FILE *f = std::fopen(metricsOutPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         metricsOutPath.c_str());
            return 1;
        }
        const std::string json = obs::toJson(scrape);
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::printf("wrote %s\n", metricsOutPath.c_str());
    }
    return 0;
}
