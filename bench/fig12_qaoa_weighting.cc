/**
 * @file
 * Reproduces Fig. 12: weighted vs unweighted EQC on the ring MaxCut
 * QAOA, plus the minimum-cost ranking across the individual machines.
 * The paper reports weighting improving EQC's best solution by ~2.9%
 * (bounds 0.5-1.5) and ~2.3% (bounds 0.25-1.75).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/runtime.h"
#include "device/catalog.h"
#include "vqa/problem.h"

namespace {

/** Lowest epoch-mean normalized cost reached by a trace. */
double
minCost(const eqc::TrainingTrace &t, double edges)
{
    double best = 1e18;
    for (const eqc::EpochRecord &r : t.epochs)
        best = std::min(best, r.energyDevice / edges);
    return best;
}

} // namespace

int
main()
{
    using namespace eqc;
    bench::banner("Fig. 12: weighted vs unweighted EQC on ring MaxCut");

    VqaProblem problem = makeRingMaxCutQaoa();
    const int iterations = 50;
    const double edges = 4.0;

    const std::vector<const char *> names = {
        "ibmq_belem",  "ibmq_bogota", "ibmq_casablanca", "ibmq_lima",
        "ibmq_manila", "ibmq_quito",  "ibmq_santiago",   "ibmq_toronto"};
    std::vector<Device> ensemble;
    for (const char *n : names)
        ensemble.push_back(deviceByName(n));

    struct Config
    {
        const char *label;
        WeightBounds bounds;
    };
    const std::vector<Config> configs = {
        {"EQC-no-weighting", {1.0, 1.0}},
        {"EQC-weights-0.50-1.50", {0.5, 1.5}},
        {"EQC-weights-0.25-1.75", {0.25, 1.75}},
    };

    // Queue one job per weighting config and one per device alone (a
    // one-member job), and fan them out together.
    EqcOptions o;
    o.master.epochs = iterations;
    // Shared QAOA parameters need the exact per-occurrence shift rule:
    // the literal whole-parameter +-pi/2 shift has zero gradient on
    // this instance (see bench_ablation_shift_mode).
    o.client.shiftMode = ShiftMode::PerOccurrence;
    o.seed = 1;
    Runtime runtime;
    std::vector<JobHandle> jobs, singleJobs;
    for (const Config &c : configs) {
        o.master.weightBounds = c.bounds;
        jobs.push_back(runtime.submit(problem, ensemble, o));
    }
    o.master.weightBounds = {};
    for (const Device &d : ensemble)
        singleJobs.push_back(runtime.submit(problem, {d}, o));
    runtime.runAll();
    std::vector<EqcTrace> eqcTraces;
    for (JobHandle &job : jobs)
        eqcTraces.push_back(job.take());

    bench::heading("normalized cost vs iteration (every 2)");
    std::printf("%-6s", "iter");
    for (const Config &c : configs)
        std::printf(" %22s", c.label);
    std::printf("\n");
    for (int e = 0; e < iterations; e += 2) {
        std::printf("%-6d", e);
        for (const EqcTrace &t : eqcTraces)
            std::printf(" %22.4f", t.epochs[e].energyDevice / edges);
        std::printf("\n");
    }

    bench::heading("minimum cost ranking (incl. single machines)");
    struct Entry
    {
        std::string label;
        double cost;
    };
    std::vector<Entry> entries;
    for (std::size_t i = 0; i < configs.size(); ++i)
        entries.push_back(
            {configs[i].label, minCost(eqcTraces[i], edges)});
    for (std::size_t i = 0; i < names.size(); ++i)
        entries.push_back({names[i], minCost(singleJobs[i].get(), edges)});
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.cost < b.cost;
              });
    for (const Entry &e : entries)
        std::printf("%-24s %10.4f\n", e.label.c_str(), e.cost);

    double unweighted = minCost(eqcTraces[0], edges);
    bench::heading("weighting improvement over unweighted EQC");
    for (std::size_t i = 1; i < configs.size(); ++i) {
        double imp = (eqcTraces[i].epochs.empty())
                         ? 0.0
                         : (minCost(eqcTraces[i], edges) - unweighted) /
                               unweighted * 100.0;
        std::printf("%-24s %+8.3f%% (more negative = better)\n",
                    configs[i].label, imp);
    }
    return 0;
}
