/**
 * @file
 * Reproduces Fig. 11: QAOA MaxCut on the 4-node ring — unweighted EQC
 * over 8 devices against each device training independently. MaxCut
 * cost is reported normalized per edge (the paper's curves converge
 * around -0.74 which is the p=1 limit of 3/4 cut ratio on C4).
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/runtime.h"
#include "device/catalog.h"
#include "hamiltonian/maxcut.h"
#include "vqa/problem.h"

int
main()
{
    using namespace eqc;
    bench::banner("Fig. 11: 4-node ring MaxCut QAOA, unweighted EQC vs "
                  "single machines");

    VqaProblem problem = makeRingMaxCutQaoa();
    const int iterations = 50;
    const double edgeCount = 4.0;

    const std::vector<const char *> names = {
        "ibmq_belem",  "ibmq_bogota", "ibmq_casablanca", "ibmq_lima",
        "ibmq_manila", "ibmq_quito",  "ibmq_santiago",   "ibmq_toronto"};

    // Each device alone as a one-member job, then unweighted EQC over
    // the same 8 devices, all on one Runtime.
    EqcOptions o;
    o.master.epochs = iterations;
    // Shared QAOA parameters need the exact per-occurrence shift rule:
    // the literal whole-parameter +-pi/2 shift has zero gradient on
    // this instance (see bench_ablation_shift_mode).
    o.client.shiftMode = ShiftMode::PerOccurrence;
    o.seed = 1;
    Runtime runtime;
    std::vector<Device> ensemble;
    std::vector<JobHandle> jobs;
    for (const char *n : names) {
        ensemble.push_back(deviceByName(n));
        jobs.push_back(runtime.submit(problem, {ensemble.back()}, o));
    }
    JobHandle eqcJob = runtime.submit(problem, ensemble, o);
    runtime.runAll();
    std::vector<EqcTrace> traces;
    for (JobHandle &job : jobs)
        traces.push_back(job.take());
    const EqcTrace eqc = eqcJob.take();

    bench::heading("normalized MaxCut cost vs iteration (every 2)");
    std::printf("%-6s %12s", "iter", "EQC");
    for (const char *n : names)
        std::printf(" %12s", std::string(n).substr(5, 12).c_str());
    std::printf("\n");
    for (int e = 0; e < iterations; e += 2) {
        std::printf("%-6d %12.4f",
                    e, eqc.epochs[e].energyDevice / edgeCount);
        for (const EqcTrace &t : traces) {
            if (e < static_cast<int>(t.epochs.size()))
                std::printf(" %12.4f",
                            t.epochs[e].energyDevice / edgeCount);
            else
                std::printf(" %12s", "--");
        }
        std::printf("\n");
    }

    bench::heading("speed (paper: EQC 322.4% of fastest, 135,510% of "
                   "slowest machine)");
    std::printf("%-18s %14s %12s\n", "system", "iters/hour",
                "runtime(h)");
    std::printf("%-18s %14.2f %12.2f\n", "EQC", eqc.epochsPerHour,
                eqc.totalHours);
    double fastest = 0.0, slowest = 1e18;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        std::printf("%-18s %14.2f %12.2f\n", names[i],
                    traces[i].epochsPerHour, traces[i].totalHours);
        fastest = std::max(fastest, traces[i].epochsPerHour);
        slowest = std::min(slowest, traces[i].epochsPerHour);
    }
    std::printf("\nEQC vs fastest: %.1f%%   EQC vs slowest: %.1f%%\n",
                100.0 * eqc.epochsPerHour / fastest,
                100.0 * eqc.epochsPerHour / slowest);

    bench::heading("final normalized cost (lower is better; optimum "
                   "-1.0, p=1 limit about -0.75)");
    std::printf("%-18s %12.4f\n", "EQC-unweighted",
                finalEnergy(eqc, 10) / edgeCount);
    for (std::size_t i = 0; i < traces.size(); ++i)
        std::printf("%-18s %12.4f\n", names[i],
                    finalEnergy(traces[i], 10) / edgeCount);
    return 0;
}
