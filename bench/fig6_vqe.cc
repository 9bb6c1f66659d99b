/**
 * @file
 * Reproduces Fig. 6: the 4-qubit Heisenberg-model VQE trained on (a) an
 * ideal simulator, (b) six individual IBMQ device models (each a
 * one-member EQC job), and (c) the EQC ensemble of 10 devices —
 * energy-vs-epoch series, epochs/hour speed bars, the two-week
 * termination rule, and the final error rates quoted in the paper's
 * Sec. V-C (and Fig. 1).
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/runtime.h"
#include "device/catalog.h"
#include "hamiltonian/exact.h"
#include "vqa/problem.h"

namespace {

using namespace eqc;

struct SystemRun
{
    std::string label;
    TrainingTrace trace;
};

void
printSeries(const std::vector<SystemRun> &runs, int everyN, int epochs)
{
    std::printf("%-8s", "epoch");
    for (const SystemRun &r : runs)
        std::printf(" %14s", r.label.substr(0, 14).c_str());
    std::printf("\n");
    for (int e = 0; e < epochs; e += everyN) {
        std::printf("%-8d", e);
        for (const SystemRun &r : runs) {
            if (e < static_cast<int>(r.trace.epochs.size()))
                std::printf(" %14.3f", r.trace.epochs[e].energyDevice);
            else
                std::printf(" %14s", "--");
        }
        std::printf("\n");
    }
}

} // namespace

int
main()
{
    using namespace eqc;
    bench::banner(
        "Fig. 6: 4-qubit Heisenberg VQE on a square lattice "
        "(EQC vs single machines vs ideal)");

    VqaProblem problem = makeHeisenbergVqe();
    // See EXPERIMENTS.md: alpha scaled to our Hamiltonian's energy scale.
    const double kBenchLr = 0.05;
    const double ground = minEigenvalue(problem.hamiltonian);
    std::printf("exact ground energy (diagonalization): %.4f a.u.\n",
                ground);

    const int epochs = 250;

    // --- Every run is a job on one Runtime, fanned out by one runAll():
    // the ideal simulator (paper: 8192 shots) and the paper's six
    // devices as one-member jobs, then EQC over the 10-device
    // evaluation ensemble at 3 seeds.
    std::vector<Device> singles = {makeIdealDevice(4)};
    for (const char *name :
         {"ibmqx2", "ibmq_bogota", "ibmq_casablanca", "ibmq_santiago",
          "ibmq_toronto", "ibmq_manhattan"})
        singles.push_back(deviceByName(name));
    EqcOptions o;
    o.master.epochs = epochs;
    o.master.learningRate = kBenchLr;
    o.seed = 1;
    Runtime runtime;
    std::vector<JobHandle> singleJobs, eqcJobs;
    for (const Device &d : singles)
        singleJobs.push_back(runtime.submit(problem, {d}, o));
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        o.seed = seed;
        eqcJobs.push_back(
            runtime.submit(problem, evaluationEnsemble(), o));
    }
    runtime.runAll();

    std::vector<SystemRun> runs;
    for (std::size_t i = 0; i < singles.size(); ++i)
        runs.push_back({i == 0 ? "Ideal" : singles[i].name,
                        singleJobs[i].take()});
    const double idealSolution = estimateAnsatzMinimum(problem);
    std::printf("ansatz-reachable minimum (Ideal Solution): %.4f a.u. "
                "(%.2f%% above exact ground; the Fig. 8 ansatz cannot "
                "represent the singlet)\n",
                idealSolution,
                errorVsReference(idealSolution, ground));
    std::printf("ideal training baseline final energy: %.4f a.u.\n",
                finalEnergy(runs.front().trace, 20));

    RunningStats eqcFinalIdeal, eqcSpeed;
    EqcTrace eqcFirst;
    for (std::size_t i = 0; i < eqcJobs.size(); ++i) {
        EqcTrace t = eqcJobs[i].take();
        eqcFinalIdeal.add(finalIdealEnergy(t, 20));
        eqcSpeed.add(t.epochsPerHour);
        if (i == 0)
            eqcFirst = std::move(t);
    }
    runs.insert(runs.begin() + 1,
                {"EQC", static_cast<TrainingTrace>(eqcFirst)});

    bench::heading("energy vs epoch (device estimates, every 10 epochs)");
    printSeries(runs, 10, epochs);

    bench::heading("summary (cf. paper Fig. 6 right + Sec. V-C; error "
                   "metric: ideal-eval of learned params, see "
                   "EXPERIMENTS.md)");
    std::printf("%-18s %7s %12s %11s %6s %10s %10s %9s %8s\n", "system",
                "epochs", "epochs/hour", "runtime(h)", "term?",
                "final(dev)", "final(idl)", "err(%)", "conv@");
    const double tol = 0.04 * std::fabs(idealSolution);
    for (const SystemRun &r : runs) {
        double fIdeal = finalIdealEnergy(r.trace, 20);
        std::printf(
            "%-18s %7zu %12.3f %11.1f %6s %10.3f %10.3f %8.3f%% %8d\n",
            r.label.c_str(), r.trace.epochs.size(),
            r.trace.epochsPerHour, r.trace.totalHours,
            r.trace.terminated ? "yes" : "no",
            finalEnergy(r.trace, 20), fIdeal,
            errorVsReference(fIdeal, idealSolution),
            convergenceEpoch(r.trace.idealEnergySeries(), idealSolution,
                             tol));
    }
    std::printf("\nEQC across 3 seeds: final ideal-eval energy %.3f +- "
                "%.3f a.u., speed %.2f +- %.2f epochs/hour\n",
                eqcFinalIdeal.mean(), eqcFinalIdeal.stddev(),
                eqcSpeed.mean(), eqcSpeed.stddev());

    // --- Speedups (paper: 10.5x average, up to 86x, at least 5.2x).
    bench::heading("EQC speedup over single machines");
    double eqcRate = eqcSpeed.mean();
    for (const SystemRun &r : runs) {
        if (r.label == "Ideal" || r.label == "EQC")
            continue;
        if (r.trace.epochsPerHour > 0.0) {
            std::printf("  vs %-18s %8.1fx\n", r.label.c_str(),
                        eqcRate / r.trace.epochsPerHour);
        }
    }

    bench::heading("EQC ensemble telemetry (seed 1)");
    std::printf("gradient staleness: mean %.2f updates, max %.0f "
                "(bounded delay D of the convergence proof)\n",
                eqcFirst.staleness.mean(), eqcFirst.staleness.max());
    std::printf("gradient jobs per device:\n");
    for (const auto &[name, jobs] : eqcFirst.jobsPerDevice)
        std::printf("  %-18s %6d\n", name.c_str(), jobs);
    return 0;
}
