/**
 * @file
 * Quickstart: the 5-minute tour of the EQC library.
 *
 *  1. Build a circuit and run it on the ideal simulator.
 *  2. Transpile it for a real device topology and run it under that
 *     device's noise model.
 *  3. Train a small VQE through the eqc::Runtime engine API, first on
 *     one device (a one-member ensemble), then on an EQC ensemble with
 *     a TraceObserver streaming live progress.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>

#include "circuit/ansatz.h"
#include "core/runtime.h"
#include "device/catalog.h"
#include "hamiltonian/exact.h"
#include "vqa/problem.h"

namespace {

/** Streams training progress to stdout every few epochs. */
class ProgressObserver : public eqc::TraceObserver
{
  public:
    void
    onEpoch(eqc::RunContext &, eqc::EpochRecord &rec) override
    {
        if (rec.epoch % 10 == 0)
            std::printf("  [observer] epoch %3d at t=%6.2f h: "
                        "E = %.3f a.u.\n",
                        rec.epoch, rec.timeH, rec.energyDevice);
    }
};

} // namespace

int
main()
{
    using namespace eqc;

    // ------------------------------------------------------------------
    // 1. A GHZ circuit on the ideal simulator.
    // ------------------------------------------------------------------
    std::printf("== 1. ideal simulation ==\n");
    QuantumCircuit ghz = ghzCircuit(3);
    Statevector sv = simulateIdeal(ghz);
    auto probs = sv.probabilities();
    std::printf("GHZ-3 ideal: P(000) = %.3f, P(111) = %.3f\n",
                probs[0], probs[7]);

    // ------------------------------------------------------------------
    // 2. The same circuit on a simulated IBMQ backend.
    // ------------------------------------------------------------------
    std::printf("\n== 2. noisy execution on ibmq_belem ==\n");
    Device belem = deviceByName("ibmq_belem");
    TranspiledCircuit tc = transpile(ghz, belem.coupling);
    std::printf("transpiled: %d swaps, G1=%d, G2=%d, critical depth %d\n",
                tc.swapCount, tc.counts.g1, tc.counts.g2,
                tc.criticalDepth);

    SimulatedQpu qpu(belem, /*seed=*/42);
    Rng rng(42);
    JobResult job = qpu.execute(tc, {}, 8192, /*atTimeH=*/1.0, rng,
                                /*sampleCounts=*/true);
    uint64_t all1 = 0;
    for (int l = 0; l < 3; ++l)
        all1 |= uint64_t{1} << tc.logicalToCompact[l];
    std::printf("noisy:  P(000) = %.3f, P(111) = %.3f "
                "(the rest is device error)\n",
                job.probabilities[0], job.probabilities[all1]);

    // ------------------------------------------------------------------
    // 3. VQE: single device vs EQC ensemble.
    // ------------------------------------------------------------------
    std::printf("\n== 3. VQE on one device vs the EQC ensemble ==\n");
    VqaProblem problem = makeHeisenbergVqe();
    std::printf("problem: %s, %d parameters, ground energy %.3f a.u.\n",
                problem.name.c_str(), problem.numParams(),
                minEigenvalue(problem.hamiltonian));

    // Every run goes through the Runtime: pick an engine by name
    // ("virtual" = deterministic replay, "service" = gradients served
    // through a ServiceNode), get a JobHandle back. A single-device
    // baseline is a job whose ensemble has one member.
    EqcOptions opts;
    opts.master.epochs = 40;
    opts.seed = 7;
    opts.engine = "virtual";

    Runtime runtime;
    EqcTrace bogota =
        runtime.submit(problem, {deviceByName("ibmq_bogota")}, opts)
            .take();
    std::printf("ibmq_bogota alone: %zu epochs in %.1f h "
                "(%.1f epochs/hour), final energy %.3f a.u.\n",
                bogota.epochs.size(), bogota.totalHours,
                bogota.epochsPerHour, finalEnergy(bogota, 5));

    // The ensemble run, with an observer attached for streaming
    // telemetry.
    opts.master.weightBounds = {0.5, 1.5}; // the paper's Sec. V-D knob
    ProgressObserver progress;
    JobHandle handle =
        runtime.submit(problem, evaluationEnsemble(), opts, {&progress});
    EqcTrace eqc = handle.take();
    std::printf("EQC (10 devices):  %zu epochs in %.1f h "
                "(%.1f epochs/hour), final energy %.3f a.u.\n",
                eqc.epochs.size(), eqc.totalHours, eqc.epochsPerHour,
                finalEnergy(eqc, 5));
    std::printf("speedup: %.1fx; mean gradient staleness: %.1f "
                "updates\n",
                eqc.epochsPerHour / bogota.epochsPerHour,
                eqc.staleness.mean());
    return 0;
}
