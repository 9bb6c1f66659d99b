/**
 * @file
 * Extension example: the paper's third VQA family (Sec. III-A) — a
 * quantum neural network trained with dataset-level parallelism. The
 * QNN is an ordinary EQC job: a VqaProblem with a dataset, submitted
 * to the Runtime. Each task computes the gradient of one (parameter,
 * data point) pair; the master accumulates the dataset average
 * asynchronously.
 *
 * Build & run:  ./build/examples/qnn_classifier
 */

#include <cstdio>

#include "core/runtime.h"
#include "device/catalog.h"
#include "vqa/problem.h"

int
main()
{
    using namespace eqc;

    VqaProblem problem = makeSineClassifier(12, 5);
    std::printf("QNN: %d qubits, %d parameters, %d samples "
                "(sign-of-sine labels)\n\n",
                problem.ansatz.numQubits(), problem.numParams(),
                problem.numSamples());
    std::printf("initial MSE: %.4f\n",
                idealLoss(problem, problem.initialParams));

    std::vector<Device> ensemble = {
        deviceByName("ibmq_bogota"), deviceByName("ibmq_manila"),
        deviceByName("ibmq_quito"), deviceByName("ibmq_belem"),
        deviceByName("ibmq_lima"),
    };

    EqcOptions opts;
    opts.master.epochs = 30;
    opts.master.learningRate = 0.2;
    opts.master.weightBounds = {0.5, 1.5};
    opts.seed = 4;
    Runtime runtime;
    EqcTrace trace = runtime.submit(problem, ensemble, opts).take();

    std::printf("trained %zu epochs at %.1f epochs/hour (%.2f h)\n",
                trace.epochs.size(), trace.epochsPerHour,
                trace.totalHours);
    std::printf("MSE by epoch: ");
    for (std::size_t i = 0; i < trace.epochs.size(); i += 5)
        std::printf("%.3f ", trace.epochs[i].energyIdeal);
    std::printf("-> %.4f\n\n", trace.epochs.back().energyIdeal);

    std::printf("%-10s %-8s %-10s %-8s\n", "x", "label", "predict",
                "correct");
    int correct = 0;
    for (int d = 0; d < problem.numSamples(); ++d) {
        const QnnSample &s = problem.dataset[d];
        double y = qnnPredictIdeal(problem, d, trace.finalParams);
        bool ok = (y >= 0) == (s.label >= 0);
        correct += ok;
        std::printf("%-10.3f %-8.1f %-10.3f %-8s\n", s.features[0],
                    s.label, y, ok ? "yes" : "NO");
    }
    std::printf("\nclassification accuracy: %d/%d\n", correct,
                problem.numSamples());
    return 0;
}
