/**
 * @file
 * EQC executor for QNN workloads: dataset-level task decomposition
 * (paper Sec. III-A). A task is one (parameter, data point) pair; the
 * client returns dl(x_d; theta)/dtheta_i via the chain rule
 * 2(<O> - y_d) * d<O>/dtheta_i, and the master applies it with weight
 * lr/n — asynchronously accumulating the dataset-average gradient, as
 * the paper prescribes ("the gradients are applied asynchronously").
 */

#ifndef EQC_CORE_QNN_EXECUTOR_H
#define EQC_CORE_QNN_EXECUTOR_H

#include <map>
#include <string>
#include <vector>

#include "core/eqc.h"
#include "vqa/qnn.h"

namespace eqc {

/** One epoch record of a QNN training run. */
struct QnnEpochRecord
{
    int epoch = 0;
    double timeH = 0.0;
    /** Dataset MSE of the current parameters (ideal simulator). */
    double mseIdeal = 0.0;
};

/** Full record of one QNN training run. */
struct QnnTrace
{
    std::string label;
    std::vector<QnnEpochRecord> epochs;
    std::vector<double> finalParams;
    double totalHours = 0.0;
    double epochsPerHour = 0.0;
    bool terminated = false;
    std::map<std::string, int> jobsPerDevice;
};

/** Options for QNN training (subset of EqcOptions semantics). */
struct QnnOptions
{
    int epochs = 30;
    double learningRate = 0.2;
    WeightBounds weightBounds{};
    int shots = 8192;
    ShotMode shotMode = ShotMode::Gaussian;
    PCorrectMode pCorrectMode = PCorrectMode::Physical;
    double maxHours = 336.0;
    uint64_t seed = 1;
};

/**
 * Train a QNN on the EQC ensemble with dataset-level parallelism. One
 * epoch = numParams x numSamples gradient contributions, distributed
 * cyclically over the clients. A one-device list is the single-device
 * baseline with the same task decomposition.
 */
QnnTrace runQnnEqcVirtual(const QnnProblem &problem,
                          const std::vector<Device> &devices,
                          const QnnOptions &options);

} // namespace eqc

#endif // EQC_CORE_QNN_EXECUTOR_H
