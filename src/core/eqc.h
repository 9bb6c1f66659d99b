/**
 * @file
 * EQC public facade: options and trace types shared by every execution
 * engine, plus trace-analysis helpers.
 *
 * A single-device baseline is an EQC job with a one-member device
 * list: with the default weight bounds {1, 1} and adaptive cooldown
 * off, the engine keeps one gradient job in flight, so every gradient
 * is applied fresh, in cyclic parameter order, at weight 1.
 *
 * A QNN is an EQC job too: a VqaProblem with a dataset, whose tasks
 * are (parameter, data point) pairs and whose epoch energies are the
 * dataset MSE.
 *
 * Runs are launched through eqc::Runtime (core/runtime.h), which
 * creates the engine named by EqcOptions::engine with makeEngine
 * (core/engine.h).
 */

#ifndef EQC_CORE_EQC_H
#define EQC_CORE_EQC_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/ensemble.h"
#include "core/master.h"
#include "vqa/problem.h"

namespace eqc {

/** Full configuration of one EQC training run. */
struct EqcOptions
{
    /** Epochs / learning rate / weight bounds. */
    MasterOptions master;
    /** Shots / shot model / shift rule / Eq. 2 convention. */
    ClientConfig client;
    /** Online ensemble-management policy. */
    AdaptivePolicy adaptive;
    /** Termination rule in virtual hours. */
    double maxHours = 336.0;
    uint64_t seed = 1;
    /**
     * Name of the execution engine to run on: "virtual"
     * (deterministic discrete-event replay) or "service" (gradients
     * served through a multi-tenant serve::ServiceNode; rejects a
     * problem with a dataset).
     */
    std::string engine = "virtual";
    /**
     * Size of the TaskPool the engines fan independent gradient jobs
     * out on: 0 uses the process-wide shared pool (sized by
     * EQC_THREADS or hardware concurrency), any other value gives the
     * job its own pool of that many participants. The "virtual"
     * engine's results are bit-identical for every value — fan-out
     * only trades wall-clock time.
     */
    int engineThreads = 0;
    /**
     * Record ideal-simulator energy of the evolving parameters
     * (installs an IdealEnergyObserver on the job).
     */
    bool recordIdealEnergy = true;
    /**
     * Record the per-result weight timeline, i.e. the Fig. 5 data
     * (installs a WeightTimelineObserver on the job).
     */
    bool recordWeights = true;
};

/** One epoch of a training trace. */
struct EpochRecord
{
    int epoch = 0;
    /** Virtual completion time of the epoch (hours). */
    double timeH = 0.0;
    /**
     * Energy estimated on the (noisy) training backend; the dataset
     * MSE for a QNN.
     */
    double energyDevice = 0.0;
    /** Ideal-simulator loss of the current parameters (idealLoss). */
    double energyIdeal = 0.0;
};

/** Full record of one training run. */
struct TrainingTrace
{
    std::string label;
    std::vector<EpochRecord> epochs;
    std::vector<double> finalParams;
    /** true when the run hit maxHours before finishing. */
    bool terminated = false;
    double totalHours = 0.0;
    double epochsPerHour = 0.0;
    int circuitEvaluations = 0;

    /** Epoch records as (epoch, energyIdeal) series. */
    std::vector<double> idealEnergySeries() const;
};

/** One weight observation (a Fig. 5 sample). */
struct WeightRecord
{
    double timeH = 0.0;
    int clientId = -1;
    double pCorrect = 0.0;
    double weight = 0.0;
};

/** Trace of an EQC run: a TrainingTrace plus ensemble telemetry. */
struct EqcTrace : TrainingTrace
{
    std::vector<WeightRecord> weights;
    /** Staleness (master updates) of the applied gradients. */
    RunningStats staleness;
    /** Gradient jobs completed per device. */
    std::map<std::string, int> jobsPerDevice;
    /** Cooldowns triggered by the adaptive policy. */
    int cooldowns = 0;
};

/**
 * First index whose trailing @p window rolling mean of @p series stays
 * within @p tolAbs of @p target for the rest of the series; -1 if never.
 */
int convergenceEpoch(const std::vector<double> &series, double target,
                     double tolAbs, int window = 5);

/** Mean device energy over the final @p lastK epochs of a trace. */
double finalEnergy(const TrainingTrace &trace, int lastK = 10);

/** Mean ideal-simulator energy over the final @p lastK epochs. */
double finalIdealEnergy(const TrainingTrace &trace, int lastK = 10);

/**
 * Error rate versus a reference energy, as the paper reports it:
 * |E - E_ref| / |E_ref| * 100 (percent).
 */
double errorVsReference(double energy, double reference);

/**
 * Variationally estimate the ansatz-reachable minimum energy: two
 * noise-free exact-expectation gradient-descent stages (coarse then
 * fine), each a one-member job on the ideal device. This is the
 * reference against which the reproduction reports error rates — the
 * analogue of the paper's "Ideal Solution" line. (For the Fig. 8
 * ansatz on the 4-qubit Heisenberg lattice this sits ~18% above the
 * true ground energy; the ansatz cannot represent the singlet.)
 */
double estimateAnsatzMinimum(const VqaProblem &problem,
                             uint64_t seed = 1);

} // namespace eqc

#endif // EQC_CORE_EQC_H
