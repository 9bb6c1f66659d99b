/**
 * @file
 * EQC public facade: options and trace types shared by every execution
 * engine, plus trace-analysis helpers.
 *
 * Runs are launched through eqc::Runtime (core/runtime.h), which picks
 * the engine named by EqcOptions::engine from the EngineRegistry
 * (core/engine.h).
 */

#ifndef EQC_CORE_EQC_H
#define EQC_CORE_EQC_H

#include <map>
#include <string>

#include "core/ensemble.h"
#include "core/master.h"
#include "vqa/trainer.h"

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
     * EngineRegistry key of the execution engine to run on. Built-in:
     * "virtual" (deterministic discrete-event replay) and "service"
     * (gradients served through a multi-tenant serve::ServiceNode).
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

/** Convenience overload on a trace's device-energy series. */
int convergenceEpoch(const TrainingTrace &trace, double target,
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

} // namespace eqc

#endif // EQC_CORE_EQC_H
