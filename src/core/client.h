/**
 * @file
 * The EQC client node (paper Alg. 2).
 *
 * One client fronts one QPU. At construction it transpiles the problem's
 * measurement-group circuits for its device topology once, one set per
 * dataset sample (circuits stay symbolically parameterized, so every
 * subsequent iteration only re-binds angles). For each task it:
 *   1. samples its device's queue latency,
 *   2. computes P_correct from the transpiled circuit census and the
 *      device's *reported* calibration at induction time (Eq. 2),
 *   3. runs the forward/backward parameter-shift circuits on the
 *      backend (which applies the *actual*, drifted noise) — for a
 *      dataset task also the unshifted circuit, since the gradient of
 *      the sample's squared error is 2(<O>_d - y_d) d<O>_d/dtheta_i,
 *   4. hands the gradient and P_correct back to the master.
 */

#ifndef EQC_CORE_CLIENT_H
#define EQC_CORE_CLIENT_H

#include <memory>

#include "core/master.h"
#include "device/backend.h"
#include "vqa/parameter_shift.h"

namespace eqc {

class TaskPool;

/** Per-client execution configuration. */
struct ClientConfig
{
    int shots = 8192;
    ShotMode shotMode = ShotMode::Gaussian;
    ShiftMode shiftMode = ShiftMode::WholeParameter;
    PCorrectMode pCorrectMode = PCorrectMode::Physical;
    /** Reported-calibration measurement-error mitigation. */
    bool readoutMitigation = true;
};

/** One QPU-attached worker. */
class ClientNode
{
  public:
    /**
     * @param id stable client identifier (index in the ensemble)
     * @param device catalog device this client manages
     * @param problem the VQA under optimization
     * @param seed experiment seed (forked per client)
     * @param config execution knobs
     */
    ClientNode(int id, Device device, const VqaProblem &problem,
               uint64_t seed, const ClientConfig &config);

    /** Outcome of processing one task. */
    struct Processed
    {
        GradientResult result;
        /** Sampled job latency in hours (queue + execution). */
        double latencyH = 0.0;
    };

    /**
     * A pulled-but-not-yet-computed gradient job: everything the
     * pull side decides (queue latency, Eq. 2 score, the job's own
     * random stream) so the heavy circuit evaluation can run later —
     * and concurrently with other clients' jobs — without touching the
     * client's serial state. See the "virtual" engine's batched flush.
     */
    struct PendingJob
    {
        GradientTask task;
        /** Virtual submission time (hours). */
        double submitH = 0.0;
        /** Sampled job latency in hours (queue + execution). */
        double latencyH = 0.0;
        /** Eq. 2 score against the reported calibration at submitH. */
        double pCorrect = 1.0;
        /**
         * Per-job stream forked from the client's root seed and a job
         * counter: gradient randomness is a pure function of (client,
         * job index), independent of which thread computes it.
         */
        Rng jobRng;
    };

    /**
     * Pull side of a gradient task submitted at @p atTimeH: sample
     * the queue latency, compute the Eq. 2 score and fork the job's
     * random stream. Must be called serially per client (it advances
     * the client's stream and job counter); cheap — no circuit is
     * executed.
     */
    PendingJob beginProcess(const GradientTask &task, double atTimeH);

    /**
     * Compute side of a pulled job: run the parameter-shift circuits
     * under the device's noise at the job's completion time, submitH
     * + latencyH. For a dataset problem the result is the sample's
     * share of the MSE gradient, 2(<O>_d - y_d) d<O>_d/dtheta_i / n.
     * Safe to call concurrently for *different* clients
     * (each client may have at most one job in flight); consumes
     * @p job's stream.
     * @param pool fan-out pool for the shift evaluations; nullptr
     *        means TaskPool::shared(). Engines pass their own pool so
     *        EqcOptions::engineThreads bounds the whole job.
     */
    Processed finishProcess(PendingJob &job, TaskPool *pool = nullptr);

    /**
     * Evaluate the loss of @p params on this device at @p atTimeH:
     * the energy, or the dataset MSE for a dataset problem
     * (diagnostic; does not consume queue time).
     * @param pool fan-out pool (see finishProcess)
     */
    double evaluateEnergy(const std::vector<double> &params,
                          double atTimeH, TaskPool *pool = nullptr);

    /**
     * Eq. 2 score of dataset sample @p sample's circuits against the
     * reported calibration at time t.
     */
    double computePCorrect(double atTimeH, int sample = 0) const;

    int id() const { return id_; }
    const Device &device() const { return device_; }
    SimulatedQpu &backend() { return backend_; }

  private:
    /** The compiled circuits of one dataset sample (or the ansatz). */
    struct Sample
    {
        ExpectationEstimator estimator;
        std::vector<TranspiledCircuit> compiled;
        double label = 0.0;
    };

    int id_;
    Device device_;
    ClientConfig config_;
    SimulatedQpu backend_;
    std::vector<Sample> samples_;
    /** true for a dataset (QNN) problem. */
    bool dataset_;
    Rng rng_;
    double durUs_;
    uint64_t jobCounter_ = 0;
};

} // namespace eqc

#endif // EQC_CORE_CLIENT_H
