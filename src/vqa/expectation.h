/**
 * @file
 * Hamiltonian expectation estimation from measurements.
 *
 * A PauliSum is partitioned into qubit-wise-commuting groups; each group
 * gets one measurement circuit (ansatz + per-qubit basis rotations +
 * measurement). Estimating <H> then costs one circuit execution per
 * group — the Pauli-string-level parallelism the paper describes for
 * VQE task decomposition (Sec. III-A).
 */

#ifndef EQC_VQA_EXPECTATION_H
#define EQC_VQA_EXPECTATION_H

#include <vector>

#include "circuit/circuit.h"
#include "device/backend.h"
#include "quantum/pauli.h"
#include "transpile/transpiler.h"

namespace eqc {

class TaskPool;

/** How measurement shot noise enters energy estimates. */
enum class ShotMode {
    Exact,       ///< no shot noise (infinite-shot limit)
    Multinomial, ///< sample real counts and estimate from them
    Gaussian,    ///< exact expectation + matched Gaussian noise (fast)
};

/** One qubit-wise-commuting measurement group. */
struct MeasurementGroup
{
    /** Indices into the Hamiltonian's term list. */
    std::vector<std::size_t> termIndices;
    /**
     * Per-term support masks over *logical* qubits (bit q set iff the
     * term acts non-trivially on qubit q), parallel to termIndices.
     * Precomputed at construction so estimate() only remaps set bits
     * through the transpiled layout instead of re-scanning every
     * Pauli string on every call.
     */
    std::vector<uint64_t> termLogicalMasks;
    /** Logical circuit: ansatz + basis rotations + measure-all. */
    QuantumCircuit circuit;
};

/** Remove MEASURE ops (ansatz builders append them by default). */
QuantumCircuit stripMeasurements(const QuantumCircuit &circuit);

/** Ideal <H> on the state prepared by @p ansatz at @p params. */
double idealEnergy(const QuantumCircuit &ansatz, const PauliSum &h,
                   const std::vector<double> &params);

/**
 * One independent evaluation of a batched estimate: a compiled circuit
 * set (compileFor() result) and a parameter binding. Both pointers must
 * outlive the estimateBatch() call.
 */
struct EstimateJob
{
    const std::vector<TranspiledCircuit> *compiled = nullptr;
    const std::vector<double> *params = nullptr;
};

/** An energy estimate and its bookkeeping. */
struct EnergyEstimate
{
    double energy = 0.0;
    /** Estimator variance across shots (0 in Exact mode). */
    double variance = 0.0;
    /** Circuits executed (== number of groups). */
    int circuitsRun = 0;
    /** Total measurement operations performed (the M of Eq. 2). */
    int measurements = 0;
    /** Summed per-circuit durations in microseconds. */
    double totalDurationUs = 0.0;
};

/**
 * Grouped estimator for one (Hamiltonian, ansatz) pair.
 *
 * Construction groups the Hamiltonian; compileFor() transpiles every
 * group circuit for a device once (circuits remain symbolically
 * parameterized); estimate() executes them with bound parameters.
 */
class ExpectationEstimator
{
  public:
    /**
     * @param hamiltonian observable to estimate
     * @param ansatz state-preparation circuit (MEASURE ops ignored)
     */
    ExpectationEstimator(PauliSum hamiltonian,
                         const QuantumCircuit &ansatz);

    /** The measurement groups (one executed circuit each). */
    const std::vector<MeasurementGroup> &groups() const { return groups_; }

    /** Hamiltonian being estimated. */
    const PauliSum &hamiltonian() const { return hamiltonian_; }

    /** Per-device compilation: one transpiled circuit per group. */
    std::vector<TranspiledCircuit>
    compileFor(const CouplingMap &map,
               const TranspileOptions &opts = {}) const;

    /**
     * Estimate <H> at @p params on @p backend.
     *
     * @param compiled result of compileFor() on the backend's device
     * @param params parameter binding
     * @param shots shots per group circuit
     * @param atTimeH virtual submission time
     * @param rng randomness for shot noise
     * @param mode shot-noise model
     * @param mitigateReadout invert the per-qubit readout confusion
     *        using the backend's *reported* calibration (standard IBMQ
     *        measurement-error mitigation; residual error remains when
     *        the reported calibration is stale)
     * @param pool fan-out pool for the group batch's branches; nullptr
     *        means TaskPool::shared()
     */
    EnergyEstimate estimate(QuantumBackend &backend,
                            const std::vector<TranspiledCircuit> &compiled,
                            const std::vector<double> &params, int shots,
                            double atTimeH, Rng &rng, ShotMode mode,
                            bool mitigateReadout = true,
                            TaskPool *pool = nullptr) const;

    /**
     * Estimate <H> for several independent evaluations at once — the
     * shape of a parameter-shift gradient (forward/backward pairs over
     * the measurement groups). The whole (evaluation x group) circuit
     * set is one QuantumBackend::executeBatch() call: one noise
     * context, and on SimulatedQpu one prefix tree whose branches fan
     * out through @p pool.
     *
     * Each circuit execution draws from its own child generator forked
     * off one @p rng draw, so results are *identical for every thread
     * count* (including 1) and the caller's stream advances by exactly
     * one draw regardless of batch size. Results are reduced in a
     * fixed order, making the whole batch bit-deterministic.
     *
     * @param backend execution target
     * @param jobs evaluations to run (see EstimateJob)
     * @param pool fan-out pool; nullptr means TaskPool::shared()
     * @return one estimate per job, in job order
     */
    std::vector<EnergyEstimate>
    estimateBatch(QuantumBackend &backend,
                  const std::vector<EstimateJob> &jobs, int shots,
                  double atTimeH, Rng &rng, ShotMode mode,
                  bool mitigateReadout = true,
                  TaskPool *pool = nullptr) const;

  private:
    /** Partial result of one (evaluation, group) circuit execution. */
    struct GroupPartial
    {
        double energy = 0.0;
        double variance = 0.0;
        int measurements = 0;
        double durationUs = 0.0;
    };

    /** Reduce one executed group circuit to its energy terms. */
    GroupPartial estimateGroup(const MeasurementGroup &group,
                               const TranspiledCircuit &tc, JobResult job,
                               int shots, Rng &rng, ShotMode mode,
                               const CalibrationSnapshot *reported) const;

    PauliSum hamiltonian_;
    std::vector<MeasurementGroup> groups_;
    double identityOffset_ = 0.0;
};

} // namespace eqc

#endif // EQC_VQA_EXPECTATION_H
