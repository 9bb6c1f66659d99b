/**
 * @file
 * Quantum backend interface and the simulated QPU.
 *
 * SimulatedQpu is the substitution for a physical IBMQ device: it runs
 * the transpiled circuit on the density-matrix simulator with Kraus
 * noise derived from the device's *actual* (drifted) calibration at the
 * submission time, applies per-qubit readout confusion, and samples
 * shots. Client nodes, however, only ever see the *reported* calibration
 * — exactly the information asymmetry real EQC deployments face.
 */

#ifndef EQC_DEVICE_BACKEND_H
#define EQC_DEVICE_BACKEND_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/device.h"
#include "transpile/transpiler.h"

namespace eqc {

class TaskPool;

/** Result of one batch execution on a backend. */
struct JobResult
{
    /**
     * Outcome distribution over the compact circuit's qubits with
     * readout error applied (exact, before shot sampling).
     */
    std::vector<double> probabilities;
    /** Sampled counts per outcome (empty when sampling was disabled). */
    std::vector<uint64_t> counts;
    /** Shots requested. */
    int shots = 0;
    /** Wall-clock duration of one circuit execution (microseconds). */
    double circuitDurationUs = 0.0;
};

/** One circuit of a batch execution (QuantumBackend::executeBatch). */
struct ExecItem
{
    const TranspiledCircuit *tc = nullptr;
    /** Values for the circuit's parameter table. */
    const std::vector<double> *params = nullptr;
    /** Stream for this item's shot sampling. */
    Rng *rng = nullptr;
};

/**
 * The density-matrix work of one SimulatedQpu::executeBatch, read off
 * its schedule before anything runs: deterministic, and independent of
 * the host.
 */
struct BatchWork
{
    /** (ket, bra) blocks the schedule's kernel passes process. */
    uint64_t blocks = 0;
    /** Those passes' blocks with no finished qubit's blocks skipped. */
    uint64_t unprunedBlocks = 0;
};

/** Abstract execution target for transpiled circuits. */
class QuantumBackend
{
  public:
    virtual ~QuantumBackend() = default;

    /**
     * Execute several bound circuits submitted at one time — the
     * shape of a parameter-shift gradient over measurement groups.
     *
     * Each item's result is bit-identical to executing it alone.
     * Items are sampled in item order after every circuit has run, so
     * items that share one Rng draw exactly as the same sequence of
     * execute() calls would.
     *
     * @param items circuits to run (see ExecItem); every pointer must
     *        outlive the call
     * @param shots number of measurement shots per item
     * @param atTimeH virtual submission time (selects the noise state)
     * @param sampleCounts also draw multinomial counts (exact
     *        distributions are always returned)
     * @param pool fan-out pool; nullptr means TaskPool::shared()
     * @return one result per item, in item order
     */
    virtual std::vector<JobResult>
    executeBatch(const std::vector<ExecItem> &items, int shots,
                 double atTimeH, bool sampleCounts,
                 TaskPool *pool = nullptr) = 0;

    /**
     * Execute one bound circuit: a one-item executeBatch().
     *
     * @param tc transpiled circuit (compact form is executed)
     * @param params values for the circuit's parameter table
     * @param shots number of measurement shots
     * @param atTimeH virtual submission time (selects the noise state)
     * @param rng stream for shot sampling
     * @param sampleCounts also draw multinomial counts (exact
     *        distribution is always returned)
     */
    JobResult execute(const TranspiledCircuit &tc,
                      const std::vector<double> &params, int shots,
                      double atTimeH, Rng &rng, bool sampleCounts);

    /** Device this backend fronts. */
    virtual const Device &device() const = 0;

    /**
     * Calibration the provider advertises at time t. Clients use it for
     * Eq. 2 weighting and readout-error mitigation; it lags the true
     * noise by up to one calibration cycle.
     */
    virtual std::shared_ptr<const CalibrationSnapshot>
    reportedCalibration(double tH) const = 0;

    /**
     * true when this backend already holds a compiled execution plan
     * for @p tc — i.e. running it would skip plan compilation
     * entirely. Schedulers use the probe for cache-aware placement
     * (bias work toward members that are already warm for it); a
     * backend without a plan cache reports cold for everything.
     */
    virtual bool
    planCacheContains(const TranspiledCircuit &tc) const
    {
        (void)tc;
        return false;
    }
};

/** Density-matrix-simulated QPU with drifting calibration. */
class SimulatedQpu : public QuantumBackend
{
  public:
    /**
     * @param dev device description (catalog entry)
     * @param seed experiment seed; forked per device for determinism
     */
    SimulatedQpu(Device dev, uint64_t seed);

    ~SimulatedQpu() override;

    /** Movable (the plan cache moves along; its mutex starts fresh). */
    SimulatedQpu(SimulatedQpu &&other) noexcept;

    /**
     * Looks up each distinct plan once and builds one noise context
     * for @p atTimeH, covering the union of the plans' physical qubits
     * and CX pairs. Noisy items are then planned, before any kernel
     * runs, as a prefix tree over their NoisePreserving fused
     * programs, and the plan is run:
     *  - a channel table: ops at one tree depth that agree (same
     *    operator, physical qubits and bound parameter bits) share one
     *    compiled gate+noise channel, so the +- shift branches' common
     *    suffix is composed once;
     *  - a flat schedule of apply/save/restore/read steps: a shared op
     *    is applied once, and op order is never changed, so every
     *    result is bit-identical to a lone execute();
     *  - per apply, the qubits no later op below it touches: its 1q
     *    pass skips the blocks whose ket and bra bits differ on such a
     *    qubit, which nothing reads (the result is the diagonal).
     * On one thread the walk holds at most two density matrices: the
     * working state and one saved branch state. On a multi-thread
     * @p pool the classes of the first branch fan out, each pool chunk
     * walking serially from that branch's state with its own two.
     * Noiseless items run one by one on the statevector.
     */
    std::vector<JobResult> executeBatch(const std::vector<ExecItem> &items,
                                        int shots, double atTimeH,
                                        bool sampleCounts,
                                        TaskPool *pool = nullptr) override;

    /**
     * The density-matrix blocks executeBatch() on the same arguments
     * would process, read off its schedule without running it (zero
     * for a noiseless batch, which runs on the statevector).
     */
    BatchWork batchWork(const std::vector<ExecItem> &items, double atTimeH,
                        TaskPool *pool = nullptr);

    const Device &device() const override { return dev_; }

    /**
     * Calibration the provider advertises at time t (no drift). The
     * snapshot of the last time asked for is cached and shared, not
     * copied.
     */
    std::shared_ptr<const CalibrationSnapshot>
    reportedCalibration(double tH) const override;

    /** Exact (signature-verified) plan-cache membership probe. */
    bool planCacheContains(const TranspiledCircuit &tc) const override;

    /** Access to the underlying drift timeline (for benches/tests). */
    const CalibrationTracker &tracker() const { return tracker_; }

    /** Queue model of this device. */
    const QueueModel &queue() const { return queue_; }

  private:
    /**
     * Precompiled execution plan for one transpiled circuit: two fused
     * programs (see sim/fusion.h) — a Full-fusion program driving the
     * noiseless statevector fast path and a NoisePreserving program
     * driving the density-matrix path, where per-gate calibration noise
     * attaches to each fused op's primary gate — plus the physical
     * qubit mapping and measured-qubit list. The per-job loop only
     * re-evaluates symbolic fused operators (at most 4x4 products) and
     * dispatches branch-light kernel calls, with no per-gate heap
     * allocation. Cached by circuit identity (structural hash, verified
     * exactly on every hit).
     */
    struct ExecPlan;

    /**
     * Everything a batch derives from the actual calibration at its
     * submission time, built once per executeBatch() call (every item
     * of a batch shares one time) and only for what the batch's
     * circuits use: for each used physical qubit its drifted
     * calibration, 1q noise superoperator, thermal-relaxation factors
     * for the 1q gate time and precompiled coherent-miscalibration
     * entries; for each used CX pair its depolarizing, thermal and
     * ZZ-phase noise. (Circuit durations live on the ExecPlan — gate
     * times never drift.) Each entry is computed from the drift of
     * that time alone (CalibrationTracker::actualQubit), so it is the
     * value a whole-chip snapshot would hold. Each qubit's 1q noise
     * superoperator is composed heap-free by
     * thermalDepolarizingSuperop1q (quantum/kraus.h), bitwise equal to
     * the Kraus-chain reference. Read-only once built.
     */
    struct NoiseContext;

    /** One batch's channels and steps (see executeBatch()). */
    struct BatchSchedule;

    /** Builds a BatchSchedule from a batch's items and plans. */
    struct BatchPlanner;

    /** Cached plan for @p tc, building it on first sight. */
    std::shared_ptr<const ExecPlan> planFor(const TranspiledCircuit &tc);

    /**
     * Every item's plan into @p planOf, one lookup per distinct
     * circuit; returns the plans' owners.
     */
    std::vector<std::shared_ptr<const ExecPlan>>
    plansFor(const std::vector<ExecItem> &items,
             std::vector<const ExecPlan *> &planOf);

    /**
     * The noise context at time @p tH for the physical qubits and CX
     * pairs of @p plans (built afresh; not cached). Whether the batch
     * runs noiseless is still decided over the whole chip; a noiseless
     * context holds no entries.
     */
    NoiseContext
    noiseContextAt(double tH,
                   const std::vector<std::shared_ptr<const ExecPlan>>
                       &plans) const;

    Device dev_;
    CalibrationTracker tracker_;
    QueueModel queue_;

    mutable std::mutex planMu_;
    std::unordered_map<uint64_t, std::shared_ptr<const ExecPlan>>
        planCache_;

    mutable std::mutex reportedMu_;
    mutable double reportedTimeH_ = 0.0;
    mutable std::shared_ptr<const CalibrationSnapshot> reportedCal_;
};

/**
 * A perfect device: all-to-all coupling, no noise, negligible queue.
 * Used for the paper's "Ideal Solution" baseline curves.
 */
Device makeIdealDevice(int numQubits, const std::string &name = "ideal");

} // namespace eqc

#endif // EQC_DEVICE_BACKEND_H
