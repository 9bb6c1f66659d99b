#include "core/client.h"

#include "common/logging.h"

namespace eqc {

ClientNode::ClientNode(int id, Device device, const VqaProblem &problem,
                       uint64_t seed, const ClientConfig &config)
    : id_(id), device_(std::move(device)), config_(config),
      backend_(device_, seed),
      estimator_(problem.hamiltonian, problem.ansatz),
      compiled_(estimator_.compileFor(device_.coupling)),
      rng_(Rng(seed).fork("client:" + device_.name)),
      durUs_(0.0)
{
    if (!device_.canRun(problem.ansatz.numQubits()))
        fatal("ClientNode: device '" + device_.name +
              "' too small for the circuit");
    durUs_ = circuitDurationUs(compiled_[0].compact,
                               device_.baseCalibration,
                               compiled_[0].compactToPhysical);
}

double
ClientNode::computePCorrect(double atTimeH) const
{
    const std::shared_ptr<const CalibrationSnapshot> reported =
        backend_.reportedCalibration(atTimeH);
    // Average Eq. 2 over the measurement-group circuits (they share the
    // ansatz and differ only in basis rotations).
    double sum = 0.0;
    for (const TranspiledCircuit &tc : compiled_)
        sum += pCorrect(circuitQuality(tc), *reported,
                        config_.pCorrectMode);
    return sum / static_cast<double>(compiled_.size());
}

ClientNode::PendingJob
ClientNode::beginProcess(const GradientTask &task, double atTimeH)
{
    PendingJob job;
    job.task = task;
    job.submitH = atTimeH;
    const int groupCount = static_cast<int>(compiled_.size());
    double latencyS = backend_.queue().jobLatencyS(
        atTimeH, durUs_, config_.shots, 2 * groupCount, rng_);
    job.latencyH = latencyS / 3600.0;
    job.pCorrect = computePCorrect(atTimeH);
    job.jobRng = rng_.fork(++jobCounter_);
    return job;
}

ClientNode::Processed
ClientNode::finishProcess(PendingJob &job, TaskPool *pool)
{
    Processed out;
    out.latencyH = job.latencyH;
    double completionH = job.submitH + job.latencyH;

    GradientEstimate g = gradientParamShift(
        estimator_, backend_, compiled_, job.task.params,
        job.task.paramIndex, config_.shots, completionH, job.jobRng,
        config_.shotMode, config_.shiftMode, config_.readoutMitigation,
        pool);

    out.result.paramIndex = job.task.paramIndex;
    out.result.gradient = g.gradient;
    out.result.pCorrect = job.pCorrect;
    out.result.clientId = id_;
    out.result.version = job.task.version;
    out.result.completionTimeH = completionH;
    out.result.circuitsRun = g.circuitsRun;
    return out;
}

double
ClientNode::evaluateEnergy(const std::vector<double> &params,
                           double atTimeH, TaskPool *pool)
{
    EnergyEstimate e = estimator_.estimate(
        backend_, compiled_, params, config_.shots, atTimeH, rng_,
        config_.shotMode, config_.readoutMitigation, pool);
    return e.energy;
}

} // namespace eqc
