#include "core/client.h"

#include "common/logging.h"

namespace eqc {

ClientNode::ClientNode(int id, Device device, const VqaProblem &problem,
                       uint64_t seed, const ClientConfig &config)
    : id_(id), device_(std::move(device)), config_(config),
      backend_(device_, seed), dataset_(!problem.dataset.empty()),
      rng_(Rng(seed).fork("client:" + device_.name)),
      durUs_(0.0)
{
    if (!device_.canRun(problem.ansatz.numQubits()))
        fatal("ClientNode: device '" + device_.name +
              "' too small for the circuit");
    for (int d = 0; d < problem.numSamples(); ++d) {
        Sample s{ExpectationEstimator(problem.hamiltonian,
                                      problem.circuitFor(d)),
                 {},
                 dataset_ ? problem.dataset[d].label : 0.0};
        s.compiled = s.estimator.compileFor(device_.coupling);
        samples_.push_back(std::move(s));
    }
    const TranspiledCircuit &first = samples_[0].compiled[0];
    durUs_ = circuitDurationUs(first.compact, device_.baseCalibration,
                               first.compactToPhysical);
}

double
ClientNode::computePCorrect(double atTimeH, int sample) const
{
    const std::shared_ptr<const CalibrationSnapshot> reported =
        backend_.reportedCalibration(atTimeH);
    // Average Eq. 2 over the measurement-group circuits (they share the
    // ansatz and differ only in basis rotations).
    const std::vector<TranspiledCircuit> &compiled =
        samples_[sample].compiled;
    double sum = 0.0;
    for (const TranspiledCircuit &tc : compiled)
        sum += pCorrect(circuitQuality(tc), *reported,
                        config_.pCorrectMode);
    return sum / static_cast<double>(compiled.size());
}

ClientNode::PendingJob
ClientNode::beginProcess(const GradientTask &task, double atTimeH)
{
    PendingJob job;
    job.task = task;
    job.submitH = atTimeH;
    // Forward + backward circuits per group; a dataset task also runs
    // the unshifted one.
    const int groupCount =
        static_cast<int>(samples_[task.sample].compiled.size());
    double latencyS = backend_.queue().jobLatencyS(
        atTimeH, durUs_, config_.shots,
        (dataset_ ? 3 : 2) * groupCount, rng_);
    job.latencyH = latencyS / 3600.0;
    job.pCorrect = computePCorrect(atTimeH, task.sample);
    job.jobRng = rng_.fork(++jobCounter_);
    return job;
}

ClientNode::Processed
ClientNode::finishProcess(PendingJob &job, TaskPool *pool)
{
    Processed out;
    out.latencyH = job.latencyH;
    double completionH = job.submitH + job.latencyH;

    const Sample &s = samples_[job.task.sample];
    EnergyEstimate center;
    if (dataset_)
        center = s.estimator.estimate(
            backend_, s.compiled, job.task.params, config_.shots,
            completionH, job.jobRng, config_.shotMode,
            config_.readoutMitigation, pool);
    GradientEstimate g = gradientParamShift(
        s.estimator, backend_, s.compiled, job.task.params,
        job.task.paramIndex, config_.shots, completionH, job.jobRng,
        config_.shotMode, config_.shiftMode, config_.readoutMitigation,
        pool);
    if (dataset_)
        g.gradient *= 2.0 * (center.energy - s.label) /
                      static_cast<double>(samples_.size());

    out.result.paramIndex = job.task.paramIndex;
    out.result.gradient = g.gradient;
    out.result.pCorrect = job.pCorrect;
    out.result.clientId = id_;
    out.result.version = job.task.version;
    out.result.completionTimeH = completionH;
    out.result.circuitsRun = center.circuitsRun + g.circuitsRun;
    return out;
}

double
ClientNode::evaluateEnergy(const std::vector<double> &params,
                           double atTimeH, TaskPool *pool)
{
    double acc = 0.0;
    for (const Sample &s : samples_) {
        EnergyEstimate e = s.estimator.estimate(
            backend_, s.compiled, params, config_.shots, atTimeH, rng_,
            config_.shotMode, config_.readoutMitigation, pool);
        if (!dataset_)
            return e.energy;
        acc += (e.energy - s.label) * (e.energy - s.label);
    }
    return acc / static_cast<double>(samples_.size());
}

} // namespace eqc
