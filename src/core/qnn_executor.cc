#include "core/qnn_executor.h"

#include <functional>
#include <memory>

#include "common/logging.h"
#include "sim/event_queue.h"
#include "vqa/parameter_shift.h"

namespace eqc {

namespace {

/**
 * QPU-attached worker for QNN tasks. Holds one compiled estimator per
 * dataset sample (each sample has a different encoding prefix).
 */
class QnnClient
{
  public:
    QnnClient(int id, Device device, const QnnProblem &problem,
              uint64_t seed, const QnnOptions &options)
        : id_(id), device_(std::move(device)), problem_(problem),
          options_(options), backend_(device_, seed),
          rng_(Rng(seed).fork("qnn-client:" + device_.name))
    {
        for (const QnnSample &s : problem.dataset) {
            PerSample ps{ExpectationEstimator(problem.observable,
                                              problem.circuitFor(s)),
                         {}};
            ps.compiled = ps.est.compileFor(device_.coupling);
            samples_.push_back(std::move(ps));
        }
        durUs_ = circuitDurationUs(
            samples_[0].compiled[0].compact, device_.baseCalibration,
            samples_[0].compiled[0].compactToPhysical);
    }

    struct Out
    {
        double gradient = 0.0;
        double pCorrect = 1.0;
        double latencyH = 0.0;
    };

    /** Compute dl(x_d)/dtheta_i at the given submission time. */
    Out
    process(int paramIndex, int dataIndex,
            const std::vector<double> &params, double atTimeH)
    {
        PerSample &ps = samples_[dataIndex];
        const int groups = static_cast<int>(ps.compiled.size());
        Out out;
        // One job = center + forward + backward circuits.
        double latencyS = backend_.queue().jobLatencyS(
            atTimeH, durUs_, options_.shots, 3 * groups, rng_);
        out.latencyH = latencyS / 3600.0;
        double tH = atTimeH + out.latencyH;

        EnergyEstimate center =
            ps.est.estimate(backend_, ps.compiled, params,
                            options_.shots, tH, rng_,
                            options_.shotMode);
        GradientEstimate dO = gradientParamShift(
            ps.est, backend_, ps.compiled, params, paramIndex,
            options_.shots, tH, rng_, options_.shotMode,
            ShiftMode::WholeParameter);
        double residual =
            center.energy - problem_.dataset[dataIndex].label;
        out.gradient = 2.0 * residual * dO.gradient;

        out.pCorrect = pCorrect(circuitQuality(ps.compiled[0]),
                                *backend_.reportedCalibration(atTimeH),
                                options_.pCorrectMode);
        return out;
    }

    const Device &device() const { return device_; }

  private:
    struct PerSample
    {
        ExpectationEstimator est;
        std::vector<TranspiledCircuit> compiled;
    };

    int id_;
    Device device_;
    const QnnProblem &problem_;
    QnnOptions options_;
    SimulatedQpu backend_;
    Rng rng_;
    std::vector<PerSample> samples_;
    double durUs_ = 0.0;
};

/** Cyclic (parameter, data) task source + weighted-ASGD sink. */
class QnnMaster
{
  public:
    QnnMaster(const QnnProblem &problem, const QnnOptions &options)
        : problem_(problem), options_(options),
          params_(problem.initialParams),
          normalizer_(options.weightBounds)
    {
        if (problem.dataset.empty())
            fatal("QnnMaster: empty dataset");
    }

    bool
    done() const
    {
        uint64_t perEpoch =
            static_cast<uint64_t>(problem_.numParams()) *
            problem_.dataset.size();
        return received_ / perEpoch >=
               static_cast<uint64_t>(options_.epochs);
    }

    int
    epochsCompleted() const
    {
        uint64_t perEpoch =
            static_cast<uint64_t>(problem_.numParams()) *
            problem_.dataset.size();
        return static_cast<int>(received_ / perEpoch);
    }

    std::pair<int, int>
    nextTask()
    {
        auto task = std::make_pair(nextParam_, nextData_);
        ++nextData_;
        if (nextData_ >= static_cast<int>(problem_.dataset.size())) {
            nextData_ = 0;
            nextParam_ = (nextParam_ + 1) % problem_.numParams();
        }
        return task;
    }

    void
    onResult(int clientId, int paramIndex, double gradient,
             double pCorrectValue)
    {
        normalizer_.update(clientId, pCorrectValue);
        double w = normalizer_.bounds().enabled()
                       ? normalizer_.weightFor(clientId)
                       : 1.0;
        // Dataset-average accumulation: each contribution carries 1/n.
        params_[paramIndex] -=
            w * options_.learningRate * gradient /
            static_cast<double>(problem_.dataset.size());
        ++received_;
    }

    const std::vector<double> &params() const { return params_; }

  private:
    const QnnProblem &problem_;
    QnnOptions options_;
    std::vector<double> params_;
    WeightNormalizer normalizer_;
    int nextParam_ = 0;
    int nextData_ = 0;
    uint64_t received_ = 0;
};

} // namespace

QnnTrace
runQnnEqcVirtual(const QnnProblem &problem,
                 const std::vector<Device> &devices,
                 const QnnOptions &options)
{
    QnnTrace trace;
    trace.label = "EQC-QNN";

    std::vector<std::unique_ptr<QnnClient>> clients;
    int id = 0;
    for (const Device &d : devices) {
        if (d.numQubits < problem.numQubits) {
            warn("runQnnEqcVirtual: skipping '" + d.name + "'");
            continue;
        }
        clients.push_back(std::make_unique<QnnClient>(
            id, d, problem, options.seed, options));
        ++id;
    }
    if (clients.empty())
        fatal("runQnnEqcVirtual: no eligible devices");

    QnnMaster master(problem, options);
    Simulation sim;
    double lastCompletionH = 0.0;

    auto recordEpochs = [&](double tH) {
        while (static_cast<int>(trace.epochs.size()) <
                   master.epochsCompleted() &&
               static_cast<int>(trace.epochs.size()) < options.epochs) {
            QnnEpochRecord rec;
            rec.epoch = static_cast<int>(trace.epochs.size());
            rec.timeH = tH;
            rec.mseIdeal = qnnMseIdeal(problem, master.params());
            trace.epochs.push_back(rec);
        }
    };

    std::function<void(std::size_t)> startClient =
        [&](std::size_t ci) {
        if (master.done() || sim.now() > options.maxHours)
            return;
        auto [paramIndex, dataIndex] = master.nextTask();
        std::vector<double> params = master.params();
        QnnClient::Out out = clients[ci]->process(paramIndex, dataIndex,
                                                  params, sim.now());
        sim.schedule(out.latencyH, [&, ci, paramIndex, out] {
            if (master.done())
                return;
            master.onResult(static_cast<int>(ci), paramIndex,
                            out.gradient, out.pCorrect);
            lastCompletionH = sim.now();
            ++trace.jobsPerDevice[clients[ci]->device().name];
            recordEpochs(sim.now());
            startClient(ci);
        });
    };

    for (std::size_t ci = 0; ci < clients.size(); ++ci)
        sim.scheduleAt(0.0, [&, ci] { startClient(ci); });
    sim.run();

    trace.terminated = !master.done();
    trace.finalParams = master.params();
    trace.totalHours = lastCompletionH;
    trace.epochsPerHour =
        trace.totalHours > 0.0
            ? static_cast<double>(trace.epochs.size()) / trace.totalHours
            : 0.0;
    return trace;
}

QnnTrace
trainQnnSingleDevice(const QnnProblem &problem, const Device &device,
                     const QnnOptions &options)
{
    QnnTrace trace = runQnnEqcVirtual(problem, {device}, options);
    trace.label = device.name;
    return trace;
}

} // namespace eqc
