#include "core/eqc.h"

#include <cmath>

#include "common/logging.h"
#include "core/runtime.h"
#include "vqa/expectation.h"

namespace eqc {

std::vector<double>
TrainingTrace::idealEnergySeries() const
{
    std::vector<double> out;
    out.reserve(epochs.size());
    for (const EpochRecord &r : epochs)
        out.push_back(r.energyIdeal);
    return out;
}

int
convergenceEpoch(const std::vector<double> &series, double target,
                 double tolAbs, int window)
{
    const int n = static_cast<int>(series.size());
    if (n == 0 || window < 1)
        return -1;

    // Trailing-window rolling mean at each index.
    std::vector<double> rolling(n, 0.0);
    double acc = 0.0;
    for (int i = 0; i < n; ++i) {
        acc += series[i];
        if (i >= window)
            acc -= series[i - window];
        int count = std::min(i + 1, window);
        rolling[i] = acc / count;
    }
    // First index from which the rolling mean stays within tolerance.
    for (int start = 0; start < n; ++start) {
        bool ok = true;
        for (int i = start; i < n; ++i) {
            if (std::fabs(rolling[i] - target) > tolAbs) {
                ok = false;
                break;
            }
        }
        if (ok)
            return start;
    }
    return -1;
}

double
finalEnergy(const TrainingTrace &trace, int lastK)
{
    const auto &epochs = trace.epochs;
    if (epochs.empty())
        return 0.0;
    int k = std::min<int>(lastK, static_cast<int>(epochs.size()));
    double s = 0.0;
    for (int i = static_cast<int>(epochs.size()) - k;
         i < static_cast<int>(epochs.size()); ++i)
        s += epochs[i].energyDevice;
    return s / k;
}

double
finalIdealEnergy(const TrainingTrace &trace, int lastK)
{
    const auto &epochs = trace.epochs;
    if (epochs.empty())
        return 0.0;
    int k = std::min<int>(lastK, static_cast<int>(epochs.size()));
    double s = 0.0;
    for (int i = static_cast<int>(epochs.size()) - k;
         i < static_cast<int>(epochs.size()); ++i)
        s += epochs[i].energyIdeal;
    return s / k;
}

double
errorVsReference(double energy, double reference)
{
    if (reference == 0.0)
        panic("errorVsReference: zero reference energy");
    return std::fabs(energy - reference) / std::fabs(reference) * 100.0;
}

double
estimateAnsatzMinimum(const VqaProblem &problem, uint64_t seed)
{
    // Exact expectations on the noiseless device draw no random
    // numbers, so both stages are pure functions of the problem.
    const std::vector<Device> ideal = {
        makeIdealDevice(problem.ansatz.numQubits())};
    EqcOptions o;
    o.master.epochs = 350;
    o.master.learningRate = 0.05;
    o.client.shotMode = ShotMode::Exact;
    o.maxHours = 1e9;
    o.seed = seed;
    o.recordIdealEnergy = false;
    o.recordWeights = false;
    Runtime runtime;
    VqaProblem refined = problem;
    refined.initialParams =
        runtime.submit(problem, ideal, o).take().finalParams;
    o.master.epochs = 200;
    o.master.learningRate = 0.01;
    const EqcTrace fine = runtime.submit(refined, ideal, o).take();
    return idealEnergy(problem.ansatz, problem.hamiltonian,
                       fine.finalParams);
}

} // namespace eqc
