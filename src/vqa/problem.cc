#include "vqa/problem.h"

#include <cmath>

#include "circuit/ansatz.h"
#include "common/logging.h"
#include "common/rng.h"
#include "hamiltonian/heisenberg.h"
#include "hamiltonian/maxcut.h"
#include "quantum/types.h"
#include "vqa/expectation.h"

namespace eqc {

QuantumCircuit
VqaProblem::circuitFor(int d) const
{
    if (dataset.empty())
        return ansatz;
    const int n = ansatz.numQubits();
    const QnnSample &sample = dataset[d];
    if (static_cast<int>(sample.features.size()) != n)
        fatal("VqaProblem::circuitFor: feature count != qubit count");
    QuantumCircuit c(n, numParams());
    for (int q = 0; q < n; ++q)
        c.ry(q, ParamExpr::constant(sample.features[q]));
    c.append(stripMeasurements(ansatz));
    c.measureAll();
    return c;
}

VqaProblem
makeHeisenbergVqe(uint64_t initSeed)
{
    VqaProblem p;
    p.name = "heisenberg-vqe-4q";
    p.ansatz = hardwareEfficientAnsatz(4);
    p.hamiltonian = heisenbergHamiltonian(4, squareLattice4(), 1.0, 1.0);
    Rng rng = Rng(initSeed).fork("vqe-init");
    p.initialParams.resize(p.ansatz.numParams());
    for (double &v : p.initialParams)
        v = rng.uniform(-kPi, kPi);
    p.shots = 8192;
    return p;
}

VqaProblem
makeRingMaxCutQaoa(uint64_t initSeed)
{
    VqaProblem p;
    p.name = "maxcut-qaoa-ring4";
    MaxCutInstance inst = ringMaxCut4();
    p.ansatz = qaoaAnsatz(inst.numNodes, inst.edges, 1);
    p.hamiltonian = maxcutHamiltonian(inst);
    Rng rng = Rng(initSeed).fork("qaoa-init");
    p.initialParams.resize(p.ansatz.numParams());
    for (double &v : p.initialParams)
        v = rng.uniform(0.1, 0.6);
    p.shots = 8192;
    return p;
}

VqaProblem
makeSineClassifier(int numSamples, uint64_t seed)
{
    VqaProblem p;
    p.name = "qnn-sine-classifier";
    p.ansatz = hardwareEfficientAnsatz(2);
    p.hamiltonian = PauliSum(2);
    p.hamiltonian.add(1.0, PauliString::single(2, 0, Pauli::Z));

    for (int i = 0; i < numSamples; ++i) {
        double x = -kPi + (2.0 * kPi) * (i + 0.5) / numSamples;
        QnnSample s;
        // Feature on both qubits (redundant encoding helps the small
        // ansatz); labels are the sign of sin(x), shrunk to +-0.8 so
        // the target is representable without saturating rotations.
        s.features = {x, x / 2.0};
        s.label = std::sin(x) >= 0.0 ? 0.8 : -0.8;
        p.dataset.push_back(s);
    }

    Rng init = Rng(seed).fork("qnn-init");
    p.initialParams.resize(p.ansatz.numParams());
    for (double &v : p.initialParams)
        v = init.uniform(-0.5, 0.5);
    p.shots = 8192;
    return p;
}

double
qnnPredictIdeal(const VqaProblem &problem, int d,
                const std::vector<double> &params)
{
    return idealEnergy(problem.circuitFor(d), problem.hamiltonian, params);
}

double
idealLoss(const VqaProblem &problem, const std::vector<double> &params)
{
    if (problem.dataset.empty())
        return idealEnergy(problem.ansatz, problem.hamiltonian, params);
    double acc = 0.0;
    for (int d = 0; d < problem.numSamples(); ++d) {
        double r = qnnPredictIdeal(problem, d, params) -
                   problem.dataset[d].label;
        acc += r * r;
    }
    return acc / static_cast<double>(problem.dataset.size());
}

} // namespace eqc
