/**
 * @file
 * VQA problem bundles: ansatz + Hamiltonian + initial parameters, and
 * for a quantum neural network (QNN) a labelled dataset. The factories
 * reproduce the paper's evaluation workloads (Sec. V): the 4-qubit
 * Heisenberg VQE of Fig. 8 and the 4-node ring MaxCut QAOA of Fig. 10,
 * plus a small QNN classifier for the third VQA family of Sec. III-A.
 *
 * A QNN is an angle-encoding regressor/classifier: RY(x_j) feature
 * encoding, a trainable ansatz, and the Hamiltonian read out as the
 * prediction <O>(x; theta) in [-1, 1]; the loss is the dataset MSE.
 * EQC parallelizes it *at the dataset level*: one task is one
 * (parameter, data point) pair, and the master accumulates
 *
 *   dL/dtheta = (1/n) sum_d dl(x_d; theta)/dtheta
 *
 * asynchronously, through the same master/client protocol as VQE.
 */

#ifndef EQC_VQA_PROBLEM_H
#define EQC_VQA_PROBLEM_H

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "quantum/pauli.h"

namespace eqc {

/** One labelled QNN sample. */
struct QnnSample
{
    /** Feature vector; one angle per qubit. */
    std::vector<double> features;
    /** Target value in [-1, 1]. */
    double label = 0.0;
};

/** One variational optimization problem instance. */
struct VqaProblem
{
    std::string name;
    QuantumCircuit ansatz;   ///< parameterized circuit with measurements
    PauliSum hamiltonian;    ///< objective observable (QNN: readout)
    std::vector<double> initialParams;
    int shots = 8192;        ///< the paper's shot count
    /** QNN training set; empty for VQE and QAOA. */
    std::vector<QnnSample> dataset;

    /** Number of trainable parameters. */
    int numParams() const { return ansatz.numParams(); }

    /** Dataset size; 1 when there is no dataset. */
    int numSamples() const
    {
        return dataset.empty() ? 1 : static_cast<int>(dataset.size());
    }

    /**
     * The circuit that sample @p d trains: RY(feature_j) encoding on
     * qubit j, the ansatz, and measurement of every qubit. Without a
     * dataset this is the ansatz unchanged.
     */
    QuantumCircuit circuitFor(int d) const;
};

/**
 * 4-qubit Heisenberg VQE (paper Sec. V-B): hardware-efficient 16-param
 * ansatz, square-lattice J=B=1 Hamiltonian, 8192 shots. Initial
 * parameters are drawn uniformly from [-pi/4, pi/4) with the given seed.
 */
VqaProblem makeHeisenbergVqe(uint64_t initSeed = 7);

/**
 * 4-node ring MaxCut QAOA (paper Sec. V-E): p=1, 2 parameters, 8192
 * shots. Initial parameters drawn uniformly from [0.1, 0.6).
 */
VqaProblem makeRingMaxCutQaoa(uint64_t initSeed = 7);

/**
 * A small 1-feature binary classification task: x in [-pi, pi] labelled
 * by the sign of sin(x), scaled to +-0.8, read out as <Z_0>. Learnable
 * to near-zero MSE by the 2-qubit hardware-efficient ansatz.
 *
 * @param numSamples dataset size
 * @param seed dataset + init-parameter seed
 */
VqaProblem makeSineClassifier(int numSamples = 12, uint64_t seed = 5);

/** QNN prediction <O>(x_d; theta) of sample @p d, ideal simulator. */
double qnnPredictIdeal(const VqaProblem &problem, int d,
                       const std::vector<double> &params);

/**
 * The training loss on the ideal simulator: <H> without a dataset,
 * the dataset MSE with one.
 */
double idealLoss(const VqaProblem &problem,
                 const std::vector<double> &params);

} // namespace eqc

#endif // EQC_VQA_PROBLEM_H
