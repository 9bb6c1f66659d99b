/**
 * @file
 * Tests of QNN training (paper Sec. III-A, dataset-level tasks): a
 * VqaProblem with a dataset runs as an ordinary EQC job through
 * Runtime::submit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "circuit/ansatz.h"
#include "core/runtime.h"
#include "device/catalog.h"
#include "vqa/expectation.h"
#include "vqa/problem.h"

namespace eqc {
namespace {

/** The defaults the QNN tests train with. */
EqcOptions
qnnOptions(int epochs, uint64_t seed)
{
    EqcOptions o;
    o.master.epochs = epochs;
    o.master.learningRate = 0.2;
    o.seed = seed;
    return o;
}

TEST(QnnDataset, SineClassifierShape)
{
    VqaProblem p = makeSineClassifier(12, 5);
    EXPECT_EQ(p.ansatz.numQubits(), 2);
    EXPECT_EQ(p.numParams(), 8);
    EXPECT_EQ(p.numSamples(), 12);
    for (const QnnSample &s : p.dataset) {
        EXPECT_EQ(s.features.size(), 2u);
        EXPECT_TRUE(s.label == 0.8 || s.label == -0.8);
    }
}

TEST(QnnDataset, CircuitForEncodesFeatures)
{
    VqaProblem p = makeSineClassifier(4, 5);
    QuantumCircuit c = p.circuitFor(0);
    // Two encoding RYs (constant) before the ansatz.
    ASSERT_GE(c.ops().size(), 2u);
    EXPECT_EQ(c.ops()[0].type, GateType::RY);
    EXPECT_FALSE(c.ops()[0].params[0].isSymbolic());
    EXPECT_DOUBLE_EQ(c.ops()[0].params[0].offset,
                     p.dataset[0].features[0]);
    EXPECT_EQ(c.counts().measurements, 2);
}

TEST(QnnDataset, NoDatasetIsOneSampleOfTheAnsatz)
{
    VqaProblem p = makeHeisenbergVqe();
    EXPECT_EQ(p.numSamples(), 1);
    EXPECT_EQ(p.circuitFor(0).ops().size(), p.ansatz.ops().size());
    EXPECT_EQ(idealLoss(p, p.initialParams),
              idealEnergy(p.ansatz, p.hamiltonian, p.initialParams));
}

TEST(QnnDataset, PredictionsBounded)
{
    VqaProblem p = makeSineClassifier(8, 5);
    for (int d = 0; d < p.numSamples(); ++d) {
        double y = qnnPredictIdeal(p, d, p.initialParams);
        EXPECT_GE(y, -1.0 - 1e-9);
        EXPECT_LE(y, 1.0 + 1e-9);
    }
}

TEST(QnnDataset, MseOfPerfectPredictorIsZero)
{
    // A dataset whose labels equal the model's own predictions.
    VqaProblem p = makeSineClassifier(6, 5);
    for (int d = 0; d < p.numSamples(); ++d)
        p.dataset[d].label = qnnPredictIdeal(p, d, p.initialParams);
    EXPECT_NEAR(idealLoss(p, p.initialParams), 0.0, 1e-12);
}

TEST(QnnEqc, SingleDeviceTrainingReducesMse)
{
    VqaProblem p = makeSineClassifier(8, 5);
    EqcOptions o = qnnOptions(25, 2);
    o.client.shotMode = ShotMode::Exact;
    double before = idealLoss(p, p.initialParams);
    Runtime rt;
    EqcTrace t = rt.submit(p, {deviceByName("ibmq_bogota")}, o).take();
    ASSERT_EQ(t.epochs.size(), 25u);
    double after = t.epochs.back().energyIdeal;
    EXPECT_LT(after, 0.6 * before);
}

TEST(QnnEqc, EnsembleTrainingConvergesAndIsFaster)
{
    VqaProblem p = makeSineClassifier(8, 5);
    EqcOptions o = qnnOptions(15, 2);
    Runtime rt;
    JobHandle single = rt.submit(p, {deviceByName("ibmq_bogota")}, o);
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmq_manila"),
                                   deviceByName("ibmq_quito"),
                                   deviceByName("ibmq_belem")};
    JobHandle ensemble = rt.submit(p, devices, o);
    rt.runAll();
    const EqcTrace &ens = ensemble.get();
    ASSERT_EQ(ens.epochs.size(), 15u);
    EXPECT_GT(ens.epochsPerHour, 1.5 * single.get().epochsPerHour);
    EXPECT_LT(ens.epochs.back().energyIdeal,
              ens.epochs.front().energyIdeal);
    EXPECT_EQ(ens.jobsPerDevice.size(), 4u);
}

TEST(QnnEqc, DeterministicForSameSeed)
{
    VqaProblem p = makeSineClassifier(6, 5);
    EqcOptions o = qnnOptions(5, 9);
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmqx2")};
    Runtime rt;
    EqcTrace a = rt.submit(p, devices, o).take();
    EqcTrace b = rt.submit(p, devices, o).take();
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i)
        EXPECT_DOUBLE_EQ(a.epochs[i].energyIdeal, b.epochs[i].energyIdeal);
}

TEST(QnnEqc, BitIdenticalAcrossEngineThreads)
{
    VqaProblem p = makeSineClassifier(6, 5);
    EqcOptions o = qnnOptions(4, 11);
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmq_manila"),
                                   deviceByName("ibmqx2")};
    Runtime rt;
    o.engineThreads = 1;
    EqcTrace ref = rt.submit(p, devices, o).take();
    ASSERT_EQ(ref.epochs.size(), 4u);
    for (int threads : {2, 4}) {
        o.engineThreads = threads;
        EqcTrace t = rt.submit(p, devices, o).take();
        ASSERT_EQ(t.epochs.size(), ref.epochs.size());
        for (std::size_t i = 0; i < t.epochs.size(); ++i)
            EXPECT_EQ(t.epochs[i].energyIdeal, ref.epochs[i].energyIdeal);
        EXPECT_EQ(t.finalParams, ref.finalParams);
    }
}

TEST(QnnEqc, WeightingRunsWithinBounds)
{
    VqaProblem p = makeSineClassifier(6, 5);
    EqcOptions o = qnnOptions(8, 3);
    o.master.weightBounds = {0.5, 1.5};
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmqx2"),
                                   deviceByName("ibmq_quito")};
    Runtime rt;
    EqcTrace t = rt.submit(p, devices, o).take();
    ASSERT_EQ(t.epochs.size(), 8u);
    EXPECT_LT(t.epochs.back().energyIdeal, t.epochs.front().energyIdeal * 2);
}

TEST(QnnEqc, SkipsTooSmallDevices)
{
    // A 6-qubit model: 5-qubit Bogota cannot run it, 7-qubit
    // Casablanca can.
    VqaProblem p;
    p.name = "qnn-6q";
    p.ansatz = hardwareEfficientAnsatz(6);
    p.hamiltonian = PauliSum(6);
    p.hamiltonian.add(1.0, PauliString::single(6, 0, Pauli::Z));
    p.dataset = {{{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, 0.5},
                 {{-0.1, -0.2, -0.3, -0.4, -0.5, -0.6}, -0.5}};
    p.initialParams.assign(p.numParams(), 0.1);
    EqcOptions o = qnnOptions(1, 4);
    Runtime rt;
    EqcTrace t = rt.submit(p,
                           {deviceByName("ibmq_bogota"),
                            deviceByName("ibmq_casablanca")},
                           o)
                     .take();
    ASSERT_EQ(t.epochs.size(), 1u);
    ASSERT_EQ(t.jobsPerDevice.size(), 1u);
    EXPECT_EQ(t.jobsPerDevice.count("ibmq_casablanca"), 1u);
}

TEST(QnnEqc, ServiceEngineRejectsDataset)
{
    VqaProblem p = makeSineClassifier(4, 5);
    EqcOptions o = qnnOptions(1, 1);
    o.engine = "service";
    Runtime rt;
    JobHandle job = rt.submit(p, {deviceByName("ibmq_bogota")}, o);
    EXPECT_THROW(job.get(), std::invalid_argument);
}

} // namespace
} // namespace eqc
