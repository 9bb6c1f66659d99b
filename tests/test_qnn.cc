#include <gtest/gtest.h>

#include <cmath>

#include "core/qnn_executor.h"
#include "device/catalog.h"
#include "vqa/qnn.h"

namespace eqc {
namespace {

TEST(QnnProblem, SineClassifierShape)
{
    QnnProblem p = makeSineClassifier(12, 5);
    EXPECT_EQ(p.numQubits, 2);
    EXPECT_EQ(p.numParams(), 8);
    EXPECT_EQ(p.dataset.size(), 12u);
    for (const QnnSample &s : p.dataset) {
        EXPECT_EQ(s.features.size(), 2u);
        EXPECT_TRUE(s.label == 0.8 || s.label == -0.8);
    }
}

TEST(QnnProblem, CircuitForEncodesFeatures)
{
    QnnProblem p = makeSineClassifier(4, 5);
    QuantumCircuit c = p.circuitFor(p.dataset[0]);
    // Two encoding RYs (constant) before the ansatz.
    ASSERT_GE(c.ops().size(), 2u);
    EXPECT_EQ(c.ops()[0].type, GateType::RY);
    EXPECT_FALSE(c.ops()[0].params[0].isSymbolic());
    EXPECT_DOUBLE_EQ(c.ops()[0].params[0].offset,
                     p.dataset[0].features[0]);
    EXPECT_EQ(c.counts().measurements, 2);
}

TEST(QnnProblem, PredictionsBounded)
{
    QnnProblem p = makeSineClassifier(8, 5);
    for (const QnnSample &s : p.dataset) {
        double y = qnnPredictIdeal(p, s, p.initialParams);
        EXPECT_GE(y, -1.0 - 1e-9);
        EXPECT_LE(y, 1.0 + 1e-9);
    }
}

TEST(QnnProblem, MseOfPerfectPredictorIsZero)
{
    // A dataset whose labels equal the model's own predictions.
    QnnProblem p = makeSineClassifier(6, 5);
    for (QnnSample &s : p.dataset)
        s.label = qnnPredictIdeal(p, s, p.initialParams);
    EXPECT_NEAR(qnnMseIdeal(p, p.initialParams), 0.0, 1e-12);
}

TEST(QnnEqc, SingleDeviceTrainingReducesMse)
{
    QnnProblem p = makeSineClassifier(8, 5);
    QnnOptions o;
    o.epochs = 25;
    o.shotMode = ShotMode::Exact;
    o.seed = 2;
    double before = qnnMseIdeal(p, p.initialParams);
    QnnTrace t = runQnnEqcVirtual(p, {deviceByName("ibmq_bogota")}, o);
    ASSERT_EQ(t.epochs.size(), 25u);
    double after = t.epochs.back().mseIdeal;
    EXPECT_LT(after, 0.6 * before);
}

TEST(QnnEqc, EnsembleTrainingConvergesAndIsFaster)
{
    QnnProblem p = makeSineClassifier(8, 5);
    QnnOptions o;
    o.epochs = 15;
    o.seed = 2;
    QnnTrace single =
        runQnnEqcVirtual(p, {deviceByName("ibmq_bogota")}, o);
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmq_manila"),
                                   deviceByName("ibmq_quito"),
                                   deviceByName("ibmq_belem")};
    QnnTrace ens = runQnnEqcVirtual(p, devices, o);
    ASSERT_EQ(ens.epochs.size(), 15u);
    EXPECT_GT(ens.epochsPerHour, 1.5 * single.epochsPerHour);
    EXPECT_LT(ens.epochs.back().mseIdeal,
              ens.epochs.front().mseIdeal);
    EXPECT_EQ(ens.jobsPerDevice.size(), 4u);
}

TEST(QnnEqc, DeterministicForSameSeed)
{
    QnnProblem p = makeSineClassifier(6, 5);
    QnnOptions o;
    o.epochs = 5;
    o.seed = 9;
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmqx2")};
    QnnTrace a = runQnnEqcVirtual(p, devices, o);
    QnnTrace b = runQnnEqcVirtual(p, devices, o);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i)
        EXPECT_DOUBLE_EQ(a.epochs[i].mseIdeal, b.epochs[i].mseIdeal);
}

TEST(QnnEqc, WeightingRunsWithinBounds)
{
    QnnProblem p = makeSineClassifier(6, 5);
    QnnOptions o;
    o.epochs = 8;
    o.weightBounds = {0.5, 1.5};
    o.seed = 3;
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmqx2"),
                                   deviceByName("ibmq_quito")};
    QnnTrace t = runQnnEqcVirtual(p, devices, o);
    ASSERT_EQ(t.epochs.size(), 8u);
    EXPECT_LT(t.epochs.back().mseIdeal, t.epochs.front().mseIdeal * 2);
}

TEST(QnnEqc, SkipsTooSmallDevices)
{
    QnnProblem p = makeSineClassifier(4, 5);
    p.numQubits = 6; // pretend a 6-qubit model
    // (dataset features no longer match, but eligibility is checked
    // before compilation for the undersized device)
    std::vector<Device> devices = {deviceByName("ibmq_casablanca")};
    // 7-qubit Casablanca is eligible; 5-qubit Bogota would be skipped.
    EXPECT_GE(devices[0].numQubits, p.numQubits);
}

} // namespace
} // namespace eqc
