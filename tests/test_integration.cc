/**
 * @file
 * Campaign-level integration tests: miniature versions of the paper's
 * headline experiments asserting the qualitative results the figures
 * report. These are the repository's regression net for the benches.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/runtime.h"
#include "device/catalog.h"
#include "hamiltonian/exact.h"
#include "support/run_helpers.h"
#include "vqa/problem.h"

namespace eqc {
namespace {

TEST(Integration, EqcErrorCloseToBestDeviceAndBelowWorst)
{
    // Mini Fig. 6: 50 epochs, best (bogota) / worst (x2) devices vs
    // the weighted ensemble of six.
    VqaProblem p = makeHeisenbergVqe();
    EqcOptions so;
    so.master.epochs = 50;
    so.seed = 2;
    EqcTrace best = runVirtual(p, {deviceByName("ibmq_bogota")}, so);
    EqcTrace worst = runVirtual(p, {deviceByName("ibmqx2")}, so);

    std::vector<Device> devices = {
        deviceByName("ibmq_bogota"), deviceByName("ibmq_manila"),
        deviceByName("ibmq_quito"),  deviceByName("ibmq_belem"),
        deviceByName("ibmq_lima"),   deviceByName("ibmqx2")};
    EqcOptions eo;
    eo.master.epochs = 50;
    eo.master.weightBounds = {0.5, 1.5};
    eo.seed = 2;
    EqcTrace eqc = runVirtual(p, devices, eo);

    const double ansatzMin = -6.5715;
    double errBest =
        errorVsReference(finalIdealEnergy(best, 10), ansatzMin);
    double errWorst =
        errorVsReference(finalIdealEnergy(worst, 10), ansatzMin);
    double errEqc =
        errorVsReference(finalIdealEnergy(eqc, 10), ansatzMin);

    // The paper's abstract claim: error very close to the most
    // performant device, i.e. well below the noisy members.
    EXPECT_LT(errEqc, errWorst);
    EXPECT_LT(errEqc, errBest + 0.5); // within 0.5pp of the best
}

TEST(Integration, EqcThroughputIsNearSumOfMembers)
{
    VqaProblem p = makeHeisenbergVqe();
    std::vector<const char *> names = {"ibmq_bogota", "ibmq_manila",
                                       "ibmq_quito"};
    double sumRates = 0.0;
    for (const char *n : names) {
        EqcOptions o;
        o.master.epochs = 10;
        o.seed = 4;
        sumRates += runVirtual(p, {deviceByName(n)}, o).epochsPerHour;
    }
    std::vector<Device> devices;
    for (const char *n : names)
        devices.push_back(deviceByName(n));
    EqcOptions eo;
    eo.master.epochs = 10;
    eo.seed = 4;
    EqcTrace eqc = runVirtual(p, devices, eo);
    // Asynchronous pooling approaches the sum of member throughputs.
    EXPECT_GT(eqc.epochsPerHour, 0.6 * sumRates);
    EXPECT_LT(eqc.epochsPerHour, 1.4 * sumRates);
}

TEST(Integration, WeightingImprovesEnsembleWithBadMember)
{
    // Mini Fig. 9 with a deliberately degraded member: the weighted
    // ensemble must end at least as close to the optimum as the
    // unweighted one.
    VqaProblem p = makeHeisenbergVqe();
    Device bad = deviceByName("ibmqx2");
    bad.drift.errorDriftPerHour = 0.2;
    for (auto &q : bad.baseCalibration.qubits)
        q.coherentRxRad *= 3.0;
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmq_manila"),
                                   deviceByName("ibmq_quito"), bad};

    auto run = [&](WeightBounds b) {
        EqcOptions o;
        o.master.epochs = 60;
        o.master.weightBounds = b;
        o.seed = 6;
        return runVirtual(p, devices, o);
    };
    EqcTrace unweighted = run({1.0, 1.0});
    EqcTrace weighted = run({0.5, 1.5});
    const double ansatzMin = -6.5715;
    double errU =
        errorVsReference(finalIdealEnergy(unweighted, 10), ansatzMin);
    double errW =
        errorVsReference(finalIdealEnergy(weighted, 10), ansatzMin);
    EXPECT_LE(errW, errU + 0.05);
}

TEST(Integration, QaoaEnsembleReachesP1Optimum)
{
    // Mini Fig. 11/12: the ring-MaxCut QAOA must reach the 0.75
    // approximation plateau on a noisy ensemble.
    VqaProblem p = makeRingMaxCutQaoa();
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmq_quito"),
                                   deviceByName("ibmq_belem")};
    EqcOptions o;
    o.master.epochs = 50;
    o.client.shiftMode = ShiftMode::PerOccurrence;
    o.seed = 2;
    EqcTrace t = runVirtual(p, devices, o);
    double idealCostPerEdge =
        idealEnergy(p.ansatz, p.hamiltonian, t.finalParams) / 4.0;
    EXPECT_LT(idealCostPerEdge, -0.70); // p=1 limit is -0.75
}

TEST(Integration, TwoWeekTerminationMatchesPaper)
{
    // Manhattan cannot finish 250 epochs inside two weeks; Bogota can
    // finish 50 epochs in hours.
    VqaProblem p = makeHeisenbergVqe();
    EqcOptions o;
    o.master.epochs = 250;
    o.seed = 1;
    EqcTrace man = runVirtual(p, {deviceByName("ibmq_manhattan")}, o);
    EXPECT_TRUE(man.terminated);
    EXPECT_LT(man.epochs.size(), 40u);

    o.master.epochs = 50;
    EqcTrace bog = runVirtual(p, {deviceByName("ibmq_bogota")}, o);
    EXPECT_FALSE(bog.terminated);
    EXPECT_LT(bog.totalHours, 24.0);
}

TEST(Integration, EqcHonorsTerminationRule)
{
    // An ensemble made only of glacially slow devices must hit the
    // time budget before finishing and report a truncated trace.
    VqaProblem p = makeHeisenbergVqe();
    std::vector<Device> devices = {deviceByName("ibmq_manhattan")};
    EqcOptions o;
    o.master.epochs = 250;
    o.maxHours = 48.0;
    o.seed = 1;
    EqcTrace t = runVirtual(p, devices, o);
    EXPECT_TRUE(t.terminated);
    EXPECT_LT(t.epochs.size(), 250u);
    EXPECT_LE(t.totalHours, 48.0 + 2.0); // in-flight job may overshoot
}

TEST(Integration, GoldenReplayAcrossComponents)
{
    // Full-campaign determinism: the exact final parameter vector must
    // replay across independent runs (DES ordering + RNG forks).
    VqaProblem p = makeHeisenbergVqe();
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmqx2"),
                                   deviceByName("ibmq_casablanca")};
    EqcOptions o;
    o.master.epochs = 8;
    o.master.weightBounds = {0.5, 1.5};
    o.adaptive.enabled = true;
    o.seed = 77;
    EqcTrace a = runVirtual(p, devices, o);
    EqcTrace b = runVirtual(p, devices, o);
    ASSERT_EQ(a.finalParams.size(), b.finalParams.size());
    for (std::size_t i = 0; i < a.finalParams.size(); ++i)
        EXPECT_DOUBLE_EQ(a.finalParams[i], b.finalParams[i]) << i;
    EXPECT_EQ(a.cooldowns, b.cooldowns);
    EXPECT_EQ(a.weights.size(), b.weights.size());
}

} // namespace
} // namespace eqc
