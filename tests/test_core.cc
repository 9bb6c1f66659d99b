#include <gtest/gtest.h>

#include <cmath>

#include "core/runtime.h"
#include "device/catalog.h"
#include "hamiltonian/exact.h"
#include "support/run_helpers.h"
#include "vqa/problem.h"

namespace eqc {
namespace {

TEST(Weighting, PCorrectInUnitInterval)
{
    Device dev = deviceByName("ibmq_bogota");
    VqaProblem p = makeHeisenbergVqe();
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    auto compiled = est.compileFor(dev.coupling);
    for (const TranspiledCircuit &tc : compiled) {
        double v = pCorrect(circuitQuality(tc), dev.baseCalibration);
        EXPECT_GT(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
}

TEST(Weighting, MoreNoiseLowersPCorrect)
{
    Device good = deviceByName("ibmq_bogota");
    Device bad = deviceByName("ibmqx2");
    VqaProblem p = makeHeisenbergVqe();
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    auto cg = est.compileFor(good.coupling);
    auto cb = est.compileFor(bad.coupling);
    double pg = pCorrect(circuitQuality(cg[0]), good.baseCalibration);
    double pb = pCorrect(circuitQuality(cb[0]), bad.baseCalibration);
    EXPECT_GT(pg, pb);
}

TEST(Weighting, SwapsLowerPCorrectViaG2)
{
    // The same quality inputs with more 2q gates score lower.
    Device dev = deviceByName("ibmq_bogota");
    CircuitQuality q;
    q.criticalDepth = 20;
    q.g1 = 10;
    q.g2 = 3;
    q.measurements = 4;
    double base = pCorrect(q, dev.baseCalibration);
    q.g2 = 9; // two extra swaps' worth of CNOTs
    double withSwaps = pCorrect(q, dev.baseCalibration);
    EXPECT_GT(base, withSwaps);
}

TEST(Weighting, PaperLiteralModeAgreesOnOrdering)
{
    Device good = deviceByName("ibmq_bogota");
    Device bad = deviceByName("ibmqx2");
    CircuitQuality q;
    q.criticalDepth = 25;
    q.g1 = 12;
    q.g2 = 5;
    q.measurements = 4;
    double pgPhys = pCorrect(q, good.baseCalibration,
                             PCorrectMode::Physical);
    double pbPhys = pCorrect(q, bad.baseCalibration,
                             PCorrectMode::Physical);
    double pgLit = pCorrect(q, good.baseCalibration,
                            PCorrectMode::PaperLiteral);
    double pbLit = pCorrect(q, bad.baseCalibration,
                            PCorrectMode::PaperLiteral);
    EXPECT_GT(pgPhys, pbPhys);
    EXPECT_GT(pgLit, pbLit);
}

TEST(Weighting, NormalizerMapsToBounds)
{
    WeightNormalizer n({0.5, 1.5});
    n.update(0, 0.9); // best
    n.update(1, 0.5);
    n.update(2, 0.1); // worst
    EXPECT_NEAR(n.weightFor(0), 1.5, 1e-12);
    EXPECT_NEAR(n.weightFor(1), 1.0, 1e-12);
    EXPECT_NEAR(n.weightFor(2), 0.5, 1e-12);
}

TEST(Weighting, NormalizerMidpointForSingletonOrEqual)
{
    WeightNormalizer n({0.25, 1.75});
    n.update(0, 0.7);
    EXPECT_NEAR(n.weightFor(0), 1.0, 1e-12);
    n.update(1, 0.7);
    EXPECT_NEAR(n.weightFor(1), 1.0, 1e-12);
}

TEST(Weighting, DisabledBoundsAlwaysOne)
{
    WeightNormalizer n({1.0, 1.0});
    n.update(0, 0.9);
    n.update(1, 0.1);
    EXPECT_FALSE(n.bounds().enabled());
    EXPECT_NEAR(n.weightFor(0), 1.0, 1e-12);
    EXPECT_NEAR(n.weightFor(1), 1.0, 1e-12);
}

TEST(Master, CyclicTaskDistribution)
{
    VqaProblem p = makeHeisenbergVqe();
    MasterOptions opts;
    opts.epochs = 2;
    MasterNode master(p, opts);
    for (int round = 0; round < 2; ++round)
        for (int i = 0; i < p.numParams(); ++i)
            EXPECT_EQ(master.nextTask().paramIndex, i);
}

TEST(Master, EpochAccountingAndDone)
{
    VqaProblem p = makeHeisenbergVqe();
    MasterOptions opts;
    opts.epochs = 1;
    MasterNode master(p, opts);
    for (int i = 0; i < p.numParams(); ++i) {
        EXPECT_FALSE(master.done());
        GradientTask t = master.nextTask();
        GradientResult r;
        r.paramIndex = t.paramIndex;
        r.gradient = 0.1;
        r.pCorrect = 0.8;
        r.clientId = 0;
        r.version = t.version;
        master.onResult(r);
    }
    EXPECT_TRUE(master.done());
    EXPECT_EQ(master.epochsCompleted(), 1);
}

TEST(Master, AppliesWeightedAsgdRule)
{
    VqaProblem p = makeHeisenbergVqe();
    MasterOptions opts;
    opts.learningRate = 0.1;
    opts.weightBounds = {0.5, 1.5};
    MasterNode master(p, opts);
    double before = master.params()[2];

    GradientResult good;
    good.paramIndex = 2;
    good.gradient = 1.0;
    good.pCorrect = 0.9;
    good.clientId = 0;
    GradientResult bad = good;
    bad.paramIndex = 3;
    bad.pCorrect = 0.2;
    bad.clientId = 1;

    master.onResult(good); // single client -> midpoint weight 1.0
    EXPECT_NEAR(master.params()[2], before - 0.1, 1e-12);

    double before3 = master.params()[3];
    double w = master.onResult(bad); // now worst of two -> weight 0.5
    EXPECT_NEAR(w, 0.5, 1e-12);
    EXPECT_NEAR(master.params()[3], before3 - 0.5 * 0.1, 1e-12);
}

TEST(Master, StalenessTracked)
{
    VqaProblem p = makeHeisenbergVqe();
    MasterOptions opts;
    MasterNode master(p, opts);
    GradientTask t0 = master.nextTask(); // version 0
    // Three updates land before t0's result returns.
    for (int i = 0; i < 3; ++i) {
        GradientTask t = master.nextTask();
        GradientResult r;
        r.paramIndex = t.paramIndex;
        r.gradient = 0.0;
        r.clientId = 0;
        r.version = t.version;
        master.onResult(r);
    }
    GradientResult stale;
    stale.paramIndex = t0.paramIndex;
    stale.gradient = 0.0;
    stale.clientId = 1;
    stale.version = t0.version;
    master.onResult(stale);
    EXPECT_DOUBLE_EQ(master.stalenessStats().max(), 3.0);
}

TEST(Client, ProcessReturnsPlausibleResult)
{
    VqaProblem p = makeHeisenbergVqe();
    Device dev = deviceByName("ibmq_bogota");
    ClientConfig cfg;
    cfg.shotMode = ShotMode::Exact;
    ClientNode client(0, dev, p, 11, cfg);
    GradientTask task;
    task.paramIndex = 4;
    task.params = p.initialParams;
    task.version = 0;
    auto out = client.process(task, 1.0);
    EXPECT_EQ(out.result.paramIndex, 4);
    EXPECT_GT(out.latencyH, 0.0);
    EXPECT_GT(out.result.pCorrect, 0.0);
    EXPECT_LT(out.result.pCorrect, 1.0);
    EXPECT_EQ(out.result.circuitsRun, 6); // 2 shifts x 3 groups
    EXPECT_NEAR(out.result.completionTimeH, 1.0 + out.latencyH, 1e-12);
}

TEST(Client, PCorrectDropsWithDrift)
{
    VqaProblem p = makeHeisenbergVqe();
    Device dev = deviceByName("ibmq_casablanca");
    dev.drift.calQualitySigma = 0.0; // isolate pure staleness effects
    ClientConfig cfg;
    ClientNode client(0, dev, p, 11, cfg);
    // Reported gate/readout errors are frozen within a cycle, but the
    // hourly T1/T2 refresh lets P_correct track coherence degradation:
    // it must decline monotonically (and only slightly) with staleness.
    double p1 = client.computePCorrect(0.5);
    double p2 = client.computePCorrect(8.0);
    double p3 = client.computePCorrect(16.0);
    EXPECT_GT(p1, p2);
    EXPECT_GT(p2, p3);
    EXPECT_NEAR(p1, p3, 0.02); // coherence refresh is a small effect
}

TEST(Ensemble, FiltersIneligibleDevices)
{
    VqaProblem p = makeHeisenbergVqe();
    auto eligible = Ensemble::eligible(ibmqCatalog(), 6);
    // Only 7q+ machines can host a 6-qubit circuit.
    EXPECT_EQ(eligible.size(), 4u);
    for (const Device &d : eligible)
        EXPECT_GE(d.numQubits, 6);
}

TEST(EqcVirtual, ConvergesOnSmallEnsemble)
{
    VqaProblem p = makeHeisenbergVqe();
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmq_manila"),
                                   deviceByName("ibmq_quito")};
    EqcOptions opts;
    opts.master.epochs = 60;
    opts.seed = 5;
    EqcTrace trace = runVirtual(p, devices, opts);
    ASSERT_EQ(trace.epochs.size(), 60u);
    EXPECT_FALSE(trace.terminated);
    double start = trace.epochs.front().energyIdeal;
    double end = trace.epochs.back().energyIdeal;
    EXPECT_LT(end, start - 1.0);
    // All three devices contributed.
    EXPECT_EQ(trace.jobsPerDevice.size(), 3u);
    for (const auto &[name, jobs] : trace.jobsPerDevice)
        EXPECT_GT(jobs, 0) << name;
}

TEST(EqcVirtual, DeterministicForSameSeed)
{
    VqaProblem p = makeHeisenbergVqe();
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmqx2")};
    EqcOptions opts;
    opts.master.epochs = 10;
    opts.seed = 42;
    EqcTrace a = runVirtual(p, devices, opts);
    EqcTrace b = runVirtual(p, devices, opts);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (std::size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.epochs[i].energyDevice,
                         b.epochs[i].energyDevice);
        EXPECT_DOUBLE_EQ(a.epochs[i].timeH, b.epochs[i].timeH);
    }
    EXPECT_DOUBLE_EQ(a.totalHours, b.totalHours);
}

TEST(EqcVirtual, FasterThanSingleDevice)
{
    VqaProblem p = makeHeisenbergVqe();
    TrainerOptions single;
    single.epochs = 15;
    single.seed = 5;
    TrainingTrace bogota =
        trainSingleDevice(p, deviceByName("ibmq_bogota"), single);

    EqcOptions opts;
    opts.master.epochs = 15;
    opts.seed = 5;
    EqcTrace ens = runVirtual(p, evaluationEnsemble(), opts);
    EXPECT_GT(ens.epochsPerHour, 2.0 * bogota.epochsPerHour);
}

TEST(EqcVirtual, AsynchronyProducesStaleness)
{
    VqaProblem p = makeHeisenbergVqe();
    EqcOptions opts;
    opts.master.epochs = 12;
    opts.seed = 8;
    EqcTrace trace = runVirtual(p, evaluationEnsemble(), opts);
    // With 10 concurrent clients gradients must arrive stale on average.
    EXPECT_GT(trace.staleness.mean(), 1.0);
    // Partially-asynchronous regime: staleness bounded (appendix's D).
    EXPECT_LT(trace.staleness.max(), 400.0);
}

TEST(EqcVirtual, WeightRecordsWithinBounds)
{
    VqaProblem p = makeHeisenbergVqe();
    EqcOptions opts;
    opts.master.epochs = 8;
    opts.master.weightBounds = {0.5, 1.5};
    opts.seed = 8;
    EqcTrace trace = runVirtual(p, evaluationEnsemble(), opts);
    ASSERT_FALSE(trace.weights.empty());
    for (const WeightRecord &w : trace.weights) {
        EXPECT_GE(w.weight, 0.5 - 1e-12);
        EXPECT_LE(w.weight, 1.5 + 1e-12);
        EXPECT_GE(w.pCorrect, 0.0);
        EXPECT_LE(w.pCorrect, 1.0);
    }
}

TEST(EqcVirtual, AdaptivePolicyCoolsDownBadDevices)
{
    VqaProblem p = makeHeisenbergVqe();
    // Pair a good device with a catastophically drifting one.
    Device bad = deviceByName("ibmq_casablanca");
    bad.drift.errorDriftPerHour = 0.5;
    bad.drift.incidentRatePerHour = 0.1;
    bad.drift.incidentSeverity = 8.0;
    std::vector<Device> devices = {deviceByName("ibmq_bogota"),
                                   deviceByName("ibmq_manila"), bad};
    EqcOptions opts;
    opts.master.epochs = 40;
    opts.master.weightBounds = {0.5, 1.5};
    opts.adaptive.enabled = true;
    opts.adaptive.unstableStreak = 3;
    opts.adaptive.cooldownH = 2.0;
    opts.seed = 4;
    EqcTrace trace = runVirtual(p, devices, opts);
    EXPECT_GT(trace.cooldowns, 0);
    ASSERT_EQ(trace.epochs.size(), 40u);
}

} // namespace
} // namespace eqc
