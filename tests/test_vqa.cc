#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "common/stats.h"
#include "common/task_pool.h"
#include "device/catalog.h"
#include "hamiltonian/exact.h"
#include "vqa/parameter_shift.h"
#include "vqa/problem.h"
#include "vqa/trainer.h"

namespace eqc {
namespace {

VqaProblem
vqe()
{
    return makeHeisenbergVqe(7);
}

TEST(Expectation, GroupingOfHeisenberg)
{
    VqaProblem p = vqe();
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    // XX / YY / (ZZ+Z) -> exactly 3 measurement circuits.
    EXPECT_EQ(est.groups().size(), 3u);
}

TEST(Expectation, ExactModeMatchesIdealEnergy)
{
    VqaProblem p = vqe();
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    Device ideal = makeIdealDevice(4);
    SimulatedQpu backend(ideal, 1);
    auto compiled = est.compileFor(ideal.coupling);
    Rng rng(5);
    for (uint64_t trial = 0; trial < 4; ++trial) {
        std::vector<double> params(p.numParams());
        for (double &v : params)
            v = rng.uniform(-kPi, kPi);
        EnergyEstimate e = est.estimate(backend, compiled, params, 0,
                                        0.0, rng, ShotMode::Exact);
        double ref = idealEnergy(p.ansatz, p.hamiltonian, params);
        EXPECT_NEAR(e.energy, ref, 1e-9);
    }
}

TEST(Expectation, MultinomialIsUnbiasedEstimator)
{
    VqaProblem p = vqe();
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    Device ideal = makeIdealDevice(4);
    SimulatedQpu backend(ideal, 1);
    auto compiled = est.compileFor(ideal.coupling);
    Rng rng(9);
    std::vector<double> params(p.numParams(), 0.35);
    double ref = idealEnergy(p.ansatz, p.hamiltonian, params);
    double acc = 0.0;
    const int reps = 24;
    for (int r = 0; r < reps; ++r) {
        EnergyEstimate e = est.estimate(backend, compiled, params, 4096,
                                        0.0, rng, ShotMode::Multinomial);
        acc += e.energy;
    }
    EXPECT_NEAR(acc / reps, ref, 0.1);
}

TEST(Expectation, GaussianModeMatchesVarianceScale)
{
    VqaProblem p = vqe();
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    Device ideal = makeIdealDevice(4);
    SimulatedQpu backend(ideal, 1);
    auto compiled = est.compileFor(ideal.coupling);
    Rng rng(13);
    std::vector<double> params(p.numParams(), -0.2);
    double ref = idealEnergy(p.ansatz, p.hamiltonian, params);
    RunningStats stats;
    for (int r = 0; r < 200; ++r) {
        EnergyEstimate e = est.estimate(backend, compiled, params, 8192,
                                        0.0, rng, ShotMode::Gaussian);
        stats.add(e.energy);
    }
    EXPECT_NEAR(stats.mean(), ref, 0.05);
    // Shot noise at 8192 shots across 16 unit-coefficient terms stays
    // in the tens-of-milli-a.u. range.
    EXPECT_LT(stats.stddev(), 0.1);
    EXPECT_GT(stats.stddev(), 0.005);
}

TEST(ParameterShift, MatchesFiniteDifferenceIdeal)
{
    VqaProblem p = vqe();
    Rng rng(17);
    std::vector<double> params(p.numParams());
    for (double &v : params)
        v = rng.uniform(-1.0, 1.0);
    for (int i : {0, 5, 11, 15}) {
        double g = idealGradient(p.ansatz, p.hamiltonian, params, i);
        double eps = 1e-5;
        std::vector<double> up = params, dn = params;
        up[i] += eps;
        dn[i] -= eps;
        double fd = (idealEnergy(p.ansatz, p.hamiltonian, up) -
                     idealEnergy(p.ansatz, p.hamiltonian, dn)) /
                    (2 * eps);
        EXPECT_NEAR(g, fd, 1e-6) << "param " << i;
    }
}

TEST(ParameterShift, WholeParameterEqualsPerOccurrenceForVqe)
{
    // Each VQE parameter feeds exactly one gate, so both modes agree.
    VqaProblem p = vqe();
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    Device ideal = makeIdealDevice(4);
    SimulatedQpu backend(ideal, 1);
    auto compiled = est.compileFor(ideal.coupling);
    Rng rng(21);
    std::vector<double> params(p.numParams(), 0.4);
    GradientEstimate whole = gradientParamShift(
        est, backend, compiled, params, 3, 0, 0.0, rng, ShotMode::Exact,
        ShiftMode::WholeParameter);
    GradientEstimate perOcc = gradientParamShift(
        est, backend, compiled, params, 3, 0, 0.0, rng, ShotMode::Exact,
        ShiftMode::PerOccurrence);
    EXPECT_NEAR(whole.gradient, perOcc.gradient, 1e-9);
}

TEST(ParameterShift, PerOccurrenceExactForSharedQaoaParams)
{
    VqaProblem p = makeRingMaxCutQaoa(3);
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    Device ideal = makeIdealDevice(4);
    SimulatedQpu backend(ideal, 1);
    auto compiled = est.compileFor(ideal.coupling);
    Rng rng(23);
    std::vector<double> params = {0.37, 0.81};
    for (int i = 0; i < 2; ++i) {
        GradientEstimate g = gradientParamShift(
            est, backend, compiled, params, i, 0, 0.0, rng,
            ShotMode::Exact, ShiftMode::PerOccurrence);
        double eps = 1e-5;
        std::vector<double> up = params, dn = params;
        up[i] += eps;
        dn[i] -= eps;
        double fd = (idealEnergy(p.ansatz, p.hamiltonian, up) -
                     idealEnergy(p.ansatz, p.hamiltonian, dn)) /
                    (2 * eps);
        EXPECT_NEAR(g.gradient, fd, 1e-6) << "param " << i;
    }
}

TEST(ParameterShift, BatchedGradientInvariantAcrossThreadCounts)
{
    // Fan-out through a TaskPool must not perturb the numbers: every
    // circuit execution draws from its own forked stream, the batch's
    // prefix tree applies every op in program order and the reduction
    // order is fixed, so 1, 2 and 4 threads agree bit for bit — on the
    // noisy density-matrix backend, in both shot modes, under both
    // shift rules and for every parameter.
    VqaProblem p = vqe();
    Device d = deviceByName("ibmq_bogota");
    SimulatedQpu qpu(d, 3);
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    auto compiled = est.compileFor(d.coupling);
    TaskPool one(1), two(2), four(4);

    for (ShotMode mode : {ShotMode::Gaussian, ShotMode::Multinomial}) {
        for (ShiftMode shift :
             {ShiftMode::WholeParameter, ShiftMode::PerOccurrence}) {
            for (int k = 0; k < p.numParams(); ++k) {
                uint64_t ref = 0;
                for (TaskPool *pool : {&one, &two, &four}) {
                    Rng rng(5);
                    GradientEstimate g = gradientParamShift(
                        est, qpu, compiled, p.initialParams, k, 4096, 1.0,
                        rng, mode, shift, true, pool);
                    uint64_t bits;
                    std::memcpy(&bits, &g.gradient, sizeof(bits));
                    if (pool == &one)
                        ref = bits;
                    else
                        EXPECT_EQ(bits, ref)
                            << "threads " << pool->threadCount()
                            << " param " << k << " shift "
                            << static_cast<int>(shift) << " mode "
                            << static_cast<int>(mode);
                }
            }
        }
    }
}

TEST(Expectation, BatchedEstimateMatchesJobOrder)
{
    // estimateBatch returns one estimate per job in job order, and a
    // batch of identical jobs with the same parent stream state gives
    // per-job results that only differ through their forked streams.
    VqaProblem p = vqe();
    Device d = deviceByName("ibmq_bogota");
    SimulatedQpu qpu(d, 3);
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    auto compiled = est.compileFor(d.coupling);

    std::vector<double> a = p.initialParams, b = p.initialParams;
    b[0] += 0.5;
    Rng rng(9);
    TaskPool pool(2);
    std::vector<EnergyEstimate> es = est.estimateBatch(
        qpu, {{&compiled, &a}, {&compiled, &b}, {&compiled, &a}},
        0, 1.0, rng, ShotMode::Exact, true, &pool);
    ASSERT_EQ(es.size(), 3u);
    // Exact mode draws no shot noise: identical jobs agree exactly,
    // different parameters do not.
    EXPECT_DOUBLE_EQ(es[0].energy, es[2].energy);
    EXPECT_NE(es[0].energy, es[1].energy);
    for (const EnergyEstimate &e : es)
        EXPECT_EQ(e.circuitsRun, 3);
}

TEST(Optimizer, AppliesWeightedStep)
{
    AsgdOptimizer opt(0.1);
    std::vector<double> params = {1.0, 2.0};
    opt.apply(params, 0, 0.5);
    EXPECT_NEAR(params[0], 0.95, 1e-12);
    opt.apply(params, 1, 0.5, 1.5); // weighted step
    EXPECT_NEAR(params[1], 2.0 - 1.5 * 0.1 * 0.5, 1e-12);
    EXPECT_EQ(opt.updates(), 2u);
    EXPECT_NEAR(opt.maxStep(), 0.075, 1e-12);
}

TEST(Problem, FactoriesMatchPaperShapes)
{
    VqaProblem v = makeHeisenbergVqe();
    EXPECT_EQ(v.numParams(), 16);
    EXPECT_EQ(v.shots, 8192);
    VqaProblem q = makeRingMaxCutQaoa();
    EXPECT_EQ(q.numParams(), 2);
    EXPECT_EQ(q.hamiltonian.numQubits(), 4);
}

TEST(Trainer, IdealDeviceConvergesTowardAnsatzMinimum)
{
    VqaProblem p = vqe();
    Device ideal = makeIdealDevice(4);
    TrainerOptions opts;
    opts.epochs = 120;
    opts.seed = 5;
    TrainingTrace trace = trainSingleDevice(p, ideal, opts);
    ASSERT_EQ(trace.epochs.size(), 120u);
    double start = trace.epochs.front().energyIdeal;
    double end = trace.epochs.back().energyIdeal;
    EXPECT_LT(end, start - 1.0); // must descend substantially
    // Must approach the exact ground energy reasonably closely.
    double ground = minEigenvalue(p.hamiltonian);
    EXPECT_LT(end, ground * 0.8); // within 20% of the ground energy
    EXPECT_FALSE(trace.terminated);
    EXPECT_GT(trace.epochsPerHour, 0.0);
}

TEST(Trainer, TerminationRuleFires)
{
    VqaProblem p = vqe();
    Device man = deviceByName("ibmq_manhattan");
    TrainerOptions opts;
    opts.epochs = 250;
    opts.maxHours = 24.0; // tight budget: Manhattan cannot finish
    opts.seed = 3;
    TrainingTrace trace = trainSingleDevice(p, man, opts);
    EXPECT_TRUE(trace.terminated);
    EXPECT_LT(trace.epochs.size(), 250u);
}

} // namespace
} // namespace eqc
