/**
 * @file
 * Google-benchmark micro-kernels for the simulation substrate: gate
 * application, noise channels, transpilation, Eq. 2 evaluation and one
 * full gradient job — the unit costs behind every figure bench.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "circuit/ansatz.h"
#include "common/rng.h"
#include "common/task_pool.h"
#include "core/client.h"
#include "core/weighting.h"
#include "device/backend.h"
#include "device/catalog.h"
#include "quantum/density_matrix.h"
#include "vqa/parameter_shift.h"
#include "vqa/problem.h"

namespace {

using namespace eqc;

void
BM_StatevectorGate1q(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Statevector sv(n);
    CMatrix h = gateMatrix(GateType::H);
    int q = 0;
    for (auto _ : state) {
        sv.applyGate(h, {q});
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatevectorGate1q)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_StatevectorGate2q(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Statevector sv(n);
    CMatrix cx = gateMatrix(GateType::CX);
    int q = 0;
    for (auto _ : state) {
        sv.applyGate(cx, {q, (q + 1) % n});
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatevectorGate2q)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

void
BM_DensityMatrixUnitary(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    DensityMatrix dm(n);
    CMatrix cx = gateMatrix(GateType::CX);
    int q = 0;
    for (auto _ : state) {
        dm.applyUnitary(cx, {q, (q + 1) % n});
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DensityMatrixUnitary)->Arg(4)->Arg(6)->Arg(8);

void
BM_Superop2q(benchmark::State &state)
{
    // General (non-diagonal, non-permutation) 2q unitary: the
    // applySuperop2 16-stream kernel, the heaviest per-op cost of the
    // noisy walk. A partial-iSWAP defeats every classification fast
    // path.
    int n = static_cast<int>(state.range(0));
    DensityMatrix dm(n);
    const double c = 0.8, s = 0.6;
    CMatrix u(4, 4,
              {1, 0, 0, 0, 0, c, Complex(0, s), 0, 0, Complex(0, s), c,
               0, 0, 0, 0, 1});
    int q = 0;
    for (auto _ : state) {
        dm.applyUnitary(u, {q, (q + 1) % n});
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Superop2q)->Arg(4)->Arg(6)->Arg(8);

void
BM_ComposedNoisePass(benchmark::State &state)
{
    // The fused post-CX noise block: 2q depolarizing + thermal
    // relaxation on both qubits in one memory pass.
    int n = static_cast<int>(state.range(0));
    DensityMatrix dm(n);
    int q = 0;
    for (auto _ : state) {
        dm.applyDepolThermal2q(0.01, q, 0.001, 0.999, (q + 1) % n,
                               0.002, 0.998);
        q = (q + 1) % n;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ComposedNoisePass)->Arg(4)->Arg(6)->Arg(8);

void
BM_DepolarizingKrausPath(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    DensityMatrix dm(n);
    KrausChannel ch = depolarizing2q(0.01);
    for (auto _ : state)
        dm.applyChannel(ch, {0, 1});
}
BENCHMARK(BM_DepolarizingKrausPath)->Arg(4)->Arg(6);

void
BM_DepolarizingFastPath(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    DensityMatrix dm(n);
    for (auto _ : state)
        dm.applyDepolarizing2q(0.01, 0, 1);
}
BENCHMARK(BM_DepolarizingFastPath)->Arg(4)->Arg(6);

void
BM_ThermalRelaxationFastPath(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    DensityMatrix dm(n);
    for (auto _ : state)
        dm.applyThermalRelaxation(0, 0.001, 0.999);
}
BENCHMARK(BM_ThermalRelaxationFastPath)->Arg(4)->Arg(6);

// The per-execution stream of the estimator: a fork of one parent draw
// plus k normal draws (a Gaussian-mode estimate makes about 5).
void
BM_RngForkAndDraw(benchmark::State &state)
{
    const int draws = static_cast<int>(state.range(0));
    uint64_t label = 0;
    for (auto _ : state) {
        Rng rng(Rng::forkSeed(0x5EEDULL, label++));
        double sum = 0.0;
        for (int k = 0; k < draws; ++k)
            sum += rng.normal(0.0, 1.0);
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_RngForkAndDraw)->Arg(1)->Arg(5)->Arg(400);

void
BM_TranspileAnsatz(benchmark::State &state)
{
    QuantumCircuit c = hardwareEfficientAnsatz(4);
    Device d = (state.range(0) == 0) ? deviceByName("ibmq_manila")
                                     : deviceByName("ibmq_toronto");
    for (auto _ : state)
        benchmark::DoNotOptimize(transpile(c, d.coupling));
}
BENCHMARK(BM_TranspileAnsatz)->Arg(0)->Arg(1);

void
BM_PCorrectEvaluation(benchmark::State &state)
{
    Device d = deviceByName("ibmq_bogota");
    TranspiledCircuit tc =
        transpile(hardwareEfficientAnsatz(4), d.coupling);
    CircuitQuality q = circuitQuality(tc);
    for (auto _ : state)
        benchmark::DoNotOptimize(pCorrect(q, d.baseCalibration));
}
BENCHMARK(BM_PCorrectEvaluation);

void
BM_NoisyCircuitExecution(benchmark::State &state)
{
    VqaProblem p = makeHeisenbergVqe();
    Device d = deviceByName("ibmq_bogota");
    SimulatedQpu qpu(d, 1);
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    auto compiled = est.compileFor(d.coupling);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(qpu.execute(
            compiled[0], p.initialParams, 0, 1.0, rng, false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NoisyCircuitExecution);

void
BM_FullGradientJob(benchmark::State &state)
{
    VqaProblem p = makeHeisenbergVqe();
    Device d = deviceByName("ibmq_bogota");
    SimulatedQpu qpu(d, 1);
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    auto compiled = est.compileFor(d.coupling);
    Rng rng(1);
    int i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(gradientParamShift(
            est, qpu, compiled, p.initialParams, i, 8192, 1.0, rng,
            ShotMode::Gaussian, ShiftMode::WholeParameter));
        i = (i + 1) % p.numParams();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullGradientJob);

void
BM_IdealCircuitExecution(benchmark::State &state)
{
    // Noiseless statevector path: exercises the Full-fusion execution
    // plan (RZ/SX runs and 1q-into-CX absorption collapse into a
    // handful of fused kernels).
    VqaProblem p = makeHeisenbergVqe();
    Device d = makeIdealDevice(p.ansatz.numQubits());
    SimulatedQpu qpu(d, 1);
    ExpectationEstimator est(p.hamiltonian, p.ansatz);
    auto compiled = est.compileFor(d.coupling);
    Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(qpu.execute(
            compiled[0], p.initialParams, 0, 1.0, rng, false));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IdealCircuitExecution);

void
BM_MultiJobGradientFanout(benchmark::State &state)
{
    // The engine-level fan-out shape: N clients pull tasks serially
    // (beginProcess) and their gradient computations flush through the
    // shared TaskPool in one batch — exactly what the "virtual" engine
    // does at every delivery, and what runAll() does across jobs.
    const int numClients = static_cast<int>(state.range(0));
    VqaProblem p = makeHeisenbergVqe();
    const char *names[] = {"ibmq_bogota", "ibmq_manila", "ibmq_quito",
                           "ibmq_lima"};
    ClientConfig cfg;
    std::vector<std::unique_ptr<ClientNode>> clients;
    for (int i = 0; i < numClients; ++i)
        clients.push_back(std::make_unique<ClientNode>(
            i, deviceByName(names[i % 4]), p, 1 + i, cfg));
    MasterNode master(p, MasterOptions{});
    std::vector<ClientNode::PendingJob> jobs(numClients);
    std::vector<ClientNode::Processed> outs(numClients);
    double t = 1.0;
    for (auto _ : state) {
        for (int i = 0; i < numClients; ++i)
            jobs[i] = clients[i]->beginProcess(master.nextTask(), t);
        TaskPool::shared().parallelJobs(
            static_cast<uint64_t>(numClients),
            [&](uint64_t b, uint64_t e) {
                for (uint64_t i = b; i < e; ++i)
                    outs[i] = clients[i]->finishProcess(jobs[i]);
            });
        benchmark::DoNotOptimize(outs.data());
        t += 0.001;
    }
    state.SetItemsProcessed(state.iterations() * numClients);
}
BENCHMARK(BM_MultiJobGradientFanout)->Arg(1)->Arg(4)->Arg(8);

} // namespace
