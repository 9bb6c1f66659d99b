/**
 * @file
 * The layer probe of the traced run: each layer's public functions,
 * called directly on the workload's own inputs and timed one call at a
 * time, single-threaded (a TaskPool(1) wherever a pool is taken), so a
 * layer metric is the cost of one call without fan-out.
 */

#include <cmath>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "common/task_pool.h"
#include "core/client.h"
#include "device/backend.h"
#include "quantum/density_matrix.h"
#include "sim/fusion.h"
#include "transpile/transpiler.h"
#include "vqa/expectation.h"
#include "workloads.h"

namespace e2e {

namespace {

constexpr double kHalfPi = 1.57079632679489661923;

/**
 * Call @p body(i) for i = 0, 1, ... until @p budgetS seconds have
 * passed, at least @p minN and at most @p maxN times.
 */
template <typename F>
void
sampleFor(double budgetS, std::size_t minN, std::size_t maxN, F &&body)
{
    const int64_t stop = nowNs() + static_cast<int64_t>(budgetS * 1e9);
    for (std::size_t i = 0; i < maxN && (i < minN || nowNs() < stop); ++i)
        body(i);
}

double
usSince(int64_t t)
{
    return static_cast<double>(nowNs() - t) * 1e-3;
}

/** One measurement-group circuit of one problem, on one device. */
struct Unit
{
    std::size_t problem = 0;
    std::size_t device = 0;
    const eqc::QuantumCircuit *logical = nullptr;
    eqc::TranspiledCircuit tc;
    eqc::FusedProgram noisy;
};

} // namespace

SegmentResult
runLayerProbe(const Workload &w, const Inputs &in,
              const std::vector<double> &hours, uint64_t seed,
              LayerSamples &out)
{
    eqc::TaskPool one(1);
    // Campaign workloads serve one problem (all campaigns share its
    // circuits); serving workloads both of theirs.
    const std::size_t nProblems = w.campaign ? 1 : in.problems.size();
    // Per-execution shots: a client's full budget, or one shard's.
    const int shots =
        w.campaign ? in.problems.front().shots
                   : std::max(1, kJobShots /
                                     static_cast<int>(in.devices.size()));
    auto hourAt = [&](std::size_t i) {
        return hours.empty() ? 0.01 * static_cast<double>(i + 1)
                             : hours[(i * 7919) % hours.size()];
    };

    std::vector<std::unique_ptr<eqc::ExpectationEstimator>> estimators;
    std::vector<Unit> units;
    for (std::size_t p = 0; p < nProblems; ++p) {
        const eqc::VqaProblem &pr = in.problems[p];
        estimators.push_back(std::make_unique<eqc::ExpectationEstimator>(
            pr.hamiltonian, pr.ansatz));
        for (std::size_t d = 0; d < in.devices.size(); ++d) {
            if (!in.devices[d].canRun(pr.ansatz.numQubits()))
                continue;
            for (const eqc::MeasurementGroup &g : estimators.back()->groups())
                units.push_back({p, d, &g.circuit, {}, {}});
        }
    }
    const std::size_t n = units.size();
    auto paramsOf = [&](const Unit &u) -> const std::vector<double> & {
        return in.problems[u.problem].initialParams;
    };

    // transpile: every group circuit for every device, as a node's
    // workload registration or a client's construction does.
    out.set("transpile.calls", static_cast<double>(n));
    sampleFor(0.25, n, 1 << 20, [&](std::size_t i) {
        Unit &u = units[i % n];
        const int64_t t = nowNs();
        u.tc = eqc::transpile(*u.logical,
                              in.devices[u.device].coupling);
        out.add("transpile.us", usSince(t));
    });

    // sim: fusion in both modes.
    sampleFor(0.15, 2 * n, 1 << 20, [&](std::size_t i) {
        Unit &u = units[(i / 2) % n];
        const eqc::FusionMode mode = i % 2 ? eqc::FusionMode::Full
                                           : eqc::FusionMode::NoisePreserving;
        const int64_t t = nowNs();
        eqc::FusedProgram fp = eqc::fuseForSimulation(u.tc.compact, mode);
        out.add("sim.fuse_us", usSince(t));
        if (mode == eqc::FusionMode::NoisePreserving)
            u.noisy = std::move(fp);
    });
    double ops = 0.0, qubits = 0.0, bytes = 0.0;
    for (const Unit &u : units) {
        const double k = static_cast<double>(u.noisy.ops.size());
        const int q = u.tc.compact.numQubits();
        ops += k;
        qubits += q;
        // Computed, not measured: each fused op streams the density
        // matrix (16 * 4^n bytes) in and out once.
        bytes += k * 2.0 * 16.0 * std::ldexp(1.0, 2 * q);
    }
    out.set("sim.fused_ops_per_circuit", ops / static_cast<double>(n));
    out.set("quantum.compact_qubits", qubits / static_cast<double>(n));
    out.set("quantum.bytes_per_circuit", bytes / static_cast<double>(n));

    // device: first execute on a fresh backend (plan + noise context
    // built), the same call again (both cached), and a warm plan at a
    // new submission hour (noise context rebuilt).
    sampleFor(0.3, n, 1 << 20, [&](std::size_t i) {
        const Unit &u = units[i % n];
        eqc::SimulatedQpu qpu(in.devices[u.device], deriveSeed(seed, 5, i));
        eqc::Rng rng(deriveSeed(seed, 6, i));
        const int64_t t = nowNs();
        qpu.execute(u.tc, paramsOf(u), shots, hourAt(i), rng, false);
        out.add("device.execute_cold_us", usSince(t));
    });
    std::vector<std::unique_ptr<eqc::SimulatedQpu>> qpus;
    for (std::size_t d = 0; d < in.devices.size(); ++d)
        qpus.push_back(std::make_unique<eqc::SimulatedQpu>(
            in.devices[d], deriveSeed(seed, 7, d)));
    eqc::Rng rng(deriveSeed(seed, 8));
    const double warmH = hourAt(0);
    for (const Unit &u : units)
        qpus[u.device]->execute(u.tc, paramsOf(u), shots, warmH, rng, false);
    sampleFor(0.5, 10 * n, 1 << 20, [&](std::size_t i) {
        const Unit &u = units[i % n];
        const int64_t t = nowNs();
        qpus[u.device]->execute(u.tc, paramsOf(u), shots, warmH, rng, false);
        out.add("device.execute_warm_us", usSince(t));
    });
    sampleFor(0.2, n, 1 << 20, [&](std::size_t i) {
        const Unit &u = units[i % n];
        const double h = warmH + 1e-3 * static_cast<double>(i + 1);
        const int64_t t = nowNs();
        qpus[u.device]->execute(u.tc, paramsOf(u), shots, h, rng, false);
        out.add("device.execute_newtime_us", usSince(t));
    });

    // quantum: the fused program's unitaries on a compact-width
    // density matrix.
    {
        std::vector<eqc::DensityMatrix> dms;
        for (const Unit &u : units)
            dms.emplace_back(u.tc.compact.numQubits());
        sampleFor(0.2, n, 1 << 20, [&](std::size_t i) {
            const Unit &u = units[i % n];
            eqc::DensityMatrix &dm = dms[i % n];
            dm.reset();
            const int64_t t = nowNs();
            eqc::applyFusedProgram(u.noisy, paramsOf(u), dm);
            out.add("quantum.apply_program_us", usSince(t));
        });
    }

    // vqa: one gradient-shaped batch (a +-pi/2 parameter-shift pair)
    // per call, and the noiseless energy of a binding.
    {
        struct Target
        {
            std::size_t problem, device;
            std::vector<eqc::TranspiledCircuit> compiled;
        };
        std::vector<Target> targets;
        for (std::size_t p = 0; p < nProblems; ++p)
            for (std::size_t d = 0; d < in.devices.size(); ++d)
                if (in.devices[d].canRun(in.problems[p].ansatz.numQubits()))
                    targets.push_back(
                        {p, d,
                         estimators[p]->compileFor(in.devices[d].coupling)});
        sampleFor(0.3, targets.size(), 1 << 20, [&](std::size_t i) {
            const Target &tg = targets[i % targets.size()];
            const std::vector<double> &base =
                in.problems[tg.problem].initialParams;
            std::vector<double> plus = base, minus = base;
            const std::size_t k = (i / targets.size()) % base.size();
            plus[k] += kHalfPi;
            minus[k] -= kHalfPi;
            const std::vector<eqc::EstimateJob> jobs = {
                {&tg.compiled, &plus}, {&tg.compiled, &minus}};
            const int64_t t = nowNs();
            estimators[tg.problem]->estimateBatch(
                *qpus[tg.device], jobs, shots, hourAt(i), rng,
                eqc::ShotMode::Gaussian, true, &one);
            out.add("vqa.estimate_batch_ms", usSince(t) * 1e-3);
        });
        sampleFor(0.1, 10 * nProblems, 1 << 20, [&](std::size_t i) {
            const eqc::VqaProblem &pr = in.problems[i % nProblems];
            const int64_t t = nowNs();
            eqc::idealEnergy(pr.ansatz, pr.hamiltonian, pr.initialParams);
            out.add("vqa.ideal_energy_us", usSince(t));
        });
    }

    // core: client construction (transpiles the problem for its
    // device), then pull/compute pairs of one gradient job.
    {
        const eqc::VqaProblem &pr = in.problems.front();
        const std::size_t nd = in.devices.size();
        sampleFor(0.2, nd, 1 << 20, [&](std::size_t i) {
            const int64_t t = nowNs();
            eqc::ClientNode c(static_cast<int>(i % nd), in.devices[i % nd],
                              pr, deriveSeed(seed, 9, i), {});
            out.add("core.client_init_us", usSince(t));
        });
        std::vector<std::unique_ptr<eqc::ClientNode>> clients;
        for (std::size_t d = 0; d < nd; ++d)
            clients.push_back(std::make_unique<eqc::ClientNode>(
                static_cast<int>(d), in.devices[d], pr,
                deriveSeed(seed, 10, d), eqc::ClientConfig{}));
        eqc::MasterNode master(pr, eqc::MasterOptions{});
        sampleFor(0.3, nd, 1 << 20, [&](std::size_t i) {
            eqc::ClientNode &c = *clients[i % nd];
            const eqc::GradientTask task = master.nextTask();
            int64_t t = nowNs();
            eqc::ClientNode::PendingJob job =
                c.beginProcess(task, hourAt(i));
            out.add("core.begin_process_us", usSince(t));
            t = nowNs();
            c.finishProcess(job, &one);
            out.add("core.finish_process_ms", usSince(t) * 1e-3);
        });
    }

    // The other shape in miniature, on the same problem and devices.
    Workload mini;
    mini.name = w.name + "/probe";
    Inputs mi;
    mi.problems = {in.problems.front()};
    mi.devices = in.devices;
    if (w.campaign) {
        mini.campaign = false;
        mini.s.tenants = 8;
        mini.s.rounds = 30;
        mini.s.ttlH = 0.5;
    } else {
        mini.c.campaigns = 1;
        mini.c.epochs = 5;
        mini.c.errTolPct = std::numeric_limits<double>::infinity();
    }
    Tracer off;
    return runSegment(mini, mi, deriveSeed(seed, 11), threadBudget(), off, 0,
                      &out);
}

} // namespace e2e
