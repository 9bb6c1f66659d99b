/**
 * @file
 * The benchmark's four workloads and the runners that drive the eqc
 * library through them, one timed segment at a time, plus the layer
 * probe of the traced run.
 *
 * Workloads (see README.md for why each was chosen):
 *   vqe-campaign       Fig. 6 shape: 4-qubit Heisenberg EQC campaigns
 *                      on the 10-device evaluation ensemble
 *   wide-vqe           the same protocol 3 qubits wider on 3 devices,
 *                      so the density-matrix kernels dominate
 *   serve-mixed        one ServiceNode with coalescing, the result
 *                      cache, SLO sheds, admission backpressure and a
 *                      member failure all switched on
 *   serve-routed-cold  a 4-node Router with every hit path removed
 */

#ifndef EQC_BENCH_E2E_WORKLOADS_H
#define EQC_BENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "device/device.h"
#include "harness.h"
#include "vqa/problem.h"

namespace e2e {

/** Thread budget of every workload: min(nproc, 4). */
int threadBudget();

/** Shot budget of every serving job. */
constexpr int kJobShots = 4096;

/** EQC training campaigns run through Runtime::runAll. */
struct CampaignSpec
{
    /** 7-qubit Heisenberg chain on 3 devices instead of Fig. 6's VQE. */
    bool wide = false;
    int campaigns = 0;
    int epochs = 0;
    /** Largest per-campaign energy_err_pct the check accepts. */
    double errTolPct = 0.0;
};

/** Closed-loop tenants against a ServiceNode or a Router. */
struct ServeSpec
{
    int tenants = 0;
    /** Untimed closed-loop rounds before the timed ones (set-up). */
    int warmupRounds = 0;
    int rounds = 0;
    /** Admission queue depth; 0 keeps the library default. */
    int depth = 0;
    double ttlH = 0.0;
    /** Share of submissions carrying a 0.25 h latency SLO. */
    double deadlineFrac = 0.0;
    /** Kill member 0 one model second into the segment. */
    bool failMember = false;
    /** Router nodes; 0 drives a single ServiceNode. */
    int nodes = 0;
    /**
     * Tenant pairs share one binding that holds for two rounds
     * (coalescing and cache hits); otherwise every tenant's binding
     * is its own and changes every round.
     */
    bool sharedBindings = true;
};

struct Workload
{
    std::string name;
    bool campaign = true;
    CampaignSpec c;
    ServeSpec s;
};

/** The benchmark's workloads, in report order. */
const std::vector<Workload> &workloads();

/** Workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/** Problems and devices of a workload (fixed paper instances). */
struct Inputs
{
    /** The campaigns' problem, or the served (VQE, QAOA) pair. */
    std::vector<eqc::VqaProblem> problems;
    std::vector<eqc::Device> devices;
};

Inputs makeInputs(const Workload &w);

/** What one timed segment measured and checked. */
struct SegmentResult
{
    double setupS = 0.0;
    double wallS = 0.0;
    double cpuS = 0.0;
    /** Epochs (campaigns) or jobs completed (serving). */
    uint64_t ops = 0;
    /** Wall time of each step: an epoch, or a closed-loop round. */
    std::vector<double> stepMs;
    /** Model (virtual) seconds summed over the ops. */
    double modelSeconds = 0.0;
    /**
     * Energy error: summed |E - E_ref| and |E_ref| over the campaigns
     * (E_ref the exact ground energy) or jobs (E_ref the noiseless
     * energy at the job's binding).
     */
    double errAbs = 0.0;
    double refAbs = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** First few check failures, for the error report. */
    std::vector<std::string> failures;
    /** FNV digest of finalParams / outcome energies, in order. */
    uint64_t digest = 0;
    /** Submission hours seen, fed to the layer probe. */
    std::vector<double> hours;
};

/**
 * Run one segment: set up (timed as setupS), run the workload's fixed
 * work (timed as wallS) and check its outputs. With @p layers set the
 * segment also records spans into @p tracer and per-layer samples.
 */
SegmentResult runSegment(const Workload &w, const Inputs &in,
                         uint64_t segmentSeed, int threads, Tracer &tracer,
                         uint64_t traceId, LayerSamples *layers);

/**
 * Layer probe: feed the workload's own problems, devices, shots and
 * submission hours straight into each layer's public functions and
 * time every call. Runs the other shape in miniature (a short serving
 * loop for campaign workloads, a short campaign for serving ones) so
 * every layer metric is measured on every workload.
 * @return the miniature's segment result (its checks count)
 */
SegmentResult runLayerProbe(const Workload &w, const Inputs &in,
                            const std::vector<double> &hours, uint64_t seed,
                            LayerSamples &out);

} // namespace e2e

#endif // EQC_BENCH_E2E_WORKLOADS_H
