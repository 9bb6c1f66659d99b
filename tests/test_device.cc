#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "circuit/ansatz.h"
#include "common/task_pool.h"
#include "device/backend.h"
#include "device/catalog.h"
#include "hamiltonian/heisenberg.h"
#include "quantum/simd_dispatch.h"
#include "vqa/expectation.h"
#include "vqa/problem.h"

namespace eqc {
namespace {

TEST(Catalog, ContainsAllTableIDevices)
{
    auto devices = ibmqCatalog();
    ASSERT_EQ(devices.size(), 11u);
    std::set<std::string> names;
    for (const Device &d : devices)
        names.insert(d.name);
    for (const char *want :
         {"ibmq_lima", "ibmqx2", "ibmq_belem", "ibmq_quito",
          "ibmq_manila", "ibmq_santiago", "ibmq_bogota", "ibm_lagos",
          "ibmq_casablanca", "ibmq_toronto", "ibmq_manhattan"}) {
        EXPECT_TRUE(names.count(want)) << want;
    }
}

TEST(Catalog, QubitCountsMatchTableI)
{
    EXPECT_EQ(deviceByName("ibmq_lima").numQubits, 5);
    EXPECT_EQ(deviceByName("ibmqx2").numQubits, 5);
    EXPECT_EQ(deviceByName("ibm_lagos").numQubits, 7);
    EXPECT_EQ(deviceByName("ibmq_casablanca").numQubits, 7);
    EXPECT_EQ(deviceByName("ibmq_toronto").numQubits, 27);
    EXPECT_EQ(deviceByName("ibmq_manhattan").numQubits, 65);
}

TEST(Catalog, QuantumVolumesMatchTableI)
{
    EXPECT_EQ(deviceByName("ibmq_lima").quantumVolume, 8);
    EXPECT_EQ(deviceByName("ibmqx2").quantumVolume, 8);
    EXPECT_EQ(deviceByName("ibmq_belem").quantumVolume, 16);
    EXPECT_EQ(deviceByName("ibmq_bogota").quantumVolume, 32);
}

TEST(Catalog, DeterministicForSameSeed)
{
    Device a = deviceByName("ibmq_bogota", 99);
    Device b = deviceByName("ibmq_bogota", 99);
    EXPECT_DOUBLE_EQ(a.baseCalibration.qubits[0].t1Us,
                     b.baseCalibration.qubits[0].t1Us);
    EXPECT_DOUBLE_EQ(a.baseCalibration.avgCxError(),
                     b.baseCalibration.avgCxError());
}

TEST(Catalog, X2IsNoisiestSmallDevice)
{
    Device x2 = deviceByName("ibmqx2");
    Device bogota = deviceByName("ibmq_bogota");
    EXPECT_GT(x2.baseCalibration.avgCxError(),
              bogota.baseCalibration.avgCxError());
    EXPECT_GT(x2.baseCalibration.avgReadoutError(),
              bogota.baseCalibration.avgReadoutError());
}

TEST(Catalog, EvaluationEnsembleExcludesManhattan)
{
    auto ens = evaluationEnsemble();
    EXPECT_EQ(ens.size(), 10u);
    for (const Device &d : ens)
        EXPECT_NE(d.name, "ibmq_manhattan");
}

TEST(Catalog, CalibrationCoversTopology)
{
    for (const Device &d : ibmqCatalog()) {
        EXPECT_EQ(d.baseCalibration.qubits.size(),
                  static_cast<std::size_t>(d.numQubits))
            << d.name;
        EXPECT_EQ(d.baseCalibration.cxError.size(),
                  d.coupling.edges().size())
            << d.name;
        for (const auto &[a, b] : d.coupling.edges()) {
            EXPECT_GT(d.baseCalibration.cxErrorFor(a, b), 0.0);
            EXPECT_GT(d.baseCalibration.cxTimeFor(a, b), 0.0);
        }
    }
}

TEST(Calibration, CrosstalkPenalizesDenseTopologies)
{
    // Same base parameters, denser graph -> higher mean CX error.
    Rng rng(5);
    auto sparse = synthesizeCalibration(CouplingMap::line(5), rng, 100,
                                        1.0, 3e-4, 1e-2, 2e-2, 0.1);
    auto dense = synthesizeCalibration(CouplingMap::bowtie(), rng, 100,
                                       1.0, 3e-4, 1e-2, 2e-2, 0.1);
    EXPECT_GT(dense.avgCxError(), sparse.avgCxError());
}

TEST(Calibration, CircuitDurationAsapSchedule)
{
    CalibrationSnapshot cal;
    cal.qubits.resize(2);
    cal.gate1qTimeNs = 40.0;
    cal.readoutTimeNs = 4000.0;
    cal.cxError[{0, 1}] = 1e-2;
    cal.cxTimeNs[{0, 1}] = 400.0;

    QuantumCircuit c(2, 0);
    c.sx(0);       // 40ns on q0
    c.sx(1);       // 40ns on q1 (parallel)
    c.cx(0, 1);    // 400ns, starts at 40
    c.measure(0);  // 4000ns, starts at 440
    c.measure(1);
    EXPECT_NEAR(circuitDurationUs(c, cal), (40 + 400 + 4000) / 1000.0,
                1e-9);
}

TEST(Drift, ErrorsGrowSinceCalibration)
{
    Device d = deviceByName("ibmq_bogota");
    CalibrationTracker tracker(d.baseCalibration, d.drift, Rng(3));
    double e0 = tracker.actual(0.1).avgCxError();
    double e12 = tracker.actual(12.0).avgCxError();
    EXPECT_GT(e12, e0);
    EXPECT_GT(tracker.errorInflation(12.0),
              tracker.errorInflation(0.1));
}

TEST(Drift, ReportedStaysFrozenBetweenCalibrations)
{
    Device d = deviceByName("ibmq_bogota");
    CalibrationTracker tracker(d.baseCalibration, d.drift, Rng(3));
    auto r1 = tracker.reported(1.0);
    auto r2 = tracker.reported(10.0);
    // Same calibration interval: identical reported values.
    EXPECT_DOUBLE_EQ(r1.avgCxError(), r2.avgCxError());
    EXPECT_DOUBLE_EQ(r1.timeH, r2.timeH);
}

TEST(Drift, RecalibrationResetsInflation)
{
    Device d = deviceByName("ibmq_bogota");
    // Disable latent noise to isolate the pure staleness ramp.
    d.drift.latentSigma = 0.0;
    CalibrationTracker tracker(d.baseCalibration, d.drift, Rng(3));
    // Just before vs just after the second calibration.
    double calTime = -1.0;
    for (double t = 1.0; t < 100.0; t += 0.25) {
        if (tracker.lastCalibrationTime(t) > 0.0) {
            calTime = tracker.lastCalibrationTime(t);
            break;
        }
    }
    ASSERT_GT(calTime, 0.0);
    EXPECT_GT(tracker.errorInflation(calTime - 0.1), 1.05);
    EXPECT_LT(tracker.errorInflation(calTime + 0.1), 1.05);
}

TEST(Drift, IncidentsMultiplyErrors)
{
    Device d = deviceByName("ibmq_casablanca");
    DriftParams p = d.drift;
    p.incidentRatePerHour = 0.05; // force frequent incidents
    CalibrationTracker tracker(d.baseCalibration, p, Rng(11));
    bool sawIncident = false;
    for (double t = 0.0; t < 300.0; t += 0.5) {
        if (tracker.inIncident(t)) {
            sawIncident = true;
            EXPECT_GT(tracker.errorInflation(t), 2.0);
            break;
        }
    }
    EXPECT_TRUE(sawIncident);
}

TEST(Drift, DeterministicTimeline)
{
    Device d = deviceByName("ibmq_toronto");
    CalibrationTracker a(d.baseCalibration, d.drift, Rng(7));
    CalibrationTracker b(d.baseCalibration, d.drift, Rng(7));
    for (double t : {0.5, 13.0, 77.7, 200.0})
        EXPECT_DOUBLE_EQ(a.actual(t).avgCxError(),
                         b.actual(t).avgCxError());
}

TEST(QueueModel, CongestionIsPeriodic)
{
    QueueParams p;
    p.congestionAmplitude = 1.0;
    p.congestionPeriodH = 24.0;
    QueueModel q(p);
    EXPECT_NEAR(q.congestionFactor(0.0), q.congestionFactor(24.0), 1e-9);
    EXPECT_GT(q.congestionFactor(6.0), q.congestionFactor(18.0));
}

TEST(QueueModel, MaintenanceWindows)
{
    QueueParams p;
    p.maintenancePeriodH = 10.0;
    p.maintenanceDurationH = 2.0;
    p.maintenanceOffsetH = 0.0;
    QueueModel q(p);
    EXPECT_TRUE(q.inMaintenance(0.5));
    EXPECT_FALSE(q.inMaintenance(3.0));
    EXPECT_TRUE(q.inMaintenance(10.5));
    EXPECT_NEAR(q.maintenanceRemainingH(0.5), 1.5, 1e-9);
}

TEST(QueueModel, ExecutionTimeScalesWithShotsAndCircuits)
{
    QueueParams p;
    p.jobOverheadS = 1.0;
    p.resetTimeUs = 250.0;
    QueueModel q(p);
    double e1 = q.executionTimeS(10.0, 8192, 1);
    double e2 = q.executionTimeS(10.0, 8192, 2);
    EXPECT_NEAR(e2 - e1, e1 - 1.0, 1e-9); // linear in circuits
    EXPECT_GT(q.executionTimeS(10.0, 16384, 1), e1);
}

TEST(QueueModel, LatencyOrderingAcrossDevices)
{
    // Manhattan's sampled latency dwarfs x2's.
    Device x2 = deviceByName("ibmqx2");
    Device man = deviceByName("ibmq_manhattan");
    QueueModel qx(x2.queue), qm(man.queue);
    Rng r1(5), r2(5);
    double sx = 0, sm = 0;
    for (int i = 0; i < 50; ++i) {
        sx += qx.jobLatencyS(i * 0.3, 10.0, 8192, 6, r1);
        sm += qm.jobLatencyS(i * 0.3, 10.0, 8192, 6, r2);
    }
    EXPECT_GT(sm, 20.0 * sx);
}

TEST(Backend, IdealDeviceGivesExactDistribution)
{
    Device ideal = makeIdealDevice(2);
    SimulatedQpu qpu(ideal, 1);
    QuantumCircuit bell(2, 0);
    bell.h(0);
    bell.cx(0, 1);
    bell.measureAll();
    TranspiledCircuit tc = transpile(bell, ideal.coupling);
    Rng rng(2);
    JobResult r = qpu.execute(tc, {}, 8192, 0.0, rng, true);
    ASSERT_EQ(r.probabilities.size(), 4u);
    EXPECT_NEAR(r.probabilities[0], 0.5, 1e-12);
    EXPECT_NEAR(r.probabilities[3], 0.5, 1e-12);
    uint64_t total = 0;
    for (uint64_t c : r.counts)
        total += c;
    EXPECT_EQ(total, 8192u);
}

TEST(Backend, NoisyDeviceDegradesGhz)
{
    Device dev = deviceByName("ibmqx2");
    SimulatedQpu qpu(dev, 1);
    QuantumCircuit ghz(4, 0);
    ghz.h(0);
    for (int q = 0; q + 1 < 4; ++q)
        ghz.cx(q, q + 1);
    ghz.measureAll();
    TranspiledCircuit tc = transpile(ghz, dev.coupling);
    Rng rng(2);
    JobResult r = qpu.execute(tc, {}, 8192, 0.0, rng, false);
    // Success probability strictly below 1 but far above uniform.
    int n = tc.compact.numQubits();
    uint64_t all1 = 0;
    for (int l = 0; l < 4; ++l)
        all1 |= uint64_t{1} << tc.logicalToCompact[l];
    double pGood = r.probabilities[0] + r.probabilities[all1];
    EXPECT_LT(pGood, 0.995);
    EXPECT_GT(pGood, 2.0 / (1 << n));
    double totalP = 0;
    for (double p : r.probabilities)
        totalP += p;
    EXPECT_NEAR(totalP, 1.0, 1e-9);
}

TEST(Backend, NoiseWorsensWithStaleness)
{
    Device dev = deviceByName("ibmq_casablanca");
    // Remove incidents so only smooth drift is at play.
    dev.drift.incidentRatePerHour = 0.0;
    SimulatedQpu qpu(dev, 1);
    QuantumCircuit ghz(4, 0);
    ghz.h(0);
    for (int q = 0; q + 1 < 4; ++q)
        ghz.cx(q, q + 1);
    ghz.measureAll();
    TranspiledCircuit tc = transpile(ghz, dev.coupling);
    Rng rng(2);
    double calTime = qpu.tracker().lastCalibrationTime(10.0);
    JobResult fresh =
        qpu.execute(tc, {}, 0, calTime + 0.1, rng, false);
    JobResult stale =
        qpu.execute(tc, {}, 0, calTime + 15.0, rng, false);
    uint64_t all1 = 0;
    for (int l = 0; l < 4; ++l)
        all1 |= uint64_t{1} << tc.logicalToCompact[l];
    double pFresh = fresh.probabilities[0] + fresh.probabilities[all1];
    double pStale = stale.probabilities[0] + stale.probabilities[all1];
    EXPECT_GT(pFresh, pStale);
}


/** FNV-1a 64 over the exact bytes of a probability vector. */
uint64_t
probabilityDigest(const std::vector<double> &probs)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    for (double p : probs) {
        unsigned char bytes[sizeof(double)];
        std::memcpy(bytes, &p, sizeof(double));
        for (unsigned char b : bytes) {
            h ^= b;
            h *= 0x100000001B3ULL;
        }
    }
    return h;
}

/**
 * Digests of the exact (unsampled) probabilities of one parameterised
 * 4-qubit circuit at @p hours, then at hours[0] again after 20
 * executions at newer hours.
 */
std::vector<uint64_t>
executeDigests(const std::string &device, const double (&hours)[3])
{
    Device dev = deviceByName(device);
    SimulatedQpu qpu(dev, 7);
    QuantumCircuit c(4, 4);
    for (int q = 0; q < 4; ++q)
        c.ry(q, ParamExpr::symbol(q));
    for (int q = 0; q + 1 < 4; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < 4; ++q)
        c.rx(q, ParamExpr::constant(0.3 + 0.2 * q));
    c.cx(3, 0);
    c.measureAll();
    TranspiledCircuit tc = transpile(c, dev.coupling);
    const std::vector<double> params = {0.4, -1.1, 2.3, 0.7};
    Rng rng(5);
    std::vector<uint64_t> out;
    for (double h : hours)
        out.push_back(probabilityDigest(
            qpu.execute(tc, params, 1024, h, rng, false).probabilities));
    for (int i = 1; i <= 20; ++i)
        qpu.execute(tc, params, 1024, hours[2] + 0.25 * i, rng, false);
    out.push_back(probabilityDigest(
        qpu.execute(tc, params, 1024, hours[0], rng, false).probabilities));
    return out;
}

// Pins SimulatedQpu::execute to the bit: any rewrite of the noise
// context build, the plan or the kernels that moves one bit of the
// exact probabilities fails here. Casablanca carries coherent RX and
// ZZ errors; Toronto has 27 qubits, so its noise context covers far
// more than the circuit's 4. The last entry of each revisits the first
// hour after 20 executions at other hours: nothing a backend carries
// between executions may move it.
TEST(Backend, ExecuteProbabilitiesArePinnedBitwise)
{
    const double hours[3] = {0.5, 13.25, 41.0};
    const std::vector<uint64_t> casablanca =
        executeDigests("ibmq_casablanca", hours);
    const std::vector<uint64_t> toronto =
        executeDigests("ibmq_toronto", hours);
    const std::vector<uint64_t> wantCasablanca = {
        0x8957FA511CBD1B1AULL, 0x3382A978A01461FFULL,
        0x11623A7EBE0384D9ULL, 0x8957FA511CBD1B1AULL};
    const std::vector<uint64_t> wantToronto = {
        0x76179577DA930BB2ULL, 0x16C526DE52A4BFB6ULL,
        0xF9A5BA8638040BEEULL, 0x76179577DA930BB2ULL};
    EXPECT_EQ(casablanca, wantCasablanca);
    EXPECT_EQ(toronto, wantToronto);
}

// A batch builds noise only for the qubits and CX pairs its circuits
// use. Lay a 4-qubit circuit out by hand on Toronto's physical qubits
// 21, 23, 24 and 25 (far from qubit 0; the coupled path 21-23-24-25)
// with CXs on pairs (21, 23) and (24, 25), and pin two bindings' exact
// probabilities at three hours.
TEST(Backend, WideChipBatchProbabilitiesArePinnedBitwise)
{
    Device dev = deviceByName("ibmq_toronto");
    SimulatedQpu qpu(dev, 11);
    QuantumCircuit c(4, 4);
    for (int q = 0; q < 4; ++q)
        c.ry(q, ParamExpr::symbol(q));
    c.cx(0, 1);
    c.cx(3, 2);
    for (int q = 0; q < 4; ++q)
        c.rx(q, ParamExpr::constant(0.25 + 0.3 * q));
    c.cx(1, 0);
    c.measureAll();
    TranspileOptions trivial;
    trivial.useGreedyLayout = false;
    TranspiledCircuit tc = transpile(c, CouplingMap::line(4), trivial);
    ASSERT_EQ(tc.swapCount, 0);
    ASSERT_EQ(tc.compactToPhysical, (std::vector<int>{0, 1, 2, 3}));
    tc.compactToPhysical = {21, 23, 24, 25};

    const std::vector<double> a = {0.4, -1.1, 2.3, 0.7};
    const std::vector<double> b = {-0.9, 0.6, 1.7, -2.2};
    Rng rng(3);
    std::vector<uint64_t> got;
    for (double h : {0.75, 19.5, 60.25}) {
        std::vector<JobResult> runs = qpu.executeBatch(
            {{&tc, &a, &rng}, {&tc, &b, &rng}}, 1024, h, false);
        for (const JobResult &r : runs)
            got.push_back(probabilityDigest(r.probabilities));
    }
    const std::vector<uint64_t> want = {
        0x8F7FB49038D1F545ULL, 0xF47F7EB8C4C6C7AFULL,
        0xA4521B15605DBECDULL, 0x30CB772967C15BB4ULL,
        0x6DC3D882B7864793ULL, 0xB6B64858AE0E6E45ULL};
    EXPECT_EQ(got, want);
}

/**
 * The circuits and bindings of one batch. Items point into the deques,
 * so a spec is built in place and never moved.
 */
struct BatchSpec
{
    std::deque<std::vector<TranspiledCircuit>> circuits;
    std::deque<std::vector<double>> bindings;
    std::vector<std::pair<const TranspiledCircuit *,
                          const std::vector<double> *>>
        items;

    const std::vector<double> *
    bind(std::vector<double> params)
    {
        bindings.push_back(std::move(params));
        return &bindings.back();
    }

    /** Every group circuit of @p compiled under @p params. */
    void
    addJob(const std::vector<TranspiledCircuit> &compiled,
           const std::vector<double> *params)
    {
        for (const TranspiledCircuit &tc : compiled)
            items.push_back({&tc, params});
    }
};

/** @p compiled with occurrence @p occ of parameter @p k shifted. */
std::vector<TranspiledCircuit>
shiftOccurrence(const std::vector<TranspiledCircuit> &compiled, int k,
                int occ, double delta)
{
    std::vector<TranspiledCircuit> out = compiled;
    for (TranspiledCircuit &tc : out) {
        QuantumCircuit shifted(tc.compact.numQubits(),
                               tc.compact.numParams());
        int seen = 0;
        for (GateOp op : tc.compact.ops()) {
            for (ParamExpr &pe : op.params)
                if (pe.index == k && seen++ == occ)
                    pe.offset += delta;
            if (op.type == GateType::BARRIER)
                shifted.barrier();
            else
                shifted.addGate(op.type,
                                op.arity() == 2
                                    ? std::vector<int>{op.qubits[0],
                                                       op.qubits[1]}
                                    : std::vector<int>{op.qubits[0]},
                                op.params);
        }
        tc.compact = std::move(shifted);
    }
    return out;
}

/** Occurrences of parameter @p k in @p tc's compact circuit. */
int
occurrences(const TranspiledCircuit &tc, int k)
{
    int count = 0;
    for (const GateOp &op : tc.compact.ops())
        for (const ParamExpr &pe : op.params)
            count += pe.index == k;
    return count;
}

/** The 4-qubit VQE, the QAOA ring and the 7-qubit Heisenberg chain. */
std::vector<VqaProblem>
batchProblems()
{
    VqaProblem chain;
    chain.ansatz = hardwareEfficientAnsatz(7);
    std::vector<std::pair<int, int>> edges;
    for (int q = 0; q + 1 < 7; ++q)
        edges.emplace_back(q, q + 1);
    chain.hamiltonian = heisenbergHamiltonian(7, edges, 1.0, 1.0);
    for (int k = 0; k < chain.ansatz.numParams(); ++k)
        chain.initialParams.push_back(0.1 + 0.37 * k);
    return {makeHeisenbergVqe(7), makeRingMaxCutQaoa(7), chain};
}

/**
 * One mixed batch of every problem's unshifted groups, with widths
 * interleaved and duplicate items (the same circuit twice, and an
 * equal copy of one). Then gradient batches as the estimator submits
 * them, for every parameter of every problem: the +-pi/2
 * WholeParameter pair over all groups and (all but the chain's middle
 * parameters) every PerOccurrence pair.
 */
std::deque<BatchSpec>
gradientBatches(const CouplingMap &map)
{
    const double shift = 1.5707963267948966;
    std::deque<BatchSpec> out;
    BatchSpec &mixed = out.emplace_back();
    for (const VqaProblem &p : batchProblems()) {
        ExpectationEstimator est(p.hamiltonian, p.ansatz);
        mixed.circuits.push_back(est.compileFor(map));
        const std::vector<TranspiledCircuit> &compiled =
            mixed.circuits.back();
        const std::vector<double> *base = mixed.bind(p.initialParams);
        const int numParams = static_cast<int>(p.initialParams.size());
        for (int k = 0; k < numParams; ++k) {
            BatchSpec &whole = out.emplace_back();
            for (double sign : {1.0, -1.0}) {
                std::vector<double> shifted = p.initialParams;
                shifted[k] += sign * shift;
                whole.addJob(compiled, whole.bind(shifted));
            }

            if (numParams > 16 && k > 0 && k + 1 < numParams)
                continue;
            BatchSpec &perOcc = out.emplace_back();
            const std::vector<double> *params = perOcc.bind(p.initialParams);
            for (int occ = 0; occ < occurrences(compiled[0], k); ++occ) {
                for (double sign : {1.0, -1.0}) {
                    perOcc.circuits.push_back(
                        shiftOccurrence(compiled, k, occ, sign * shift));
                    perOcc.addJob(perOcc.circuits.back(), params);
                }
            }
        }
        mixed.addJob(compiled, base);
        mixed.items.push_back(mixed.items.front());
    }
    mixed.circuits.push_back({mixed.circuits.front().front()});
    mixed.items.push_back(
        {&mixed.circuits.back().front(), mixed.items.front().second});
    return out;
}

/** Each item alone through execute(), item i sampling Rng(100 + i). */
std::vector<JobResult>
executeSingly(SimulatedQpu &qpu, const BatchSpec &spec, double tH)
{
    std::vector<JobResult> out;
    for (std::size_t i = 0; i < spec.items.size(); ++i) {
        Rng rng(100 + i);
        out.push_back(qpu.execute(*spec.items[i].first,
                                  *spec.items[i].second, 4096, tH, rng,
                                  true));
    }
    return out;
}

/** The whole spec through one executeBatch(), same streams. */
std::vector<JobResult>
executeBatched(SimulatedQpu &qpu, const BatchSpec &spec, double tH,
               TaskPool &pool)
{
    std::deque<Rng> rngs;
    std::vector<ExecItem> items;
    for (std::size_t i = 0; i < spec.items.size(); ++i) {
        rngs.emplace_back(100 + i);
        items.push_back(
            {spec.items[i].first, spec.items[i].second, &rngs.back()});
    }
    return qpu.executeBatch(items, 4096, tH, true, &pool);
}

void
expectBitEqual(const std::vector<JobResult> &got,
               const std::vector<JobResult> &want, const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        const JobResult &g = got[i];
        const JobResult &w = want[i];
        ASSERT_EQ(g.probabilities.size(), w.probabilities.size())
            << what << " item " << i;
        ASSERT_EQ(g.counts.size(), w.counts.size()) << what << " item " << i;
        EXPECT_EQ(std::memcmp(g.probabilities.data(), w.probabilities.data(),
                              g.probabilities.size() * sizeof(double)),
                  0)
            << what << " item " << i << " probabilities";
        EXPECT_EQ(std::memcmp(g.counts.data(), w.counts.data(),
                              g.counts.size() * sizeof(uint64_t)),
                  0)
            << what << " item " << i << " counts";
        EXPECT_EQ(g.shots, w.shots);
        EXPECT_EQ(g.circuitDurationUs, w.circuitDurationUs);
    }
}

/** Every batch of @p specs against its items run one at a time. */
void
expectBatchesMatchSingles(const Device &dev,
                          const std::deque<BatchSpec> &specs)
{
    const double tH = 6.5;
    TaskPool one(1), two(2), four(4);
    for (bool scalar : {false, true}) {
        detail::simdDispatchForcedOff() = scalar;
        SimulatedQpu qpu(dev, 11);
        for (std::size_t b = 0; b < specs.size(); ++b) {
            const std::vector<JobResult> want =
                executeSingly(qpu, specs[b], tH);
            for (TaskPool *pool : {&one, &two, &four}) {
                expectBitEqual(
                    executeBatched(qpu, specs[b], tH, *pool), want,
                    dev.name + " batch " + std::to_string(b) +
                        (scalar ? " scalar" : " simd") + " threads " +
                        std::to_string(pool->threadCount()));
            }
        }
    }
    detail::simdDispatchForcedOff() = false;
}

// executeBatch shares the prefix ops of its items; none of that may
// move a bit of any item's result against executing it alone.
TEST(Backend, ExecuteBatchBitIdenticalToSingleExecutes)
{
    for (const char *name : {"ibmq_casablanca", "ideal"}) {
        const Device dev =
            std::string(name) == "ideal" ? makeIdealDevice(7)
                                         : deviceByName(name);
        expectBatchesMatchSingles(dev, gradientBatches(dev.coupling));
    }
}

/**
 * Gradient batches of a 5-qubit circuit whose qubits end on
 * interleaved non-diagonal ops (SX, X or a CX, never a trailing RZ), so
 * each qubit's last op still reads its coherences: a pass before it
 * that skipped that qubit's off-diagonal blocks would move the result.
 * One +-pi/2 WholeParameter pair per parameter.
 */
std::deque<BatchSpec>
tailBatches(const CouplingMap &map)
{
    const int n = 5;
    QuantumCircuit c(n, 2 * n);
    for (int q = 0; q < n; ++q)
        c.ry(q, ParamExpr::symbol(q));
    for (int q = 0; q + 1 < n; ++q)
        c.cx(q, q + 1);
    for (int q = 0; q < n; ++q)
        c.rz(q, ParamExpr::symbol(n + q));
    c.sx(0);
    c.sx(1);
    c.cx(2, 3);
    c.sx(4);
    c.x(1);
    c.sx(2);
    c.sx(3);
    c.measureAll();
    std::deque<BatchSpec> out;
    std::vector<double> base;
    for (int k = 0; k < 2 * n; ++k)
        base.push_back(-1.3 + 0.29 * k);
    for (int k = 0; k < 2 * n; ++k) {
        BatchSpec &spec = out.emplace_back();
        spec.circuits.push_back({transpile(c, map)});
        for (double sign : {1.0, -1.0}) {
            std::vector<double> shifted = base;
            shifted[k] += sign * 1.5707963267948966;
            spec.addJob(spec.circuits.back(), spec.bind(shifted));
        }
    }
    return out;
}

/** FNV-1a 64 over every batch's exact probabilities, in order. */
uint64_t
batchesDigest(SimulatedQpu &qpu, const std::deque<BatchSpec> &specs,
              double tH, TaskPool &pool)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    for (const BatchSpec &spec : specs) {
        for (const JobResult &r : executeBatched(qpu, spec, tH, pool)) {
            h ^= probabilityDigest(r.probabilities);
            h *= 0x100000001B3ULL;
        }
    }
    return h;
}

// Pins whole estimate batches to the bit, on every kernel variant and
// pool size: the mixed batch and the gradient batches of the 4-qubit
// VQE, the QAOA ring and the 7-qubit chain, and the SX/CX-ended family
// above. Unlike the batched-vs-single test, this also catches a change
// that moves a lone execute() and a batch alike.
TEST(Backend, GradientBatchProbabilitiesArePinnedBitwise)
{
    const Device dev = deviceByName("ibmq_casablanca");
    const std::deque<BatchSpec> gradient = gradientBatches(dev.coupling);
    const std::deque<BatchSpec> tail = tailBatches(dev.coupling);
    const uint64_t wantGradient = 0x7D633F30921E47A5ULL;
    const uint64_t wantTail = 0xE634C81D11FCA6F0ULL;
    TaskPool one(1), two(2), four(4);
    for (bool scalar : {false, true}) {
        detail::simdDispatchForcedOff() = scalar;
        SimulatedQpu qpu(dev, 11);
        for (TaskPool *pool : {&one, &two, &four}) {
            const std::string what =
                std::string(scalar ? "scalar" : "simd") + " threads " +
                std::to_string(pool->threadCount());
            EXPECT_EQ(batchesDigest(qpu, gradient, 6.5, *pool),
                      wantGradient)
                << what;
            EXPECT_EQ(batchesDigest(qpu, tail, 6.5, *pool), wantTail)
                << what;
        }
    }
    detail::simdDispatchForcedOff() = false;
}

// The schedule's own count of density-matrix blocks, pruned and not,
// for one fixed gradient batch of the 7-qubit chain: the +-pi/2 pair of
// its first parameter over every measurement group. It is a pure
// function of the batch, so the cut in work shows bit-exactly.
TEST(Backend, BatchWorkIsPinnedForChainGradient)
{
    const Device dev = deviceByName("ibmq_casablanca");
    const VqaProblem chain = batchProblems()[2];
    ExpectationEstimator est(chain.hamiltonian, chain.ansatz);
    std::deque<BatchSpec> specs(1);
    BatchSpec &spec = specs.front();
    spec.circuits.push_back(est.compileFor(dev.coupling));
    for (double sign : {1.0, -1.0}) {
        std::vector<double> shifted = chain.initialParams;
        shifted[0] += sign * 1.5707963267948966;
        spec.addJob(spec.circuits.back(), spec.bind(shifted));
    }
    std::deque<Rng> rngs;
    std::vector<ExecItem> items;
    for (const auto &[tc, params] : spec.items)
        items.push_back({tc, params, &rngs.emplace_back(1)});
    SimulatedQpu qpu(dev, 11);
    TaskPool one(1);
    const BatchWork work = qpu.batchWork(items, 6.5, one);
    EXPECT_EQ(work.blocks, 494464u);
    EXPECT_EQ(work.unprunedBlocks, 864256u);
    EXPECT_LT(work.blocks, work.unprunedBlocks);
    // A multi-thread pool plans the fanned schedule, which walks each
    // segment from the first branch's state: a count of its own.
    TaskPool four(4);
    const BatchWork fanned = qpu.batchWork(items, 6.5, four);
    EXPECT_EQ(fanned.blocks, 490368u);
    EXPECT_EQ(fanned.unprunedBlocks, 860160u);
    EXPECT_LT(fanned.blocks, fanned.unprunedBlocks);
}

// Two items whose fused ops agree but whose compact qubits sit on
// swapped physical qubits carry different noise: they may not share.
TEST(Backend, ExecuteBatchKeysOpsOnPhysicalQubits)
{
    const Device dev = deviceByName("ibmq_casablanca");
    QuantumCircuit c(2, 2);
    c.ry(0, ParamExpr::symbol(0));
    c.ry(1, ParamExpr::symbol(1));
    c.cx(0, 1);
    c.rx(0, ParamExpr::constant(0.4));
    c.measureAll();
    std::deque<BatchSpec> specs(1);
    BatchSpec &spec = specs.front();
    spec.circuits.push_back({transpile(c, dev.coupling)});
    TranspiledCircuit swapped = spec.circuits.back().front();
    std::swap(swapped.compactToPhysical[0], swapped.compactToPhysical[1]);
    spec.circuits.back().push_back(swapped);
    spec.addJob(spec.circuits.back(), spec.bind({0.3, 1.2}));
    expectBatchesMatchSingles(dev, specs);
}

} // namespace
} // namespace eqc
