#include "vqa/expectation.h"

#include <cmath>
#include <utility>

#include "common/logging.h"

namespace eqc {

QuantumCircuit
stripMeasurements(const QuantumCircuit &circuit)
{
    QuantumCircuit out(circuit.numQubits(), circuit.numParams());
    for (const GateOp &op : circuit.ops()) {
        if (op.type == GateType::MEASURE)
            continue;
        if (op.type == GateType::BARRIER) {
            out.barrier();
            continue;
        }
        out.addGate(op.type,
                    op.arity() == 2
                        ? std::vector<int>{op.qubits[0], op.qubits[1]}
                        : std::vector<int>{op.qubits[0]},
                    op.params);
    }
    return out;
}

double
idealEnergy(const QuantumCircuit &ansatz, const PauliSum &h,
            const std::vector<double> &params)
{
    Statevector sv = simulateIdeal(stripMeasurements(ansatz), params);
    double e = 0.0;
    for (const PauliTerm &t : h.terms())
        e += t.coefficient * sv.expectation(t.pauli);
    return e;
}

ExpectationEstimator::ExpectationEstimator(PauliSum hamiltonian,
                                           const QuantumCircuit &ansatz)
    : hamiltonian_(std::move(hamiltonian)),
      identityOffset_(hamiltonian_.identityOffset())
{
    if (hamiltonian_.numQubits() != ansatz.numQubits())
        fatal("ExpectationEstimator: Hamiltonian/ansatz width mismatch");

    QuantumCircuit prep = stripMeasurements(ansatz);
    const int n = prep.numQubits();

    // Group all non-identity terms; identity contributes a constant.
    PauliSum nonId(n);
    std::vector<std::size_t> nonIdIndex;
    for (std::size_t i = 0; i < hamiltonian_.terms().size(); ++i) {
        const PauliTerm &t = hamiltonian_.terms()[i];
        if (t.pauli.weight() == 0)
            continue;
        nonId.add(t.coefficient, t.pauli);
        nonIdIndex.push_back(i);
    }

    for (const auto &group : groupQubitwiseCommuting(nonId)) {
        MeasurementGroup mg;
        mg.circuit = prep;
        // Shared basis per qubit: the unique non-I factor in the group.
        std::vector<Pauli> basis(n, Pauli::I);
        for (std::size_t gi : group) {
            const PauliString &p = nonId.terms()[gi].pauli;
            uint64_t support = 0;
            for (int q = 0; q < n; ++q) {
                if (p.at(q) != Pauli::I) {
                    basis[q] = p.at(q);
                    support |= uint64_t{1} << q;
                }
            }
            mg.termIndices.push_back(nonIdIndex[gi]);
            mg.termLogicalMasks.push_back(support);
        }
        // Rotate X/Y bases to Z: X -> H; Y -> Sdg then H.
        for (int q = 0; q < n; ++q) {
            if (basis[q] == Pauli::X) {
                mg.circuit.h(q);
            } else if (basis[q] == Pauli::Y) {
                mg.circuit.sdg(q);
                mg.circuit.h(q);
            }
        }
        mg.circuit.measureAll();
        groups_.push_back(std::move(mg));
    }
}

std::vector<TranspiledCircuit>
ExpectationEstimator::compileFor(const CouplingMap &map,
                                 const TranspileOptions &opts) const
{
    std::vector<TranspiledCircuit> out;
    out.reserve(groups_.size());
    for (const MeasurementGroup &g : groups_)
        out.push_back(transpile(g.circuit, map, opts));
    return out;
}

ExpectationEstimator::GroupPartial
ExpectationEstimator::estimateGroup(
    const MeasurementGroup &g, const TranspiledCircuit &tc,
    JobResult job, int shots, Rng &rng, ShotMode mode,
    const CalibrationSnapshot *reported) const
{
    GroupPartial out;
    out.measurements = tc.counts.measurements;
    out.durationUs = job.circuitDurationUs;

    // The (quasi-)distribution expectations are computed from:
    // sampled counts in Multinomial mode, exact probabilities
    // otherwise; mitigated through the *reported* confusion.
    std::vector<double> dist;
    if (mode == ShotMode::Multinomial) {
        dist.assign(job.counts.size(), 0.0);
        double total = 0.0;
        for (uint64_t c : job.counts)
            total += static_cast<double>(c);
        if (total > 0.0)
            for (std::size_t o = 0; o < job.counts.size(); ++o)
                dist[o] = static_cast<double>(job.counts[o]) / total;
    } else {
        dist = std::move(job.probabilities);
    }
    if (reported) {
        for (const GateOp &op : tc.compact.ops()) {
            if (op.type != GateType::MEASURE)
                continue;
            int q = op.qubits[0];
            int phys = tc.compactToPhysical[q];
            applyReadoutMitigation(dist, q,
                                   reported->qubits[phys].readout);
        }
    }

    for (std::size_t k = 0; k < g.termIndices.size(); ++k) {
        const std::size_t ti = g.termIndices[k];
        const PauliTerm &term = hamiltonian_.terms()[ti];
        // Parity mask over compact qubits: remap the precomputed
        // logical support's set bits through the layout.
        uint64_t mask = 0;
        for (uint64_t m = g.termLogicalMasks[k]; m; m &= m - 1) {
            int q = __builtin_ctzll(m);
            mask |= uint64_t{1} << tc.logicalToCompact[q];
        }
        double exp = 0.0;
        for (std::size_t o = 0; o < dist.size(); ++o) {
            int par = __builtin_popcountll(o & mask) & 1;
            exp += par ? -dist[o] : dist[o];
        }
        if (mode == ShotMode::Gaussian && shots > 0) {
            double var = std::max(0.0, 1.0 - exp * exp) / shots;
            exp += rng.normal(0.0, std::sqrt(var));
        }
        out.energy += term.coefficient * exp;
        if (shots > 0) {
            double var = std::max(0.0, 1.0 - exp * exp) / shots;
            out.variance += term.coefficient * term.coefficient * var;
        }
    }
    return out;
}

std::vector<EnergyEstimate>
ExpectationEstimator::estimateBatch(QuantumBackend &backend,
                                    const std::vector<EstimateJob> &jobs,
                                    int shots, double atTimeH, Rng &rng,
                                    ShotMode mode, bool mitigateReadout,
                                    TaskPool *pool) const
{
    const std::size_t numGroups = groups_.size();
    for (const EstimateJob &job : jobs) {
        if (!job.compiled || !job.params ||
            job.compiled->size() != numGroups)
            panic("ExpectationEstimator::estimateBatch: "
                  "compilation mismatch");
    }

    std::shared_ptr<const CalibrationSnapshot> reported;
    if (mitigateReadout)
        reported = backend.reportedCalibration(atTimeH);
    const CalibrationSnapshot *rep = reported.get();

    // One parent draw seeds a per-execution fork lattice: every
    // (evaluation, group) circuit gets its own stream, so the parent
    // stream advances the same way for every batch size.
    const uint64_t forkBase = rng.nextU64();

    // The whole (evaluation x group) set is one backend batch: the
    // circuits share one submission time and long common prefixes.
    const std::size_t flat = jobs.size() * numGroups;
    std::vector<Rng> rngs;
    rngs.reserve(flat);
    std::vector<ExecItem> items;
    items.reserve(flat);
    for (std::size_t f = 0; f < flat; ++f) {
        rngs.emplace_back(Rng::forkSeed(forkBase, f));
        items.push_back({&(*jobs[f / numGroups].compiled)[f % numGroups],
                         jobs[f / numGroups].params, &rngs[f]});
    }
    std::vector<JobResult> runs =
        backend.executeBatch(items, shots, atTimeH,
                             mode == ShotMode::Multinomial, pool);

    std::vector<GroupPartial> parts;
    parts.reserve(flat);
    for (std::size_t f = 0; f < flat; ++f)
        parts.push_back(estimateGroup(groups_[f % numGroups], *items[f].tc,
                                      std::move(runs[f]), shots, rngs[f],
                                      mode, rep));

    std::vector<EnergyEstimate> out(jobs.size());
    for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
        EnergyEstimate &e = out[ji];
        e.energy = identityOffset_;
        for (std::size_t gi = 0; gi < numGroups; ++gi) {
            const GroupPartial &part = parts[ji * numGroups + gi];
            e.energy += part.energy;
            e.variance += part.variance;
            ++e.circuitsRun;
            e.measurements += part.measurements;
            e.totalDurationUs += part.durationUs;
        }
    }
    return out;
}

EnergyEstimate
ExpectationEstimator::estimate(
    QuantumBackend &backend,
    const std::vector<TranspiledCircuit> &compiled,
    const std::vector<double> &params, int shots, double atTimeH,
    Rng &rng, ShotMode mode, bool mitigateReadout, TaskPool *pool) const
{
    if (compiled.size() != groups_.size())
        panic("ExpectationEstimator::estimate: compilation mismatch");
    return estimateBatch(backend, {{&compiled, &params}}, shots, atTimeH,
                         rng, mode, mitigateReadout, pool)[0];
}

} // namespace eqc
