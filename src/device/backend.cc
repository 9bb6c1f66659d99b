#include "device/backend.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/task_pool.h"
#include "quantum/density_matrix.h"
#include "quantum/kraus.h"
#include "quantum/statevector.h"
#include "sim/fusion.h"

namespace eqc {

struct SimulatedQpu::ExecPlan
{
    int numQubits = 0;
    /** NoisePreserving fusion: the density-matrix (noisy) path. */
    FusedProgram noisy;
    /** Full fusion: the noiseless statevector fast path. */
    FusedProgram ideal;
    /** Compact qubit -> physical id (calibration lookups). */
    std::vector<int> physOf;
    /** MEASURE targets (compact qubits) in program order. */
    std::vector<int> measured;
    /** Physical (min, max) pairs of the circuit's CXs, sorted, unique. */
    std::vector<std::pair<int, int>> cxPairs;
    /**
     * Wall-clock duration of one execution (microseconds). Gate times
     * never drift (only error rates and coherences do), so this is a
     * pure function of the circuit and the base calibration.
     */
    double durationUs = 0.0;
    /** Exact structural identity, checked on every cache hit. */
    std::vector<uint64_t> signature;
};

struct SimulatedQpu::NoiseContext
{
    bool noiseless = false;

    /** Noise of one physical qubit a circuit of the batch uses. */
    struct QubitNoise
    {
        /** Actual calibration (its readout confusion applies at SPAM). */
        QubitCalibration cal;
        /** Thermal-relaxation factors for the 1q gate time. */
        double g1Gamma = 0.0, g1Coherence = 1.0;
        /** Coherent RX miscalibration, precompiled. */
        bool hasRx = false;
        Complex rx[4];
        /**
         * Post-gate noise superoperator for physical 1q gates: the 4x4
         * composition depolarizing(gate1qError) * thermal(1q gate time)
         * over the vectorized sub-index k + 2b. apply() left-multiplies
         * it onto each fused unitary's U (x) conj(U) so the whole
         * gate+noise sequence costs a single kernel pass.
         */
        Complex n1[16];
        /** n1 is the identity and no rx: plain unitary apply suffices. */
        bool n1Trivial = false;
    };
    /** Physical qubit -> index into qubits; -1 where unused. */
    std::vector<int> slotOf;
    std::vector<QubitNoise> qubits;

    /** Per-pair CX noise. */
    struct CxNoise
    {
        double err = 0.0;
        bool hasZz = false;
        Complex zz[4]; ///< residual ZZ phase (diag; swap-symmetric)
        /** No depolarizing / thermal: skip the noise pass. */
        bool trivial = false;
        /** Thermal factors over the CX duration per endpoint. */
        double gammaLo = 0.0, cohLo = 1.0;
        double gammaHi = 0.0, cohHi = 1.0;
    };
    /** Used coupled pairs, keyed by (min, max) physical ids, sorted. */
    std::vector<std::pair<std::pair<int, int>, CxNoise>> cx;

    const QubitNoise &
    qubit(int phys) const
    {
        return qubits[slotOf[phys]];
    }

    /** The noise of pair (@p lo, @p hi); panics on a pair not built. */
    const CxNoise &
    cxFor(int lo, int hi) const
    {
        const std::pair<int, int> key{lo, hi};
        auto it = std::lower_bound(
            cx.begin(), cx.end(), key,
            [](const auto &e, const std::pair<int, int> &k) {
                return e.first < k;
            });
        if (it == cx.end() || it->first != key)
            panic("SimulatedQpu: CX on uncoupled qubits");
        return it->second;
    }
};

namespace {

/**
 * Feed every word of a circuit's structural identity (width, parameter
 * table, physical mapping, each op with its angle expressions) to @p f.
 * Used twice per execute: once hashing, once verifying the cached plan
 * — both passes allocation-free.
 */
template <typename Fn>
void
forEachSignatureWord(const TranspiledCircuit &tc, Fn &&f)
{
    const QuantumCircuit &c = tc.compact;
    f(static_cast<uint64_t>(c.numQubits()));
    f(static_cast<uint64_t>(c.numParams()));
    for (int p : tc.compactToPhysical)
        f(static_cast<uint64_t>(p) + 1);
    for (const GateOp &op : c.ops()) {
        f((static_cast<uint64_t>(op.type) << 32) |
          (static_cast<uint64_t>(static_cast<uint16_t>(op.qubits[0] + 1))
           << 16) |
          static_cast<uint64_t>(static_cast<uint16_t>(op.qubits[1] + 1)));
        for (const ParamExpr &pe : op.params) {
            f(static_cast<uint64_t>(static_cast<int64_t>(pe.index)));
            uint64_t bits;
            std::memcpy(&bits, &pe.scale, sizeof(bits));
            f(bits);
            std::memcpy(&bits, &pe.offset, sizeof(bits));
            f(bits);
        }
    }
}

uint64_t
signatureHash(const TranspiledCircuit &tc)
{
    uint64_t h = 0xCBF29CE484222325ULL; // FNV-1a 64
    forEachSignatureWord(tc, [&](uint64_t w) {
        h ^= w;
        h *= 0x100000001B3ULL;
    });
    return h;
}

bool
signatureMatches(const TranspiledCircuit &tc,
                 const std::vector<uint64_t> &sig)
{
    bool match = true;
    std::size_t i = 0;
    forEachSignatureWord(tc, [&](uint64_t w) {
        if (match && (i >= sig.size() || sig[i] != w))
            match = false;
        ++i;
    });
    return match && i == sig.size();
}

/** Thermal-relaxation factors for @p qc over @p timeUs. */
void
thermalFactors(const QubitCalibration &qc, double timeUs, double &gamma,
               double &coherence)
{
    double t2 = std::min(qc.t2Us, 2.0 * qc.t1Us);
    gamma = 1.0 - std::exp(-timeUs / qc.t1Us);
    coherence = std::exp(-timeUs / t2);
}

/**
 * c = a * b for row-major sub x sub matrices (composing a channel
 * superoperator onto a unitary's U (x) conj(U) in execute()).
 */
void
matMul(Complex *c, const Complex *a, const Complex *b, int sub)
{
    for (int r = 0; r < sub; ++r)
        for (int col = 0; col < sub; ++col) {
            Complex s(0, 0);
            for (int k = 0; k < sub; ++k)
                s += a[r * sub + k] * b[k * sub + col];
            c[r * sub + col] = s;
        }
}

/** true when a qubit's calibration carries effectively no noise. */
bool
isNoiseless(const QubitCalibration &q)
{
    return !(q.gate1qError > 0.0 || q.readout.p01 > 0.0 ||
             q.readout.p10 > 0.0 || q.t1Us < 1e7);
}

} // namespace

SimulatedQpu::SimulatedQpu(Device dev, uint64_t seed)
    : dev_(std::move(dev)),
      tracker_(dev_.baseCalibration, dev_.drift,
               Rng(seed).fork("drift:" + dev_.name)),
      queue_(dev_.queue)
{
}

SimulatedQpu::~SimulatedQpu() = default;

SimulatedQpu::SimulatedQpu(SimulatedQpu &&other) noexcept
    : dev_(std::move(other.dev_)),
      tracker_(std::move(other.tracker_)),
      queue_(std::move(other.queue_)),
      planCache_(std::move(other.planCache_))
{
}

std::shared_ptr<const SimulatedQpu::ExecPlan>
SimulatedQpu::planFor(const TranspiledCircuit &tc)
{
    const uint64_t key = signatureHash(tc);
    {
        std::lock_guard<std::mutex> lk(planMu_);
        auto it = planCache_.find(key);
        if (it != planCache_.end() &&
            signatureMatches(tc, it->second->signature)) {
            return it->second;
        }
    }

    auto plan = std::make_shared<ExecPlan>();
    plan->numQubits = tc.compact.numQubits();
    plan->physOf = tc.compactToPhysical;
    forEachSignatureWord(
        tc, [&](uint64_t w) { plan->signature.push_back(w); });
    plan->noisy =
        fuseForSimulation(tc.compact, FusionMode::NoisePreserving);
    plan->ideal = fuseForSimulation(tc.compact, FusionMode::Full);
    plan->durationUs = circuitDurationUs(tc.compact, dev_.baseCalibration,
                                         tc.compactToPhysical);
    for (const GateOp &op : tc.compact.ops()) {
        if (op.type == GateType::MEASURE)
            plan->measured.push_back(op.qubits[0]);
        if (op.type == GateType::CX)
            plan->cxPairs.push_back(
                std::minmax(plan->physOf[op.qubits[0]],
                            plan->physOf[op.qubits[1]]));
    }
    std::sort(plan->cxPairs.begin(), plan->cxPairs.end());
    plan->cxPairs.erase(
        std::unique(plan->cxPairs.begin(), plan->cxPairs.end()),
        plan->cxPairs.end());

    std::lock_guard<std::mutex> lk(planMu_);
    // Possibly racing another builder, or evicting a hash collision;
    // either way the freshly built plan is a correct occupant, and
    // shared ownership keeps any in-flight reader's plan alive.
    planCache_[key] = plan;
    return plan;
}

bool
SimulatedQpu::planCacheContains(const TranspiledCircuit &tc) const
{
    const uint64_t key = signatureHash(tc);
    std::lock_guard<std::mutex> lk(planMu_);
    auto it = planCache_.find(key);
    return it != planCache_.end() &&
           signatureMatches(tc, it->second->signature);
}

SimulatedQpu::NoiseContext
SimulatedQpu::noiseContextAt(
    double tH,
    const std::vector<std::shared_ptr<const ExecPlan>> &plans) const
{
    NoiseContext nc;
    const CalibrationTracker::Drift drift = tracker_.driftAt(tH);
    const CalibrationSnapshot &base = tracker_.base();
    const int nq = static_cast<int>(base.qubits.size());

    // Noiseless means the whole chip at tH, not just the used qubits.
    nc.noiseless = true;
    for (int q = 0; q < nq && nc.noiseless; ++q)
        nc.noiseless = isNoiseless(tracker_.actualQubit(drift, q));
    for (const auto &[pair, err] : base.cxError) {
        if (!nc.noiseless)
            break;
        nc.noiseless =
            !(CalibrationTracker::actualCxError(drift, err) > 0.0);
    }
    if (nc.noiseless)
        return nc; // the statevector path reads no noise

    const double t1qUs = base.gate1qTimeNs / 1000.0;
    nc.slotOf.assign(nq, -1);
    for (const auto &plan : plans) {
        for (int p : plan->physOf) {
            if (nc.slotOf[p] >= 0)
                continue;
            nc.slotOf[p] = static_cast<int>(nc.qubits.size());
            NoiseContext::QubitNoise &qn = nc.qubits.emplace_back();
            qn.cal = tracker_.actualQubit(drift, p);
            const QubitCalibration &qc = qn.cal;
            thermalFactors(qc, t1qUs, qn.g1Gamma, qn.g1Coherence);
            if (qc.coherentRxRad != 0.0) {
                qn.hasRx = true;
                const double angle[1] = {qc.coherentRxRad};
                gateEntries(GateType::RX, angle, qn.rx);
            }
            // Thermal relaxation then depolarizing as one 4x4
            // superoperator, composed heap-free and bitwise equal to
            // the Kraus chain (quantum/kraus.h).
            thermalDepolarizingSuperop1q(qc.t1Us, qc.t2Us, t1qUs,
                                         qc.gate1qError, qn.n1);
            qn.n1Trivial = !qn.hasRx && qc.gate1qError <= 0.0 &&
                           qn.g1Gamma == 0.0 && qn.g1Coherence == 1.0;
        }
    }

    std::vector<std::pair<int, int>> pairs;
    for (const auto &plan : plans)
        pairs.insert(pairs.end(), plan->cxPairs.begin(),
                     plan->cxPairs.end());
    std::sort(pairs.begin(), pairs.end());
    pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
    for (const std::pair<int, int> &pair : pairs) {
        auto errIt = base.cxError.find(pair);
        auto timeIt = base.cxTimeNs.find(pair);
        if (errIt == base.cxError.end() || timeIt == base.cxTimeNs.end())
            continue; // uncoupled, or no duration on record: unusable
        NoiseContext::CxNoise cn;
        const double durUs = timeIt->second / 1000.0;
        const double phase = CalibrationTracker::actualCxPhase(
            drift, base.cxPhaseFor(pair.first, pair.second));
        if (phase != 0.0) {
            cn.hasZz = true;
            const double angle[1] = {phase};
            gateEntries(GateType::RZZ, angle, cn.zz);
        }
        cn.err = CalibrationTracker::actualCxError(drift, errIt->second);
        thermalFactors(nc.qubit(pair.first).cal, durUs, cn.gammaLo,
                       cn.cohLo);
        thermalFactors(nc.qubit(pair.second).cal, durUs, cn.gammaHi,
                       cn.cohHi);
        cn.trivial = cn.err <= 0.0 && cn.gammaLo == 0.0 &&
                     cn.cohLo == 1.0 && cn.gammaHi == 0.0 &&
                     cn.cohHi == 1.0;
        nc.cx.emplace_back(pair, cn);
    }
    return nc;
}

std::shared_ptr<const CalibrationSnapshot>
SimulatedQpu::reportedCalibration(double tH) const
{
    std::lock_guard<std::mutex> lk(reportedMu_);
    if (!reportedCal_ || reportedTimeH_ != tH) {
        reportedCal_ = std::make_shared<const CalibrationSnapshot>(
            tracker_.reported(tH));
        reportedTimeH_ = tH;
    }
    return reportedCal_;
}

/**
 * The walk of one batch's noisy items over a prefix tree of their
 * NoisePreserving fused programs. Items that agree on fused ops
 * [0, d) share one state after them; the tree branches where their op
 * d differs (sameOp()). Ops are applied in program order on every
 * path, so each item's state is the one a lone execution builds, bit
 * for bit.
 */
struct SimulatedQpu::BatchWalk
{
    const NoiseContext &nc;
    const std::vector<ExecItem> &items;
    /** Per item: its plan (one lookup per distinct circuit). */
    const std::vector<const ExecPlan *> &planOf;
    /** Per item: the exact state probabilities at its program's end. */
    std::vector<std::vector<double>> &probs;
    TaskPool &pool;

    /**
     * true when items @p a and @p b apply the same channel as their
     * op @p d: same operator structure, physical qubits (they select
     * the noise) and bound parameter values, all compared by bits.
     */
    bool
    sameOp(int a, int b, std::size_t d) const
    {
        const ExecPlan &pa = *planOf[a];
        const ExecPlan &pb = *planOf[b];
        const FusedOp &x = pa.noisy.ops[d];
        const FusedOp &y = pb.noisy.ops[d];
        const int numTerms = x.termEnd - x.termBegin;
        if (x.primary != y.primary || x.twoQubit != y.twoQubit ||
            x.diagonal != y.diagonal || x.symbolic != y.symbolic ||
            x.q0 != y.q0 || x.q1 != y.q1 ||
            numTerms != y.termEnd - y.termBegin)
            return false;
        if (pa.physOf[x.q0] != pb.physOf[y.q0] ||
            (x.twoQubit && pa.physOf[x.q1] != pb.physOf[y.q1]))
            return false;
        const std::vector<double> &va = *items[a].params;
        const std::vector<double> &vb = *items[b].params;
        for (int t = 0; t < numTerms; ++t) {
            const FusedTerm &s = pa.noisy.terms[x.termBegin + t];
            const FusedTerm &u = pb.noisy.terms[y.termBegin + t];
            if (s.type != u.type || s.wire != u.wire ||
                s.swapped != u.swapped || s.numParams != u.numParams)
                return false;
            for (int k = 0; k < s.numParams; ++k) {
                const ParamExpr &e = s.params[k];
                const ParamExpr &f = u.params[k];
                if (e.index != f.index || !sameBits(e.scale, f.scale) ||
                    !sameBits(e.offset, f.offset) ||
                    (e.index >= 0 &&
                     !sameBits(va[e.index], vb[e.index])))
                    return false;
            }
        }
        if (x.symbolic)
            return true;
        const int sub = x.twoQubit ? 4 : 2;
        const int count = x.diagonal ? sub : sub * sub;
        return std::memcmp(x.entries, y.entries,
                           count * sizeof(Complex)) == 0;
    }

    static bool
    sameBits(double a, double b)
    {
        return std::memcmp(&a, &b, sizeof(double)) == 0;
    }

    /** Apply item @p i's fused op @p d, with its calibration noise. */
    void
    apply(DensityMatrix &dm, int i, std::size_t d) const
    {
        const ExecPlan &plan = *planOf[i];
        const FusedOp &op = plan.noisy.ops[d];
        const std::vector<double> &params = *items[i].params;
        Complex scratch[16];
        // Evaluate the fused unitary (symbolic ops rebuild their at
        // most 4x4 product; gate+noise sequences below fold it into
        // one channel superoperator instead of applying it here).
        const Complex *u = op.entries;
        const bool hasUnitary = op.termBegin != op.termEnd;
        if (hasUnitary && op.symbolic) {
            fusedEntries(plan.noisy, op, params, scratch);
            u = scratch;
        }

        switch (op.primary) {
          case GateType::RZ:
            // Virtual-only op: implemented in software, no noise.
            if (hasUnitary) {
                if (op.twoQubit)
                    op.diagonal ? dm.applyDiag2(u, op.q0, op.q1)
                                : dm.applyGate2(u, op.q0, op.q1);
                else
                    op.diagonal ? dm.applyDiag1(u, op.q0)
                                : dm.applyGate1(u, op.q0);
            }
            break;
          case GateType::ID: {
            // Explicit idle: thermal relaxation only, no unitary.
            const NoiseContext::QubitNoise &qn =
                nc.qubit(plan.physOf[op.q0]);
            dm.applyThermalRelaxation(op.q0, qn.g1Gamma, qn.g1Coherence);
            break;
          }
          case GateType::SX:
          case GateType::X: {
            // One pass for the whole sequence the unfused executor
            // used to spread over up to four: fused unitary,
            // coherent miscalibration, thermal relaxation and
            // depolarizing compose into a single 4x4 channel
            // superoperator N1 * (W (x) conj(W)).
            const NoiseContext::QubitNoise &qn =
                nc.qubit(plan.physOf[op.q0]);
            Complex w[4];
            if (qn.hasRx)
                matMul(w, qn.rx, u, 2);
            else
                std::memcpy(w, u, sizeof(w));
            if (qn.n1Trivial) {
                dm.applyGate1(w, op.q0);
                break;
            }
            Complex m[16], s[16];
            for (int kp = 0; kp < 2; ++kp)
                for (int bp = 0; bp < 2; ++bp)
                    for (int k = 0; k < 2; ++k)
                        for (int b = 0; b < 2; ++b)
                            m[(kp + 2 * bp) * 4 + (k + 2 * b)] =
                                w[kp * 2 + k] *
                                std::conj(w[bp * 2 + b]);
            matMul(s, qn.n1, m, 4);
            dm.applyChannelSuperop1(s, op.q0);
            break;
          }
          case GateType::CX: {
            const int p0 = plan.physOf[op.q0];
            const int p1 = plan.physOf[op.q1];
            const auto key = std::minmax(p0, p1);
            const NoiseContext::CxNoise &cn =
                nc.cxFor(key.first, key.second);
            const Complex *w = u;
            Complex w2[16];
            if (cn.hasZz) {
                // Residual ZZ phase accompanying the CX pulse
                // (swap-symmetric diagonal, orientation-free):
                // fold it into the fused unitary's entries.
                for (int r = 0; r < 4; ++r)
                    for (int c = 0; c < 4; ++c)
                        w2[r * 4 + c] = cn.zz[r] * u[r * 4 + c];
                w = w2;
            }
            if (cn.trivial) {
                dm.applyGate2(w, op.q0, op.q1);
                break;
            }
            // One block-local pass for the unitary, depolarizing
            // and both endpoints' thermal relaxation.
            const bool lo0 = p0 == key.first;
            dm.applyGate2DepolThermal2q(
                w, cn.err, op.q0, lo0 ? cn.gammaLo : cn.gammaHi,
                lo0 ? cn.cohLo : cn.cohHi, op.q1,
                lo0 ? cn.gammaHi : cn.gammaLo,
                lo0 ? cn.cohHi : cn.cohLo);
            break;
          }
          default:
            panic("SimulatedQpu: non-basis gate '" +
                  gateName(op.primary) + "' reached the backend");
        }
    }

    /** Kernel cost of item @p i's ops [from, to): a 2q pass counts 4. */
    std::size_t
    cost(int i, std::size_t from, std::size_t to) const
    {
        std::size_t c = 0;
        for (std::size_t r = from; r < to; ++r)
            c += planOf[i]->noisy.ops[r].twoQubit ? 4 : 1;
        return c;
    }

    /**
     * One serial walk over at most two density matrices: the working
     * state and the anchor, one saved branch state.
     *
     * At a branch the first class continues in place. Every other
     * class restarts from the nearest state on hand: the branch's own
     * state in the anchor (its last class takes the anchor's buffer and
     * frees it), an ancestor branch's state there, or else the base, a
     * read-only state (|0><0| for the whole tree), replaying the shared
     * ops since. A branch saves its state in the anchor when it is
     * free, or takes it from the ancestor holding it when that
     * ancestor's one rebuild from the base costs less than the replays
     * this branch's classes would make.
     */
    struct Walker
    {
        Walker(const BatchWalk &walk, DensityMatrix start,
               const DensityMatrix *baseState, std::size_t depth,
               bool fanOutFirst)
            : bw(walk), work(std::move(start)), base(baseState),
              baseDepth(depth), fanOut(fanOutFirst)
        {
        }

        const BatchWalk &bw;
        DensityMatrix work;
        /** The state after ops [0, baseDepth); null means |0><0|. */
        const DensityMatrix *base;
        std::size_t baseDepth;
        /** Fan the classes of the first branch out through the pool. */
        bool fanOut;
        std::unique_ptr<DensityMatrix> anchor; ///< allocated on first use
        /**
         * The anchor holds the state of the active branch at
         * anchorDepth. Active branches (the one being walked and its
         * ancestors) have distinct depths, and each frees the anchor
         * when its last class takes it, so the depth names the owner.
         */
        bool anchored = false;
        std::size_t anchorDepth = 0;

        /**
         * Walk the subtree of @p members: items that share fused ops
         * [0, @p depth), whose state after them work holds.
         */
        void
        descend(std::vector<int> members, std::size_t depth)
        {
            for (;;) {
                // Advance while every member continues with one op.
                const int lead = members.front();
                while (std::all_of(
                    members.begin(), members.end(), [&](int i) {
                        return bw.planOf[i]->noisy.ops.size() > depth &&
                               bw.sameOp(lead, i, depth);
                    }))
                    bw.apply(work, lead, depth++);

                // Items whose program ends here read the state once.
                std::vector<int> live;
                const std::vector<double> *read = nullptr;
                for (int i : members) {
                    if (bw.planOf[i]->noisy.ops.size() != depth) {
                        live.push_back(i);
                    } else if (!read) {
                        bw.probs[i] = work.probabilities();
                        read = &bw.probs[i];
                    } else {
                        bw.probs[i] = *read;
                    }
                }
                if (live.empty())
                    return;

                // Classes of op identity at this depth, in order of
                // first appearance.
                std::vector<std::vector<int>> classes;
                for (int i : live) {
                    auto c = std::find_if(
                        classes.begin(), classes.end(),
                        [&](const std::vector<int> &cl) {
                            return bw.sameOp(cl[0], i, depth);
                        });
                    if (c == classes.end())
                        classes.push_back({i});
                    else
                        c->push_back(i);
                }
                if (classes.size() == 1) {
                    members = std::move(live);
                    continue;
                }
                branch(classes, depth);
                return;
            }
        }

        /** Walk every class of a branch at @p depth. */
        void
        branch(std::vector<std::vector<int>> &classes, std::size_t depth)
        {
            const std::size_t k = classes.size();
            if (fanOut) {
                // The first branch on a multi-thread pool: this state
                // is the base of one serial walk per pool chunk (nested
                // in a busy pool, the chunks run inline).
                bw.pool.parallelJobs(k, [&](uint64_t b, uint64_t e) {
                    Walker sub{bw, work, &work, depth, false};
                    for (uint64_t c = b; c < e; ++c) {
                        if (c != b)
                            sub.work = work;
                        bw.apply(sub.work, classes[c][0], depth);
                        sub.descend(std::move(classes[c]), depth + 1);
                    }
                });
                return;
            }
            const int rep = classes[0][0];
            // Save this state when the anchor is free, or when the
            // ancestor's state it holds costs less to rebuild from the
            // base than this branch's classes would replay from it.
            if (!anchored || bw.cost(rep, baseDepth, anchorDepth) <
                                 (k - 1) * bw.cost(rep, anchorDepth, depth))
                save(depth);
            for (std::size_t c = 0; c < k; ++c) {
                if (c > 0)
                    restore(rep, depth, c + 1 == k);
                bw.apply(work, classes[c][0], depth);
                descend(std::move(classes[c]), depth + 1);
            }
        }

        /**
         * Bring work back to the state of the branch at @p depth, for
         * its next class (@p last: its final one).
         */
        void
        restore(int rep, std::size_t depth, bool last)
        {
            if (anchored && anchorDepth == depth) {
                if (last) {
                    std::swap(work, *anchor);
                    anchored = false;
                } else {
                    work = *anchor;
                }
                return;
            }
            // Otherwise a held anchor is an ancestor's state on this
            // path.
            std::size_t from = baseDepth;
            if (anchored) {
                work = *anchor;
                from = anchorDepth;
            } else if (base) {
                work = *base;
            } else {
                work.reset();
            }
            for (std::size_t r = from; r < depth; ++r)
                bw.apply(work, rep, r);
            if (!anchored && !last)
                save(depth);
        }

        void
        save(std::size_t depth)
        {
            if (anchor)
                *anchor = work;
            else
                anchor = std::make_unique<DensityMatrix>(work);
            anchored = true;
            anchorDepth = depth;
        }
    };
};

std::vector<JobResult>
SimulatedQpu::executeBatch(const std::vector<ExecItem> &items, int shots,
                           double atTimeH, bool sampleCounts,
                           TaskPool *pool)
{
    const std::size_t count = items.size();
    std::vector<const ExecPlan *> planOf(count);
    // Owners of the looked-up plans; items naming one circuit share
    // one lookup.
    std::vector<std::shared_ptr<const ExecPlan>> plans;
    for (std::size_t i = 0; i < count; ++i) {
        const TranspiledCircuit *tc = items[i].tc;
        if (tc->compact.numQubits() < 1)
            panic("SimulatedQpu::executeBatch: empty circuit");
        std::size_t j = 0;
        while (j < i && items[j].tc != tc)
            ++j;
        if (j < i) {
            planOf[i] = planOf[j];
        } else {
            plans.push_back(planFor(*tc));
            planOf[i] = plans.back().get();
        }
    }

    const NoiseContext nc = noiseContextAt(atTimeH, plans);
    TaskPool &p = pool ? *pool : TaskPool::shared();
    std::vector<std::vector<double>> probs(count);
    if (nc.noiseless) {
        // Pure-state fast path for the ideal baseline: per item, the
        // Full-fusion program, one kernel pass per fused operator.
        p.parallelJobs(count, [&](uint64_t b, uint64_t e) {
            for (uint64_t i = b; i < e; ++i) {
                Statevector sv(planOf[i]->numQubits);
                applyFusedProgram(planOf[i]->ideal, *items[i].params, sv);
                probs[i] = sv.probabilities();
            }
        });
    } else {
        // One tree per circuit width, each from its own |0><0|.
        const BatchWalk walk{nc, items, planOf, probs, p};
        std::vector<char> done(count, 0);
        for (std::size_t i = 0; i < count; ++i) {
            if (done[i])
                continue;
            const int n = planOf[i]->numQubits;
            std::vector<int> members;
            for (std::size_t j = i; j < count; ++j) {
                if (planOf[j]->numQubits == n) {
                    members.push_back(static_cast<int>(j));
                    done[j] = 1;
                }
            }
            BatchWalk::Walker walker{walk, DensityMatrix(n), nullptr, 0,
                                     p.threadCount() > 1};
            walker.descend(std::move(members), 0);
        }
    }

    std::vector<JobResult> results(count);
    for (std::size_t i = 0; i < count; ++i) {
        const ExecPlan &plan = *planOf[i];
        JobResult &r = results[i];
        r.shots = shots;
        r.circuitDurationUs = plan.durationUs;
        r.probabilities = std::move(probs[i]);
        if (!nc.noiseless) {
            // SPAM: per-qubit readout confusion on the measured qubits.
            for (int q : plan.measured)
                applyReadoutError(r.probabilities, q,
                                  nc.qubit(plan.physOf[q]).cal.readout);
        }
        if (sampleCounts && shots > 0)
            r.counts = items[i].rng->multinomial(
                r.probabilities, static_cast<uint64_t>(shots));
    }
    return results;
}

JobResult
QuantumBackend::execute(const TranspiledCircuit &tc,
                        const std::vector<double> &params, int shots,
                        double atTimeH, Rng &rng, bool sampleCounts)
{
    return std::move(
        executeBatch({{&tc, &params, &rng}}, shots, atTimeH,
                     sampleCounts)[0]);
}

Device
makeIdealDevice(int numQubits, const std::string &name)
{
    Device d;
    d.name = name;
    d.numQubits = numQubits;
    d.processor = "ideal-simulator";
    d.quantumVolume = 1 << numQubits;
    d.topologyName = "All-to-all";
    std::vector<std::pair<int, int>> edges;
    for (int a = 0; a < numQubits; ++a)
        for (int b = a + 1; b < numQubits; ++b)
            edges.push_back({a, b});
    d.coupling = CouplingMap(numQubits, std::move(edges));

    CalibrationSnapshot cal;
    for (int q = 0; q < numQubits; ++q) {
        QubitCalibration qc;
        qc.t1Us = 1e9;
        qc.t2Us = 1e9;
        qc.gate1qError = 0.0;
        qc.readout = {0.0, 0.0};
        cal.qubits.push_back(qc);
    }
    for (const auto &[a, b] : d.coupling.edges()) {
        cal.cxError[{a, b}] = 0.0;
        cal.cxTimeNs[{a, b}] = 300.0;
    }
    d.baseCalibration = cal;

    DriftParams drift;
    drift.errorDriftPerHour = 0.0;
    drift.coherenceDriftPerHour = 0.0;
    drift.calQualitySigma = 0.0;
    drift.latentSigma = 0.0;
    d.drift = drift;

    QueueParams q;
    q.baseWaitS = 0.5;
    q.waitLogSigma = 0.1;
    q.congestionAmplitude = 0.0;
    q.jobOverheadS = 0.5;
    d.queue = q;
    return d;
}

} // namespace eqc
