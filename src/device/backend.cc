#include "device/backend.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/task_pool.h"
#include "quantum/density_matrix.h"
#include "quantum/kernel.h"
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
    /** Per compact qubit: the last noisy op on it (-1: none). */
    std::vector<int> lastOp;
    /** costTo[d]: kernel cost of noisy ops [0, d), a 2q op counting 4. */
    std::vector<std::size_t> costTo;
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
    plan->lastOp.assign(plan->numQubits, -1);
    plan->costTo.assign(1, 0);
    for (std::size_t d = 0; d < plan->noisy.ops.size(); ++d) {
        const FusedOp &op = plan->noisy.ops[d];
        plan->lastOp[op.q0] = static_cast<int>(d);
        if (op.twoQubit)
            plan->lastOp[op.q1] = static_cast<int>(d);
        plan->costTo.push_back(plan->costTo.back() + (op.twoQubit ? 4 : 1));
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
 * One batch's noisy walk, planned in full before any kernel runs (see
 * BatchPlanner): a table of compiled channels and a flat list of steps
 * over at most two density matrices, the working state and the anchor
 * (one saved branch state). Read-only once planned, so pool chunks
 * share it freely.
 */
struct SimulatedQpu::BatchSchedule
{
    /**
     * One fused op with its calibration noise, compiled to one
     * DensityMatrix call. Ops at one tree depth that pass sameOp()
     * share one channel.
     */
    struct Channel
    {
        enum class Kind : uint8_t {
            None,     ///< virtual op with no terms: nothing to apply
            Gate1,    ///< 1q unitary m (virtual RZs, or noise-free SX/X)
            Diag1,    ///< 1q diagonal m[0..1] (takes the dead mask)
            Gate2,    ///< 2q unitary m (incl. a noise-free CX)
            Diag2,    ///< 2q diagonal m[0..3]
            Thermal,  ///< explicit idle: thermal relaxation only
            Superop1, ///< SX/X: N1 * (W (x) conj(W)) (takes the mask)
            Cx,       ///< noisy CX: unitary m, depolarizing, thermal
        };
        Kind kind = Kind::None;
        int q0 = -1, q1 = -1;
        double err = 0.0;
        double gamma0 = 0.0, coherence0 = 1.0;
        double gamma1 = 0.0, coherence1 = 1.0;
        Complex m[16];

        void
        apply(DensityMatrix &dm, uint64_t dead) const
        {
            switch (kind) {
              case Kind::None:
                break;
              case Kind::Gate1:
                dm.applyGate1(m, q0);
                break;
              case Kind::Diag1:
                dm.applyDiag1(m, q0, dead);
                break;
              case Kind::Gate2:
                dm.applyGate2(m, q0, q1);
                break;
              case Kind::Diag2:
                dm.applyDiag2(m, q0, q1);
                break;
              case Kind::Thermal:
                dm.applyThermalRelaxation(q0, gamma0, coherence0);
                break;
              case Kind::Superop1:
                dm.applyChannelSuperop1(m, q0, dead);
                break;
              case Kind::Cx:
                dm.applyGate2DepolThermal2q(m, err, q0, gamma0, coherence0,
                                            q1, gamma1, coherence1);
                break;
            }
        }

        /** The pass honours a dead-qubit mask. */
        bool
        prunes() const
        {
            return kind == Kind::Diag1 || kind == Kind::Superop1;
        }

        /** Qubits its kernel passes act on. */
        int
        arity() const
        {
            return kind == Kind::Gate2 || kind == Kind::Diag2 ||
                           kind == Kind::Cx
                       ? 2
                       : 1;
        }

        /**
         * Kernel passes apply() makes: a noisy CX folds its unitary
         * into the noise pass only when it is a permutation-phase gate
         * (DensityMatrix::applyGate2DepolThermal2q).
         */
        int
        passes() const
        {
            if (kind == Kind::None)
                return 0;
            if (kind != Kind::Cx)
                return 1;
            Complex diag[4];
            detail::PermPhase pp;
            return detail::classifyGate(m, 4, diag, pp) ==
                           detail::GateKind::PermPhase
                       ? 1
                       : 2;
        }
    };

    struct Step
    {
        enum class Kind : uint8_t {
            Apply,    ///< channels[arg] on the working state
            Save,     ///< anchor = working state
            Load,     ///< working state = anchor
            Take,     ///< swap them: the anchor's last use
            Rebuild,  ///< working state = base (|0><0| when none)
            Read,     ///< item arg's probabilities from the state
            CopyRead, ///< item arg takes item from's probabilities
        };
        Kind kind;
        uint32_t arg = 0;
        uint32_t from = 0;
        /** Apply: the finished qubits (see detail::LiveBlocks1q). */
        uint64_t dead = 0;
    };

    /**
     * One circuit width's tree. Its trunk segment runs from |0><0|; on
     * a multi-thread pool the trunk ends at the first branch and each
     * class there is a segment of its own, run from a copy of the
     * trunk's final state (the base of its restores).
     */
    struct Tree
    {
        int numQubits = 0;
        uint32_t trunk = 0; ///< segment index
        uint32_t fans = 0;  ///< class segments trunk+1 .. trunk+fans
    };

    std::vector<Channel> channels;
    std::vector<Step> steps;
    /** Segment s is steps [segmentEnd[s - 1], segmentEnd[s]). */
    std::vector<uint32_t> segmentEnd;
    std::vector<Tree> trees;

    /** The blocks its apply steps' kernel passes process. */
    BatchWork
    work() const
    {
        BatchWork w;
        for (const Tree &tree : trees) {
            const uint32_t end = segmentEnd[tree.trunk + tree.fans];
            for (uint32_t k = tree.trunk ? segmentEnd[tree.trunk - 1] : 0;
                 k < end; ++k) {
                if (steps[k].kind != Step::Kind::Apply)
                    continue;
                const Channel &ch = channels[steps[k].arg];
                const uint64_t blocks =
                    static_cast<uint64_t>(ch.passes())
                    << (2 * (tree.numQubits - ch.arity()));
                w.unprunedBlocks += blocks;
                w.blocks += blocks >> __builtin_popcountll(steps[k].dead);
            }
        }
        return w;
    }

    /** Run segment @p seg on @p state, restoring from @p base. */
    void
    runSegment(uint32_t seg, DensityMatrix &state,
               std::unique_ptr<DensityMatrix> &anchor,
               const DensityMatrix *base,
               std::vector<std::vector<double>> &probs) const
    {
        const uint32_t end = segmentEnd[seg];
        for (uint32_t k = seg ? segmentEnd[seg - 1] : 0; k < end; ++k) {
            const Step &st = steps[k];
            switch (st.kind) {
              case Step::Kind::Apply:
                channels[st.arg].apply(state, st.dead);
                break;
              case Step::Kind::Save:
                if (anchor)
                    *anchor = state;
                else
                    anchor = std::make_unique<DensityMatrix>(state);
                break;
              case Step::Kind::Load:
                state = *anchor;
                break;
              case Step::Kind::Take:
                std::swap(state, *anchor);
                break;
              case Step::Kind::Rebuild:
                if (base)
                    state = *base;
                else
                    state.reset();
                break;
              case Step::Kind::Read:
                probs[st.arg] = state.probabilities();
                break;
              case Step::Kind::CopyRead:
                probs[st.arg] = probs[st.from];
                break;
            }
        }
    }

    /** Run every tree: per item, the exact probabilities. */
    void
    run(TaskPool &pool, std::vector<std::vector<double>> &probs) const
    {
        for (const Tree &tree : trees) {
            DensityMatrix state(tree.numQubits);
            std::unique_ptr<DensityMatrix> anchor;
            runSegment(tree.trunk, state, anchor, nullptr, probs);
            if (tree.fans == 0)
                continue;
            // Each pool chunk walks its classes serially over its own
            // two density matrices (nested in a busy pool, inline).
            pool.parallelJobs(tree.fans, [&](uint64_t b, uint64_t e) {
                DensityMatrix sub = state;
                std::unique_ptr<DensityMatrix> subAnchor;
                for (uint64_t c = b; c < e; ++c) {
                    if (c != b)
                        sub = state;
                    runSegment(tree.trunk + 1 + static_cast<uint32_t>(c),
                               sub, subAnchor, &state, probs);
                }
            });
        }
    }
};

/**
 * Plans one batch's noisy items as a prefix tree of their
 * NoisePreserving fused programs. Items that agree on fused ops [0, d)
 * share one state after them; the tree branches where their op d
 * differs (sameOp()). Ops are applied in program order on every path,
 * so each item's state is the one a lone execution builds, bit for
 * bit.
 *
 * Per circuit width, first every depth's ops are sorted into channel
 * classes over all the tree's items (which also names the tree: two
 * items share a node while they share every channel so far), then the
 * walk is laid out as steps. At a branch the first class continues in
 * place. Every other class restarts from the nearest state on hand:
 * the branch's own state in the anchor (its last class takes the
 * anchor's buffer and frees it), an ancestor branch's state there, or
 * else the base, replaying the shared ops since. A branch saves its
 * state in the anchor when it is free, or takes it from the ancestor
 * holding it when that ancestor's one rebuild from the base costs less
 * than the replays this branch's classes would make.
 *
 * Each apply also carries the qubits finished for every item below it
 * (no op from its depth on touches them), whose unread blocks its pass
 * may skip; a replay carries the mask of the branch it rebuilds. All
 * node member lists live in one reused buffer, partitioned in place.
 */
struct SimulatedQpu::BatchPlanner
{
    const NoiseContext &nc;
    const std::vector<ExecItem> &items;
    const std::vector<const ExecPlan *> &planOf;
    BatchSchedule sched;

    /** Qubits a dead mask can name. */
    static constexpr int kMaxQubits = 64;

    /** This tree's members; node ranges are partitioned in place. */
    std::vector<int> order;
    std::vector<int> scratch;
    /** Item i's op d runs chanAt[chanBase[i] + d]. */
    std::vector<uint32_t> chanBase;
    /** Per item: the previous member with its plan (-1: none). */
    std::vector<int> samePlan;
    std::vector<uint32_t> chanAt;
    /** One depth's classes: (representative item, channel). */
    std::vector<std::pair<int, uint32_t>> reps;
    /** Class boundaries of the open branches, a stack. */
    std::vector<uint32_t> bounds;

    // The serial walker being simulated (see BatchSchedule).
    int numQubits = 0;
    bool fanOut = false;
    bool anchored = false;
    std::size_t anchorDepth = 0;
    std::size_t baseDepth = 0;

    BatchPlanner(const NoiseContext &noise,
                 const std::vector<ExecItem> &batch,
                 const std::vector<const ExecPlan *> &plans)
        : nc(noise), items(batch), planOf(plans)
    {
    }

    /** Plan every width's tree (@p fan: fan the first branch out). */
    BatchSchedule
    plan(bool fan)
    {
        const std::size_t count = items.size();
        // Items mostly share their ops: room for twice the longest
        // program's channels, and as many steps again as ops, covers
        // a gradient batch without regrowth.
        std::size_t longest = 0;
        for (const ExecPlan *p : planOf)
            longest = std::max(longest, p->noisy.ops.size());
        sched.channels.reserve(2 * longest);
        sched.steps.reserve(4 * longest + 2 * count);
        sched.segmentEnd.reserve(2 * count);
        order.reserve(count);
        reps.reserve(count);
        bounds.reserve(2 * count + 2);
        chanBase.assign(count, 0);
        samePlan.assign(count, -1);
        std::vector<char> done(count, 0);
        for (std::size_t i = 0; i < count; ++i) {
            if (done[i])
                continue;
            numQubits = planOf[i]->numQubits;
            if (numQubits > kMaxQubits)
                panic("SimulatedQpu::executeBatch: circuit too wide");
            order.clear();
            for (std::size_t j = i; j < count; ++j) {
                if (planOf[j]->numQubits == numQubits) {
                    order.push_back(static_cast<int>(j));
                    done[j] = 1;
                }
            }
            classify();
            BatchSchedule::Tree &tree = sched.trees.emplace_back();
            tree.numQubits = numQubits;
            tree.trunk = static_cast<uint32_t>(sched.segmentEnd.size());
            fanOut = fan;
            anchored = false;
            baseDepth = 0;
            int last[kMaxQubits];
            lastOps(0, static_cast<uint32_t>(order.size()), last);
            descend(0, static_cast<uint32_t>(order.size()), 0, last);
            if (sched.segmentEnd.size() == tree.trunk)
                closeSegment();
        }
        return std::move(sched);
    }

    std::size_t
    length(int i) const
    {
        return planOf[i]->noisy.ops.size();
    }

    uint32_t
    chan(int i, std::size_t d) const
    {
        return chanAt[chanBase[i] + d];
    }

    /** Sort every depth's ops of the tree's items into channels. */
    void
    classify()
    {
        std::size_t total = 0, depth = 0;
        for (std::size_t k = 0; k < order.size(); ++k) {
            const int i = order[k];
            chanBase[i] = static_cast<uint32_t>(total);
            total += length(i);
            depth = std::max(depth, length(i));
            for (std::size_t j = k; j-- > 0;) {
                if (planOf[order[j]] == planOf[i]) {
                    samePlan[i] = order[j];
                    break;
                }
            }
        }
        chanAt.resize(total);
        for (std::size_t d = 0; d < depth; ++d) {
            reps.clear();
            for (int i : order) {
                if (length(i) <= d)
                    continue;
                // Most often the op of the last item on this circuit.
                const int j = samePlan[i];
                if (j >= 0 && sameParams(j, i, d)) {
                    chanAt[chanBase[i] + d] = chan(j, d);
                    continue;
                }
                auto r = std::find_if(
                    reps.begin(), reps.end(),
                    [&](const std::pair<int, uint32_t> &rep) {
                        return sameOp(rep.first, i, d);
                    });
                if (r == reps.end()) {
                    reps.emplace_back(
                        i, static_cast<uint32_t>(sched.channels.size()));
                    compile(i, d);
                    r = reps.end() - 1;
                }
                chanAt[chanBase[i] + d] = r->second;
            }
        }
    }

    /**
     * true when items @p a and @p b apply the same channel as their
     * op @p d: same operator structure, physical qubits (they select
     * the noise) and bound parameter values, all compared by bits.
     */
    bool
    sameOp(int a, int b, std::size_t d) const
    {
        if (planOf[a] == planOf[b])
            return sameParams(a, b, d);
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

    /**
     * sameOp() for items @p a and @p b on one plan: their op @p d is
     * one FusedOp, so only the parameter values it reads can differ.
     */
    bool
    sameParams(int a, int b, std::size_t d) const
    {
        const std::vector<double> &va = *items[a].params;
        const std::vector<double> &vb = *items[b].params;
        if (&va == &vb)
            return true;
        const FusedProgram &prog = planOf[a]->noisy;
        const FusedOp &x = prog.ops[d];
        for (int t = x.termBegin; t < x.termEnd; ++t) {
            const FusedTerm &term = prog.terms[t];
            for (int k = 0; k < term.numParams; ++k) {
                const int idx = term.params[k].index;
                if (idx >= 0 && !sameBits(va[idx], vb[idx]))
                    return false;
            }
        }
        return true;
    }

    static bool
    sameBits(double a, double b)
    {
        return std::memcmp(&a, &b, sizeof(double)) == 0;
    }

    /** Compile item @p i's fused op @p d, with its calibration noise. */
    void
    compile(int i, std::size_t d)
    {
        using Kind = BatchSchedule::Channel::Kind;
        const ExecPlan &plan = *planOf[i];
        const FusedOp &op = plan.noisy.ops[d];
        BatchSchedule::Channel &ch = sched.channels.emplace_back();
        ch.q0 = op.q0;
        ch.q1 = op.q1;
        // Evaluate the fused unitary (symbolic ops rebuild their at
        // most 4x4 product; gate+noise sequences below fold it into
        // one channel superoperator instead of applying it here).
        Complex scratch16[16];
        const Complex *u = op.entries;
        const bool hasUnitary = op.termBegin != op.termEnd;
        if (hasUnitary && op.symbolic) {
            fusedEntries(plan.noisy, op, *items[i].params, scratch16);
            u = scratch16;
        }

        switch (op.primary) {
          case GateType::RZ: {
            // Virtual-only op: implemented in software, no noise.
            if (!hasUnitary)
                break;
            const int sub = op.twoQubit ? 4 : 2;
            std::copy(u, u + (op.diagonal ? sub : sub * sub), ch.m);
            if (op.twoQubit)
                ch.kind = op.diagonal ? Kind::Diag2 : Kind::Gate2;
            else
                ch.kind = op.diagonal ? Kind::Diag1 : Kind::Gate1;
            break;
          }
          case GateType::ID: {
            // Explicit idle: thermal relaxation only, no unitary.
            const NoiseContext::QubitNoise &qn =
                nc.qubit(plan.physOf[op.q0]);
            ch.kind = Kind::Thermal;
            ch.gamma0 = qn.g1Gamma;
            ch.coherence0 = qn.g1Coherence;
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
                ch.kind = Kind::Gate1;
                std::memcpy(ch.m, w, sizeof(w));
                break;
            }
            Complex m[16];
            for (int kp = 0; kp < 2; ++kp)
                for (int bp = 0; bp < 2; ++bp)
                    for (int k = 0; k < 2; ++k)
                        for (int b = 0; b < 2; ++b)
                            m[(kp + 2 * bp) * 4 + (k + 2 * b)] =
                                w[kp * 2 + k] *
                                std::conj(w[bp * 2 + b]);
            matMul(ch.m, qn.n1, m, 4);
            ch.kind = Kind::Superop1;
            break;
          }
          case GateType::CX: {
            const int p0 = plan.physOf[op.q0];
            const int p1 = plan.physOf[op.q1];
            const auto key = std::minmax(p0, p1);
            const NoiseContext::CxNoise &cn =
                nc.cxFor(key.first, key.second);
            if (cn.hasZz) {
                // Residual ZZ phase accompanying the CX pulse
                // (swap-symmetric diagonal, orientation-free):
                // fold it into the fused unitary's entries.
                for (int r = 0; r < 4; ++r)
                    for (int c = 0; c < 4; ++c)
                        ch.m[r * 4 + c] = cn.zz[r] * u[r * 4 + c];
            } else {
                std::copy(u, u + 16, ch.m);
            }
            if (cn.trivial) {
                ch.kind = Kind::Gate2;
                break;
            }
            // One block-local pass for the unitary, depolarizing
            // and both endpoints' thermal relaxation (two when the
            // unitary is no permutation-phase gate to fold).
            ch.kind = Kind::Cx;
            const bool lo0 = p0 == key.first;
            ch.err = cn.err;
            ch.gamma0 = lo0 ? cn.gammaLo : cn.gammaHi;
            ch.coherence0 = lo0 ? cn.cohLo : cn.cohHi;
            ch.gamma1 = lo0 ? cn.gammaHi : cn.gammaLo;
            ch.coherence1 = lo0 ? cn.cohHi : cn.cohLo;
            break;
          }
          default:
            panic("SimulatedQpu: non-basis gate '" +
                  gateName(op.primary) + "' reached the backend");
        }
    }

    /** Per qubit, the last op index any member of [lo, hi) runs on it. */
    void
    lastOps(uint32_t lo, uint32_t hi, int *last) const
    {
        std::fill(last, last + numQubits, -1);
        for (uint32_t k = lo; k < hi; ++k) {
            const std::vector<int> &own = planOf[order[k]]->lastOp;
            for (int q = 0; q < numQubits; ++q)
                last[q] = std::max(last[q], own[q]);
        }
    }

    /** The qubits no op from depth @p d on touches, given @p last. */
    uint64_t
    deadAt(const int *last, std::size_t d) const
    {
        uint64_t dead = 0;
        for (int q = 0; q < numQubits; ++q)
            if (last[q] < static_cast<long>(d))
                dead |= uint64_t{1} << q;
        return dead;
    }

    void
    emit(BatchSchedule::Step::Kind kind, uint32_t arg = 0,
         uint32_t from = 0)
    {
        sched.steps.push_back({kind, arg, from, 0});
    }

    /** Apply channel @p c, skipping @p dead qubits where it can. */
    void
    emitApply(uint32_t c, uint64_t dead)
    {
        sched.steps.push_back({BatchSchedule::Step::Kind::Apply, c, 0,
                               sched.channels[c].prunes() ? dead : 0});
    }

    void
    closeSegment()
    {
        sched.segmentEnd.push_back(
            static_cast<uint32_t>(sched.steps.size()));
    }

    std::size_t
    cost(int i, std::size_t from, std::size_t to) const
    {
        return planOf[i]->costTo[to] - planOf[i]->costTo[from];
    }

    /**
     * Lay out the subtree of members order[lo, hi): items that share
     * fused ops [0, @p depth), whose state after them the walk holds.
     * @p last: lastOps() of those members.
     */
    void
    descend(uint32_t lo, uint32_t hi, std::size_t depth, const int *last)
    {
        for (;; ++depth) {
            // Items whose program ends here read the state once; the
            // others stay, in order.
            uint32_t live = lo;
            int reader = -1;
            for (uint32_t k = lo; k < hi; ++k) {
                const int i = order[k];
                if (length(i) != depth) {
                    order[live++] = i;
                } else if (reader < 0) {
                    emit(BatchSchedule::Step::Kind::Read,
                         static_cast<uint32_t>(i));
                    reader = i;
                } else {
                    emit(BatchSchedule::Step::Kind::CopyRead,
                         static_cast<uint32_t>(i),
                         static_cast<uint32_t>(reader));
                }
            }
            hi = live;
            if (lo == hi)
                return;

            // Every member continues with one channel, or the tree
            // branches here.
            const uint32_t c = chan(order[lo], depth);
            bool one = true;
            for (uint32_t k = lo + 1; k < hi && one; ++k)
                one = chan(order[k], depth) == c;
            if (!one) {
                branch(lo, hi, depth);
                return;
            }
            emitApply(c, deadAt(last, depth));
        }
    }

    /** Lay out every class of the branch over order[lo, hi). */
    void
    branch(uint32_t lo, uint32_t hi, std::size_t depth)
    {
        const std::size_t first = bounds.size();
        scratch.assign(order.begin() + lo, order.begin() + hi);
        uint32_t pos = lo;
        bounds.push_back(lo);
        for (std::size_t j = 0; j < scratch.size(); ++j) {
            if (scratch[j] < 0)
                continue;
            const uint32_t c = chan(scratch[j], depth);
            for (std::size_t jj = j; jj < scratch.size(); ++jj) {
                if (scratch[jj] >= 0 && chan(scratch[jj], depth) == c) {
                    order[pos++] = scratch[jj];
                    scratch[jj] = -1;
                }
            }
            bounds.push_back(pos);
        }
        const std::size_t k = bounds.size() - first - 1;
        const int rep = order[lo];
        const bool fan = fanOut;
        if (fan) {
            // The first branch on a multi-thread pool: the trunk ends
            // here, and each class is a segment of its own whose base
            // is this state.
            fanOut = false;
            closeSegment();
            sched.trees.back().fans = static_cast<uint32_t>(k);
            baseDepth = depth;
        } else if (!anchored || cost(rep, baseDepth, anchorDepth) <
                                    (k - 1) * cost(rep, anchorDepth, depth)) {
            // Save this state when the anchor is free, or when the
            // ancestor's state it holds costs less to rebuild from the
            // base than this branch's classes would replay from it.
            save(depth);
        }
        int branchLast[kMaxQubits], last[kMaxQubits];
        lastOps(lo, hi, branchLast);
        for (std::size_t c = 0; c < k; ++c) {
            const uint32_t cl = bounds[first + c];
            const uint32_t ch = bounds[first + c + 1];
            if (fan)
                anchored = false;
            else if (c > 0)
                restore(rep, depth, c + 1 == k, branchLast);
            lastOps(cl, ch, last);
            emitApply(chan(order[cl], depth), deadAt(last, depth));
            descend(cl, ch, depth + 1, last);
            if (fan)
                closeSegment();
        }
        bounds.resize(first);
    }

    /**
     * Bring the state back to the branch at @p depth, for its next
     * class (@p last: its final one); @p branchLast: the branch's
     * lastOps(), whose masks the replayed ops take.
     */
    void
    restore(int rep, std::size_t depth, bool last, const int *branchLast)
    {
        if (anchored && anchorDepth == depth) {
            if (last) {
                emit(BatchSchedule::Step::Kind::Take);
                anchored = false;
            } else {
                emit(BatchSchedule::Step::Kind::Load);
            }
            return;
        }
        // Otherwise a held anchor is an ancestor's state on this path.
        std::size_t from = baseDepth;
        if (anchored) {
            emit(BatchSchedule::Step::Kind::Load);
            from = anchorDepth;
        } else {
            emit(BatchSchedule::Step::Kind::Rebuild);
        }
        for (std::size_t r = from; r < depth; ++r)
            emitApply(chan(rep, r), deadAt(branchLast, r));
        if (!anchored && !last)
            save(depth);
    }

    void
    save(std::size_t depth)
    {
        emit(BatchSchedule::Step::Kind::Save);
        anchored = true;
        anchorDepth = depth;
    }
};

std::vector<std::shared_ptr<const SimulatedQpu::ExecPlan>>
SimulatedQpu::plansFor(const std::vector<ExecItem> &items,
                       std::vector<const ExecPlan *> &planOf)
{
    const std::size_t count = items.size();
    planOf.resize(count);
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
    return plans;
}

BatchWork
SimulatedQpu::batchWork(const std::vector<ExecItem> &items, double atTimeH,
                        TaskPool *pool)
{
    std::vector<const ExecPlan *> planOf;
    const auto plans = plansFor(items, planOf);
    const NoiseContext nc = noiseContextAt(atTimeH, plans);
    if (nc.noiseless)
        return {};
    TaskPool &p = pool ? *pool : TaskPool::shared();
    return BatchPlanner{nc, items, planOf}.plan(p.threadCount() > 1).work();
}

std::vector<JobResult>
SimulatedQpu::executeBatch(const std::vector<ExecItem> &items, int shots,
                           double atTimeH, bool sampleCounts,
                           TaskPool *pool)
{
    const std::size_t count = items.size();
    std::vector<const ExecPlan *> planOf;
    const auto plans = plansFor(items, planOf);
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
        // The planner's scratch is freed before the density matrices
        // are allocated.
        const BatchSchedule schedule =
            BatchPlanner{nc, items, planOf}.plan(p.threadCount() > 1);
        schedule.run(p, probs);
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
