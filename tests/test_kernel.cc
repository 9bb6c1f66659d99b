/**
 * @file
 * Randomized equivalence tests for the fast simulation kernels against
 * the reference implementation (detail::applyOperatorKernel), the
 * bit-identity of every AVX2 kernel with its scalar twin and of
 * liveness-masked passes with full ones, and the TaskPool's job
 * fan-out (the kernels themselves run serially).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <thread>

#include "common/rng.h"
#include "common/task_pool.h"
#include "device/backend.h"
#include "device/catalog.h"
#include "quantum/density_matrix.h"
#include "quantum/gates.h"
#include "quantum/kernel.h"
#include "quantum/kraus.h"
#include "quantum/simd_dispatch.h"
#include "support/run_helpers.h"

namespace eqc {
namespace {

CVector
randomState(uint64_t dim, uint64_t seed)
{
    Rng rng(seed);
    CVector v(dim);
    for (uint64_t i = 0; i < dim; ++i)
        v[i] = Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return v;
}

CMatrix
randomMatrix(std::size_t sub, uint64_t seed)
{
    Rng rng(seed);
    CMatrix m(sub, sub);
    for (std::size_t r = 0; r < sub; ++r)
        for (std::size_t c = 0; c < sub; ++c)
            m(r, c) =
                Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return m;
}

void
expectClose(const CVector &a, const CVector &b, double tol = 1e-10)
{
    ASSERT_EQ(a.size(), b.size());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    EXPECT_LE(worst, tol);
}

/** Entries of @p m flattened row-major. */
std::vector<Complex>
flat(const CMatrix &m)
{
    std::vector<Complex> out;
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            out.push_back(m(r, c));
    return out;
}

/** Reference two-bank application of U rho U^dagger on vectorized rho. */
void
superopReference(CVector &rho, int n, const CMatrix &u,
                 std::vector<int> qubits)
{
    const uint64_t full = uint64_t{1} << (2 * n);
    detail::applyOperatorKernel(rho, full, u, qubits);
    for (int &q : qubits)
        q += n;
    detail::applyOperatorKernel(rho, full, u.conjugate(), qubits);
}

/** Reference Kraus application: sum over copy-and-apply per operator. */
CVector
channelReference(const CVector &rho, int n, const KrausChannel &ch,
                 const std::vector<int> &qubits)
{
    CVector acc(rho.size(), Complex(0, 0));
    for (const CMatrix &k : ch.ops) {
        CVector tmp = rho;
        superopReference(tmp, n, k, qubits);
        for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] += tmp[i];
    }
    return acc;
}

TEST(Kernel, Gate1MatchesReference)
{
    const int n = 6;
    const uint64_t dim = uint64_t{1} << n;
    for (int q = 0; q < n; ++q) {
        CMatrix u = randomMatrix(2, 11 + q);
        CVector ref = randomState(dim, 99 + q);
        CVector fast = ref;
        detail::applyOperatorKernel(ref, dim, u, {q});
        detail::applyGate1(fast.data(), dim, flat(u).data(), q);
        expectClose(ref, fast);
    }
}

TEST(Kernel, Diag1MatchesReference)
{
    const int n = 6;
    const uint64_t dim = uint64_t{1} << n;
    for (int q = 0; q < n; ++q) {
        CMatrix u(2, 2);
        Rng rng(31 + q);
        u(0, 0) = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
        u(1, 1) = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
        CVector ref = randomState(dim, 7 + q);
        CVector fast = ref;
        detail::applyOperatorKernel(ref, dim, u, {q});
        detail::applyDiag1(fast.data(), dim, u(0, 0), u(1, 1), q);
        expectClose(ref, fast);
    }
}

TEST(Kernel, PermPhase1MatchesReference)
{
    const int n = 5;
    const uint64_t dim = uint64_t{1} << n;
    // Anti-diagonal with non-unit phases (a Y-like gate).
    CMatrix u(2, 2);
    u(0, 1) = Complex(0.0, -1.0);
    u(1, 0) = Complex(0.5, 0.5);
    detail::PermPhase pp;
    ASSERT_TRUE(detail::isPermPhase(flat(u).data(), 2, pp));
    EXPECT_FALSE(pp.unitPhases);
    EXPECT_EQ(pp.perm[0], 1);
    EXPECT_EQ(pp.perm[1], 0);
    for (int q = 0; q < n; ++q) {
        CVector ref = randomState(dim, 55 + q);
        CVector fast = ref;
        detail::applyOperatorKernel(ref, dim, u, {q});
        detail::applyPermPhase1(fast.data(), dim, pp, q);
        expectClose(ref, fast);
    }
}

TEST(Kernel, Gate2MatchesReferenceBothQubitOrders)
{
    const int n = 6;
    const uint64_t dim = uint64_t{1} << n;
    CMatrix u = randomMatrix(4, 17);
    for (auto [a, b] : {std::pair<int, int>{0, 3}, {3, 0}, {2, 5},
                        {4, 1}, {5, 4}}) {
        CVector ref = randomState(dim, 3 * a + b);
        CVector fast = ref;
        detail::applyOperatorKernel(ref, dim, u, {a, b});
        detail::applyGate2(fast.data(), dim, flat(u).data(), a, b);
        expectClose(ref, fast);
    }
}

TEST(Kernel, Diag2MatchesReference)
{
    const int n = 6;
    const uint64_t dim = uint64_t{1} << n;
    CMatrix u(4, 4);
    Rng rng(47);
    for (int j = 0; j < 4; ++j)
        u(j, j) = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    const Complex d[4] = {u(0, 0), u(1, 1), u(2, 2), u(3, 3)};
    for (auto [a, b] : {std::pair<int, int>{0, 1}, {4, 2}, {3, 5},
                        {5, 0}}) {
        CVector ref = randomState(dim, 9 * a + b);
        CVector fast = ref;
        detail::applyOperatorKernel(ref, dim, u, {a, b});
        detail::applyDiag2(fast.data(), dim, d, a, b);
        expectClose(ref, fast);
    }
}

TEST(Kernel, ClassifyGateDispatchesCorrectly)
{
    Complex d[4];
    detail::PermPhase pp;
    const std::vector<double> theta = {0.7};
    CMatrix rz = gateMatrix(GateType::RZ, theta);
    EXPECT_TRUE(detail::classifyGate(flat(rz).data(), 2, d, pp) ==
                detail::GateKind::Diagonal);
    EXPECT_EQ(d[0], rz(0, 0));
    EXPECT_EQ(d[1], rz(1, 1));
    CMatrix x = gateMatrix(GateType::X);
    EXPECT_TRUE(detail::classifyGate(flat(x).data(), 2, d, pp) ==
                detail::GateKind::PermPhase);
    CMatrix h = gateMatrix(GateType::H);
    EXPECT_TRUE(detail::classifyGate(flat(h).data(), 2, d, pp) ==
                detail::GateKind::General);
    CMatrix cx = gateMatrix(GateType::CX);
    EXPECT_TRUE(detail::classifyGate(flat(cx).data(), 4, d, pp) ==
                detail::GateKind::PermPhase);
    CMatrix rzz = gateMatrix(GateType::RZZ, theta);
    EXPECT_TRUE(detail::classifyGate(flat(rzz).data(), 4, d, pp) ==
                detail::GateKind::Diagonal);
}

TEST(Kernel, PermPhase2MatchesReferenceForCxAndSwap)
{
    const int n = 5;
    const uint64_t dim = uint64_t{1} << n;
    for (GateType t : {GateType::CX, GateType::SWAP}) {
        CMatrix u = gateMatrix(t);
        detail::PermPhase pp;
        ASSERT_TRUE(detail::isPermPhase(flat(u).data(), 4, pp));
        EXPECT_TRUE(pp.unitPhases);
        for (auto [a, b] : {std::pair<int, int>{0, 1}, {3, 1}, {2, 4}}) {
            CVector ref = randomState(dim, 77 + a + 5 * b);
            CVector fast = ref;
            detail::applyOperatorKernel(ref, dim, u, {a, b});
            detail::applyPermPhase2(fast.data(), dim, pp, a, b);
            expectClose(ref, fast);
        }
    }
}

TEST(Kernel, GateKMatchesReference)
{
    const int n = 6;
    const uint64_t dim = uint64_t{1} << n;
    CMatrix u = randomMatrix(8, 23);
    const int qubits[3] = {4, 0, 2};
    CVector ref = randomState(dim, 41);
    CVector fast = ref;
    detail::applyOperatorKernel(ref, dim, u, {4, 0, 2});
    detail::KernelScratch scratch;
    detail::applyGateK(fast.data(), dim, u, qubits, 3, scratch);
    expectClose(ref, fast);
    // Scratch is reusable across differing calls.
    const int qubits2[2] = {5, 1};
    CMatrix u2 = randomMatrix(4, 29);
    detail::applyOperatorKernel(ref, dim, u2, {5, 1});
    detail::applyGateK(fast.data(), dim, u2, qubits2, 2, scratch);
    expectClose(ref, fast);
}

TEST(Kernel, FusedSuperop1MatchesTwoPassReference)
{
    const int n = 4;
    const uint64_t full = uint64_t{1} << (2 * n);
    CMatrix u = randomMatrix(2, 61);
    for (int q = 0; q < n; ++q) {
        CVector ref = randomState(full, 13 + q);
        CVector fast = ref;
        superopReference(ref, n, u, {q});
        detail::applySuperop1(fast.data(), n, flat(u).data(), q);
        expectClose(ref, fast);
    }
}

TEST(Kernel, FusedSuperop2MatchesTwoPassReference)
{
    const int n = 4;
    const uint64_t full = uint64_t{1} << (2 * n);
    CMatrix u = randomMatrix(4, 67);
    for (auto [a, b] : {std::pair<int, int>{0, 1}, {2, 0}, {3, 1}}) {
        CVector ref = randomState(full, 19 + a + 7 * b);
        CVector fast = ref;
        superopReference(ref, n, u, {a, b});
        detail::applySuperop2(fast.data(), n, flat(u).data(), a, b);
        expectClose(ref, fast);
    }
}

TEST(Kernel, FusedSuperopDiagAndPermMatchReference)
{
    const int n = 4;
    const uint64_t full = uint64_t{1} << (2 * n);
    // Diagonal: RZ; permutation: X (unit phases) on the superoperator.
    CMatrix rz = gateMatrix(GateType::RZ, {0.83});
    CVector ref = randomState(full, 83);
    CVector fast = ref;
    superopReference(ref, n, rz, {2});
    const Complex d[2] = {rz(0, 0), rz(1, 1)};
    detail::applySuperopDiag1(fast.data(), n, d, 2);
    expectClose(ref, fast);

    CMatrix x = gateMatrix(GateType::X);
    detail::PermPhase pp;
    ASSERT_TRUE(detail::isPermPhase(flat(x).data(), 2, pp));
    superopReference(ref, n, x, {1});
    detail::applySuperopPerm1(fast.data(), n, pp, 1);
    expectClose(ref, fast);

    CMatrix cx = gateMatrix(GateType::CX);
    detail::PermPhase pp2;
    ASSERT_TRUE(detail::isPermPhase(flat(cx).data(), 4, pp2));
    superopReference(ref, n, cx, {3, 0});
    detail::applySuperopPerm2(fast.data(), n, pp2, 3, 0);
    expectClose(ref, fast);

    CMatrix rzz = gateMatrix(GateType::RZZ, {1.21});
    const Complex d4[4] = {rzz(0, 0), rzz(1, 1), rzz(2, 2), rzz(3, 3)};
    superopReference(ref, n, rzz, {1, 2});
    detail::applySuperopDiag2(fast.data(), n, d4, 1, 2);
    expectClose(ref, fast);
}

TEST(Kernel, ChannelSuperopMatrixMatchesReference)
{
    const int n = 3;
    const uint64_t full = uint64_t{1} << (2 * n);
    // 1q channel superoperator applies as a 2-"qubit" gate over the
    // ket and bra bit positions.
    for (const KrausChannel &ch :
         {depolarizing1q(0.13), amplitudeDamping(0.21),
          thermalRelaxation(80.0, 60.0, 1.5)}) {
        CVector state = randomState(full, 101 + ch.ops.size());
        CVector ref = channelReference(state, n, ch, {1});
        CVector fast = state;
        detail::applyGate2(fast.data(), full, ch.superopMatrix().data(),
                           1, 1 + n);
        expectClose(ref, fast);
    }

    KrausChannel dep2 = depolarizing2q(0.04);
    CVector state = randomState(full, 211);
    for (auto [a, b] : {std::pair<int, int>{0, 2}, {2, 0}, {1, 2}}) {
        CVector ref = channelReference(state, n, dep2, {a, b});
        CVector fast = state;
        detail::applySuperopMat2(fast.data(), n,
                                 dep2.superopMatrix().data(), a, b);
        expectClose(ref, fast);
    }
}

TEST(Kernel, GateEntriesMatchesGateMatrixForAllGates)
{
    const std::vector<double> angles = {0.91, -0.37, 2.13};
    for (GateType t :
         {GateType::ID, GateType::X, GateType::Y, GateType::Z,
          GateType::H, GateType::S, GateType::SDG, GateType::T,
          GateType::TDG, GateType::SX, GateType::RX, GateType::RY,
          GateType::RZ, GateType::U3, GateType::CX, GateType::CZ,
          GateType::SWAP, GateType::RZZ}) {
        std::vector<double> ps(angles.begin(),
                               angles.begin() + gateParamCount(t));
        CMatrix m = gateMatrix(t, ps);
        Complex entries[16];
        int sub = gateEntries(t, ps.data(), entries);
        ASSERT_EQ(static_cast<std::size_t>(sub), m.rows()) << gateName(t);
        if (isDiagonalGate(t)) {
            for (int j = 0; j < sub; ++j)
                EXPECT_EQ(entries[j], m(j, j)) << gateName(t);
        } else {
            for (int r = 0; r < sub; ++r)
                for (int c = 0; c < sub; ++c)
                    EXPECT_EQ(entries[r * sub + c], m(r, c))
                        << gateName(t);
        }
    }
}

/**
 * Run @p apply twice on the same random state — dispatched, then with
 * the SIMD kill switch forcing the scalar path — and require bitwise
 * equality. On builds/machines without the AVX2 variants both runs are
 * scalar and the check is vacuous (still green).
 */
template <typename Fn>
void
expectSimdMatchesScalar(uint64_t dim, uint64_t seed, Fn &&apply)
{
    CVector fast = randomState(dim, seed);
    CVector scalar = fast;
    apply(fast);
    detail::simdDispatchForcedOff() = true;
    apply(scalar);
    detail::simdDispatchForcedOff() = false;
    bool identical = true;
    for (std::size_t i = 0; identical && i < fast.size(); ++i)
        identical = fast[i] == scalar[i];
    EXPECT_TRUE(identical);
}

TEST(Kernel, SimdSuperopsBitIdenticalToScalar)
{
    const int n = 5;
    const uint64_t full = uint64_t{1} << (2 * n);
    const Complex d2[2] = {Complex(0.6, 0.8), Complex(-0.8, 0.6)};
    KrausChannel ch = thermalRelaxation(80.0, 60.0, 1.5);
    // A dense random matrix too: the channel's superoperator is mostly
    // zeros, which hides a reordered accumulation.
    const std::vector<Complex> dense = flat(randomMatrix(4, 419));
    for (int q = 0; q < n; ++q) {
        expectSimdMatchesScalar(full, 433 + q, [&](CVector &v) {
            detail::applySuperopDiag1(v.data(), n, d2, q);
        });
        expectSimdMatchesScalar(full, 439 + q, [&](CVector &v) {
            detail::applySuperopMat1(v.data(), n,
                                     ch.superopMatrix().data(), q);
        });
        expectSimdMatchesScalar(full, 443 + q, [&](CVector &v) {
            detail::applySuperopMat1(v.data(), n, dense.data(), q);
        });
    }
}

/**
 * Mismatches of a pass over @p n qubits told that @p dead qubits are
 * finished: each entry with ket bit = bra bit on every dead qubit must
 * hold the full pass's bits, and every other entry its input bits.
 */
uint64_t
maskedMismatches(const CVector &got, const CVector &full,
                 const CVector &input, int n, uint64_t dead)
{
    uint64_t bad = 0;
    for (uint64_t i = 0; i < got.size(); ++i) {
        const bool live = ((i ^ (i >> n)) & dead) == 0;
        bad += std::memcmp(&got[i], live ? &full[i] : &input[i],
                           sizeof(Complex)) != 0;
    }
    return bad;
}

/**
 * Every 1q pass on @p n qubits that takes a dead-qubit mask, on every
 * target and every mask in @p masks(target), against its unmasked pass
 * on a dense non-Hermitian state.
 */
void
expectMaskedPassesMatchFull(
    int n, const std::function<std::vector<uint64_t>(int)> &masks)
{
    const CVector input = randomState(uint64_t{1} << (2 * n), 461 + n);
    const std::vector<Complex> s = flat(randomMatrix(4, 463 + n));
    const Complex d[2] = {Complex(0.7, -0.4), Complex(-0.3, 1.1)};
    for (int q = 0; q < n; ++q) {
        CVector fullMat = input, fullDiag = input;
        detail::applySuperopMat1(fullMat.data(), n, s.data(), q);
        detail::applySuperopDiag1(fullDiag.data(), n, d, q);
        for (uint64_t dead : masks(q)) {
            CVector mat = input, diag = input;
            detail::applySuperopMat1(mat.data(), n, s.data(), q, dead);
            detail::applySuperopDiag1(diag.data(), n, d, q, dead);
            EXPECT_EQ(maskedMismatches(mat, fullMat, input, n, dead), 0u)
                << "superopMat1 n " << n << " qubit " << q << " dead "
                << dead;
            EXPECT_EQ(maskedMismatches(diag, fullDiag, input, n, dead), 0u)
                << "superopDiag1 n " << n << " qubit " << q << " dead "
                << dead;
        }
    }
}

// A pass told which qubits are finished computes only the blocks that
// can still be read, with the full pass's bits, on every kernel
// variant: all masks up to 6 qubits (a dead qubit 0 breaks the anchor
// runs; a target of 0 takes the packed AVX2 path), then 9 qubits with
// no, every, all-but-the-target and each single dead qubit.
TEST(Kernel, MaskedSuperopsMatchFullPassOnLiveEntries)
{
    for (bool scalar : {false, true}) {
        detail::simdDispatchForcedOff() = scalar;
        for (int n = 1; n <= 6; ++n) {
            expectMaskedPassesMatchFull(n, [n](int q) {
                std::vector<uint64_t> out;
                for (uint64_t dead = 0; dead >> n == 0; ++dead)
                    if ((dead >> q & 1) == 0)
                        out.push_back(dead);
                return out;
            });
        }
        expectMaskedPassesMatchFull(9, [](int q) {
            std::vector<uint64_t> out = {0, 0x1FFu & ~(1u << q)};
            for (int d = 0; d < 9; ++d)
                if (d != q)
                    out.push_back(uint64_t{1} << d);
            return out;
        });
    }
    detail::simdDispatchForcedOff() = false;
}

TEST(Kernel, SimdDepolThermal2qBitIdenticalToScalar)
{
    const int n = 5;
    CMatrix u = randomMatrix(4, 457);
    for (auto [a, b] :
         {std::pair<int, int>{2, 4}, {0, 3}, {1, 0}, {3, 2}}) {
        DensityMatrix fast(n);
        DensityMatrix scalar(n);
        fast.applyGate2(flat(u).data(), a, b);
        scalar.applyGate2(flat(u).data(), a, b);
        fast.applyDepolThermal2q(0.01, a, 0.002, 0.998, b, 0.003,
                                 0.997);
        detail::simdDispatchForcedOff() = true;
        scalar.applyDepolThermal2q(0.01, a, 0.002, 0.998, b, 0.003,
                                   0.997);
        detail::simdDispatchForcedOff() = false;
        bool identical = true;
        for (uint64_t r = 0; identical && r < fast.dim(); ++r)
            for (uint64_t c = 0; identical && c < fast.dim(); ++c)
                identical = fast.element(r, c) == scalar.element(r, c);
        EXPECT_TRUE(identical);
    }
}

/** Every element of @p dm, column-major (rho's storage order). */
CVector
elementsOf(const DensityMatrix &dm)
{
    CVector out;
    for (uint64_t c = 0; c < dm.dim(); ++c)
        for (uint64_t r = 0; r < dm.dim(); ++r)
            out.push_back(dm.element(r, c));
    return out;
}

/**
 * A dense, non-Hermitian 4^n vector: random 1q and 2q matrices spread
 * it over every element, random 1q superoperators break Hermiticity,
 * so no block slot is zero and no slot mirrors another.
 */
DensityMatrix
randomDensity(int n, uint64_t seed)
{
    DensityMatrix dm(n);
    for (int q = 0; q < n; ++q)
        dm.applyGate1(flat(randomMatrix(2, seed + q)).data(), q);
    for (int q = 0; q + 1 < n; q += 2)
        dm.applyGate2(flat(randomMatrix(4, seed + 17 + q)).data(), q,
                      (q + 3) % n);
    for (int q = 0; q < n; ++q)
        dm.applyChannelSuperop1(
            flat(randomMatrix(4, seed + 31 + q)).data(), q);
    return dm;
}

/** The 4x4 permutation-phase matrix whose row r is phase[r] at perm[r]. */
std::vector<Complex>
permPhaseMatrix(const int *perm, const Complex *phase)
{
    std::vector<Complex> u(16, Complex(0, 0));
    for (int r = 0; r < 4; ++r)
        u[r * 4 + perm[r]] = phase[r];
    return u;
}

TEST(Kernel, FoldedNoisyGate2BitIdenticalToTwoPasses)
{
    const int n = 5;
    const Complex one(1, 0);
    const int cxPerm[4] = {0, 3, 2, 1}; // control on bit 0
    const Complex unit[4] = {one, one, one, one};
    // RZ phases on both wires before and after the CX, multiplied into
    // its rows and columns like the fused plans do.
    Rng phaseRng(467);
    auto rz = [&](int j) {
        const double a = phaseRng.uniform(-3.0, 3.0);
        const double b = phaseRng.uniform(-3.0, 3.0);
        return std::polar(1.0, (j & 1 ? a : -a) + (j & 2 ? b : -b));
    };
    Complex left[4], right[4], zz[4];
    for (int j = 0; j < 4; ++j) {
        left[j] = rz(j);
        right[j] = rz(j);
    }
    for (int j = 0; j < 4; ++j)
        zz[j] = std::polar(1.0, j == 0 || j == 3 ? -0.013 : 0.013);
    const std::vector<Complex> cx = permPhaseMatrix(cxPerm, unit);
    std::vector<Complex> cxRz = cx, cxZz = cx;
    for (int r = 0; r < 4; ++r)
        for (int c = 0; c < 4; ++c) {
            cxRz[r * 4 + c] = left[r] * cx[r * 4 + c] * right[c];
            cxZz[r * 4 + c] = zz[r] * cxRz[r * 4 + c];
        }
    const int swapPerm[4] = {0, 2, 1, 3};
    const Complex iswapPhase[4] = {one, Complex(0, 1), Complex(0, 1), one};
    // Not an involution, so gathering through the inverse permutation
    // would show.
    const int cyclePerm[4] = {1, 2, 3, 0};
    const std::vector<Complex> unitaries[] = {
        cx, cxRz, cxZz, permPhaseMatrix(swapPerm, iswapPhase),
        permPhaseMatrix(cyclePerm, left),
        // Dense: not a permutation, so the entry point falls back.
        flat(randomMatrix(4, 479))};
    const std::size_t dense = 5;
    Complex diag[4];
    detail::PermPhase pp;
    ASSERT_TRUE(detail::classifyGate(unitaries[dense].data(), 4, diag,
                                     pp) == detail::GateKind::General);

    const DensityMatrix init = randomDensity(n, 487);
    const double lambda = 0.02;
    for (std::size_t k = 0; k < std::size(unitaries); ++k) {
        const Complex *u = unitaries[k].data();
        if (k != dense) {
            ASSERT_TRUE(detail::classifyGate(u, 4, diag, pp) ==
                        detail::GateKind::PermPhase);
        }
        for (int a = 0; a < n; ++a) {
            for (int b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                CVector folded[2];
                for (int scalar = 0; scalar < 2; ++scalar) {
                    detail::simdDispatchForcedOff() = scalar == 1;
                    DensityMatrix fold = init, twoPass = init;
                    fold.applyGate2DepolThermal2q(u, lambda, a, 0.004,
                                                  0.991, b, 0.006, 0.987);
                    twoPass.applyGate2(u, a, b);
                    twoPass.applyDepolThermal2q(lambda, a, 0.004, 0.991,
                                                b, 0.006, 0.987);
                    folded[scalar] = elementsOf(fold);
                    const CVector ref = elementsOf(twoPass);
                    EXPECT_EQ(std::memcmp(folded[scalar].data(),
                                          ref.data(),
                                          ref.size() * sizeof(Complex)),
                              0)
                        << "unitary " << k << " pair (" << a << ", " << b
                        << ") scalar " << scalar;
                }
                detail::simdDispatchForcedOff() = false;
                EXPECT_EQ(std::memcmp(folded[0].data(), folded[1].data(),
                                      folded[0].size() * sizeof(Complex)),
                          0)
                    << "unitary " << k << " pair (" << a << ", " << b
                    << ") SIMD vs scalar";
            }
        }
    }
}

/**
 * Whole-execute differential: SimulatedQpu::execute on random
 * transpiled circuits must give bitwise-equal probabilities with SIMD
 * dispatch on and forced off, on both the noisy density-matrix path
 * and the noiseless statevector path. Catches a dispatched kernel that
 * drifts from its scalar twin anywhere the per-kernel cases miss.
 */
TEST(Kernel, SimdExecuteBitIdenticalToScalar)
{
    const int n = 5;
    const std::vector<double> params = {0.37, -1.21};
    for (const Device &dev :
         {deviceByName("ibmq_quito"), makeIdealDevice(n)}) {
        for (uint64_t seed = 0; seed < 4; ++seed) {
            Rng circuitRng(461 + seed);
            QuantumCircuit c = randomCircuit(circuitRng, n, 40, 2, true);
            c.measureAll();
            TranspiledCircuit tc = transpile(c, dev.coupling);
            SimulatedQpu qpu(dev, 7);
            Rng rng(1);
            JobResult fast = qpu.execute(tc, params, 0, 2.5, rng, false);
            detail::simdDispatchForcedOff() = true;
            JobResult scalar = qpu.execute(tc, params, 0, 2.5, rng, false);
            detail::simdDispatchForcedOff() = false;
            EXPECT_TRUE(fast.probabilities == scalar.probabilities)
                << dev.name << " seed " << seed;
        }
    }
}

TEST(TaskPool, ParallelJobsFansOutSmallCounts)
{
    // parallelJobs fans out even when the job count is below the
    // participant count, and covers every index exactly once, from no
    // jobs (the body must never run) through one job to a count far
    // above the participant count. No chunk handed to the body is
    // empty: surplus participants skip theirs.
    TaskPool pool(4);
    for (uint64_t count : {uint64_t{0}, uint64_t{1}, uint64_t{3},
                           uint64_t{17}, uint64_t{100001}}) {
        std::vector<int> hits(count, 0);
        std::atomic<int> emptyChunks{0};
        pool.parallelJobs(count, [&](uint64_t b, uint64_t e) {
            if (b >= e)
                ++emptyChunks;
            for (uint64_t i = b; i < e; ++i)
                ++hits[i];
        });
        bool allOnce = true;
        for (uint64_t i = 0; i < count; ++i)
            allOnce = allOnce && hits[i] == 1;
        EXPECT_TRUE(allOnce) << "count " << count;
        EXPECT_EQ(emptyChunks.load(), 0) << "count " << count;
    }
}

TEST(TaskPool, ConcurrentSubmittersEachCoverTheirRange)
{
    // Two threads submit to one pool at once: whichever loses the
    // submit gate runs all of its jobs inline, so both ranges must
    // still be covered exactly once, round after round.
    TaskPool pool(3);
    const int rounds = 300;
    std::atomic<int> ready{0};
    auto submitter = [&](uint64_t count, int &badRounds) {
        ++ready;
        while (ready.load() < 2)
            std::this_thread::yield();
        std::vector<int> hits(count);
        for (int r = 0; r < rounds; ++r) {
            std::fill(hits.begin(), hits.end(), 0);
            pool.parallelJobs(count, [&](uint64_t b, uint64_t e) {
                for (uint64_t i = b; i < e; ++i)
                    ++hits[i];
            });
            if (std::count(hits.begin(), hits.end(), 1) !=
                static_cast<std::ptrdiff_t>(count))
                ++badRounds;
        }
    };
    int badA = 0, badB = 0;
    std::thread a(submitter, uint64_t{4099}, std::ref(badA));
    std::thread b(submitter, uint64_t{1031}, std::ref(badB));
    a.join();
    b.join();
    EXPECT_EQ(badA, 0);
    EXPECT_EQ(badB, 0);
}

TEST(TaskPool, NestedParallelJobsFallsBackInline)
{
    TaskPool pool(2);
    std::vector<int> hits(5000, 0);
    pool.parallelJobs(5000, [&](uint64_t b, uint64_t e) {
        // A nested call from inside a chunk body must not deadlock; it
        // degrades to inline execution of this chunk's jobs.
        pool.parallelJobs(e - b, [&](uint64_t b2, uint64_t e2) {
            for (uint64_t i = b + b2; i < b + e2; ++i)
                ++hits[i];
        });
    });
    bool allOnce = true;
    for (int h : hits)
        allOnce = allOnce && h == 1;
    EXPECT_TRUE(allOnce);
}

} // namespace
} // namespace eqc
