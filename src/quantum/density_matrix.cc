#include "quantum/density_matrix.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "quantum/kernel.h"
#include "quantum/pauli.h"
#include "quantum/simd_dispatch.h"
#include "quantum/statevector.h"

namespace eqc {

bool
DensityMatrix::validDeadMask(uint64_t deadQubits, int qubit) const
{
    return (deadQubits >> numQubits_) == 0 &&
           (deadQubits >> qubit & 1) == 0;
}

DensityMatrix::DensityMatrix(int numQubits)
    : numQubits_(numQubits),
      rho_(uint64_t{1} << (2 * numQubits), Complex(0, 0))
{
    if (numQubits < 1 || numQubits > 13)
        fatal("DensityMatrix: qubit count out of supported range [1,13]");
    rho_[0] = 1.0;
}

DensityMatrix
DensityMatrix::fromStatevector(const Statevector &sv)
{
    DensityMatrix dm(sv.numQubits());
    uint64_t d = dm.dim();
    // Column-major iteration: rho_ is indexed row + dim * col, so the
    // inner loop must walk rows for unit-stride writes.
    for (uint64_t c = 0; c < d; ++c) {
        const Complex conjC = std::conj(sv.amplitude(c));
        Complex *col = dm.rho_.data() + d * c;
        for (uint64_t r = 0; r < d; ++r)
            col[r] = sv.amplitude(r) * conjC;
    }
    return dm;
}

void
DensityMatrix::reset()
{
    std::fill(rho_.begin(), rho_.end(), Complex(0, 0));
    rho_[0] = 1.0;
}

void
DensityMatrix::applyGate1(const Complex *u, int qubit)
{
    if (qubit < 0 || qubit >= numQubits_)
        panic("DensityMatrix::applyGate1: qubit out of range");
    Complex d[2];
    detail::PermPhase pp;
    switch (detail::classifyGate(u, 2, d, pp)) {
      case detail::GateKind::Diagonal:
        detail::applySuperopDiag1(rho_.data(), numQubits_, d, qubit);
        break;
      case detail::GateKind::PermPhase:
        detail::applySuperopPerm1(rho_.data(), numQubits_, pp, qubit);
        break;
      case detail::GateKind::General:
        detail::applySuperop1(rho_.data(), numQubits_, u, qubit);
        break;
    }
}

void
DensityMatrix::applyDiag1(const Complex *d, int qubit, uint64_t deadQubits)
{
    if (qubit < 0 || qubit >= numQubits_ ||
        !validDeadMask(deadQubits, qubit))
        panic("DensityMatrix::applyDiag1: qubit or dead mask out of range");
    detail::applySuperopDiag1(rho_.data(), numQubits_, d, qubit,
                              deadQubits);
}

void
DensityMatrix::applyGate2(const Complex *u, int q0, int q1)
{
    if (q0 < 0 || q1 < 0 || q0 >= numQubits_ || q1 >= numQubits_ ||
        q0 == q1) {
        panic("DensityMatrix::applyGate2: invalid qubits");
    }
    Complex d[4];
    detail::PermPhase pp;
    switch (detail::classifyGate(u, 4, d, pp)) {
      case detail::GateKind::Diagonal:
        detail::applySuperopDiag2(rho_.data(), numQubits_, d, q0, q1);
        break;
      case detail::GateKind::PermPhase:
        detail::applySuperopPerm2(rho_.data(), numQubits_, pp, q0, q1);
        break;
      case detail::GateKind::General:
        detail::applySuperop2(rho_.data(), numQubits_, u, q0, q1);
        break;
    }
}

void
DensityMatrix::applyDiag2(const Complex *d, int q0, int q1)
{
    if (q0 < 0 || q1 < 0 || q0 >= numQubits_ || q1 >= numQubits_ ||
        q0 == q1) {
        panic("DensityMatrix::applyDiag2: invalid qubits");
    }
    detail::applySuperopDiag2(rho_.data(), numQubits_, d, q0, q1);
}

void
DensityMatrix::applyUnitary(const CMatrix &u, const std::vector<int> &qubits)
{
    for (int q : qubits)
        if (q < 0 || q >= numQubits_)
            panic("DensityMatrix::applyUnitary: qubit out of range");
    const std::size_t k = qubits.size();
    if (k == 1) {
        const Complex m[4] = {u(0, 0), u(0, 1), u(1, 0), u(1, 1)};
        applyGate1(m, qubits[0]);
        return;
    }
    if (k == 2) {
        Complex m[16];
        for (int r = 0; r < 4; ++r)
            for (int c = 0; c < 4; ++c)
                m[r * 4 + c] = u(r, c);
        applyGate2(m, qubits[0], qubits[1]);
        return;
    }
    // k >= 3 never occurs on hot paths; fall back to the two-pass
    // reference kernel (ket bank, then conj(U) on the bra bank).
    const uint64_t full = uint64_t{1} << (2 * numQubits_);
    detail::applyOperatorKernel(rho_, full, u, qubits);
    std::vector<int> bra(qubits.size());
    for (std::size_t i = 0; i < qubits.size(); ++i)
        bra[i] = qubits[i] + numQubits_;
    detail::applyOperatorKernel(rho_, full, u.conjugate(), bra);
}

void
DensityMatrix::applyChannel(const KrausChannel &ch,
                            const std::vector<int> &qubits)
{
    if (static_cast<int>(qubits.size()) != ch.arity)
        panic("DensityMatrix::applyChannel: arity mismatch");
    if (ch.ops.empty())
        panic("DensityMatrix::applyChannel: empty channel");
    for (int q : qubits)
        if (q < 0 || q >= numQubits_)
            panic("DensityMatrix::applyChannel: qubit out of range");
    // Fused path: gather each (ket, bra) block once and apply the
    // channel's precomputed superoperator matrix in place — no full-rho
    // copy per operator, no conjugate allocations, and a flop count
    // independent of how many Kraus operators the channel has.
    if (ch.arity == 1) {
        // The 4x4 superoperator is a 2-"qubit" gate over the ket bit
        // and the bra bit of the vectorized rho.
        detail::applyGate2(rho_.data(), uint64_t{1} << (2 * numQubits_),
                           ch.superopMatrix().data(), qubits[0],
                           qubits[0] + numQubits_);
        return;
    }
    if (ch.arity == 2) {
        detail::applySuperopMat2(rho_.data(), numQubits_,
                                 ch.superopMatrix().data(), qubits[0],
                                 qubits[1]);
        return;
    }
    // Reference path for arities the fused kernels do not cover.
    const uint64_t full = uint64_t{1} << (2 * numQubits_);
    std::vector<int> bra(qubits.size());
    for (std::size_t i = 0; i < qubits.size(); ++i)
        bra[i] = qubits[i] + numQubits_;
    CVector acc(rho_.size(), Complex(0, 0));
    for (const CMatrix &k : ch.ops) {
        CVector tmp = rho_;
        detail::applyOperatorKernel(tmp, full, k, qubits);
        detail::applyOperatorKernel(tmp, full, k.conjugate(), bra);
        for (std::size_t i = 0; i < acc.size(); ++i)
            acc[i] += tmp[i];
    }
    rho_ = std::move(acc);
}

void
DensityMatrix::applyChannelSuperop1(const Complex *s, int qubit,
                                    uint64_t deadQubits)
{
    if (qubit < 0 || qubit >= numQubits_ ||
        !validDeadMask(deadQubits, qubit))
        panic("applyChannelSuperop1: qubit or dead mask out of range");
    detail::applySuperopMat1(rho_.data(), numQubits_, s, qubit,
                             deadQubits);
}

namespace {

/**
 * Where each slot of a 16-element (ket, bra) block is gathered from
 * when a 2q permutation-phase unitary runs ahead of the noise: slot
 * j = r * 4 + s is stored back at dst[j] = ketOff[r] + braOff[s] and
 * loads f[j] * rho[anchor + src[j]], with src[j] = ketOff[perm[r]] +
 * braOff[perm[s]] and f[j] = phase[r] * conj(phase[s]) — the
 * applySuperopPerm2 arithmetic, so the folded pass is bitwise equal to
 * the unitary pass followed by the noise pass. The identity PermPhase
 * makes src == dst and skips the multiply (plain noise pass).
 */
struct BlockGather
{
    uint64_t dst[16];
    uint64_t src[16];
    Complex f[16];
    bool phased;
    uint64_t lows[4];

    BlockGather(const detail::PermPhase &pp, uint64_t kA, uint64_t kB,
                uint64_t bA, uint64_t bB)
        : phased(!pp.unitPhases),
          lows{std::min(kA, kB) - 1, std::max(kA, kB) - 1,
               std::min(bA, bB) - 1, std::max(bA, bB) - 1}
    {
        uint64_t ketOff[4], braOff[4];
        for (int j = 0; j < 4; ++j) {
            ketOff[j] = (j & 1 ? kA : 0) | (j & 2 ? kB : 0);
            braOff[j] = (j & 1 ? bA : 0) | (j & 2 ? bB : 0);
        }
        for (int r = 0; r < 4; ++r) {
            for (int s = 0; s < 4; ++s) {
                dst[r * 4 + s] = ketOff[r] + braOff[s];
                src[r * 4 + s] = ketOff[pp.perm[r]] + braOff[pp.perm[s]];
                f[r * 4 + s] = pp.phase[r] * std::conj(pp.phase[s]);
            }
        }
    }
};

#ifdef EQC_KERNEL_X86_DISPATCH

/**
 * AVX2 widening of the composed (permutation-phase unitary +)
 * depolarizing + per-qubit thermal pass: two anchors per iteration,
 * sixteen 2-complex block vectors in flight. The gather's phase factor
 * is detail::cxMul (the scalar complex product, no FMA); every later
 * operation is a real scalar times a complex value, applied in the
 * exact scalar sequence with plain mul/add intrinsics, so the result is
 * bit-identical to depolThermal2qPass's scalar loop. Requires
 * min(kA, kB) >= 2 (the qubit pair (0, 1) degenerates to length-1 runs
 * and stays scalar).
 */
__attribute__((target("avx2"))) void
depolThermal2qAvx2(Complex *rho, uint64_t nBlocks, const BlockGather &gather,
                   double lambda, double gA, double cA, double gB, double cB)
{
    double *d = reinterpret_cast<double *>(rho);
    const __m256d keep = _mm256_set1_pd(1.0 - lambda);
    const __m256d keepA = _mm256_set1_pd(1.0 - gA);
    const __m256d keepB = _mm256_set1_pd(1.0 - gB);
    const __m256d mixF = _mm256_set1_pd(0.25 * lambda);
    const __m256d vgA = _mm256_set1_pd(gA);
    const __m256d vcA = _mm256_set1_pd(cA);
    const __m256d vgB = _mm256_set1_pd(gB);
    const __m256d vcB = _mm256_set1_pd(cB);
    const BlockGather g = gather;
    // Runs are full and at least two long (a power of two), so anchors
    // always come in pairs.
    const uint64_t runCap = g.lows[0] + 1;
    for (uint64_t t = 0; t < nBlocks; t += runCap) {
        uint64_t start = t;
        for (int m = 0; m < 4; ++m)
            start = detail::depositZeroBit(start, g.lows[m]);
        for (uint64_t r = 0; r < runCap; r += 2) {
            const uint64_t i = start + r;
            __m256d v[16];
            for (int j = 0; j < 16; ++j)
                v[j] = _mm256_loadu_pd(d + 2 * (i + g.src[j]));
            if (g.phased)
                for (int j = 0; j < 16; ++j)
                    v[j] = detail::cxMul(v[j],
                                         _mm256_set1_pd(g.f[j].real()),
                                         _mm256_set1_pd(g.f[j].imag()));
            // Depolarizing: same add order as the scalar trace sum.
            const __m256d mix = _mm256_mul_pd(
                mixF, _mm256_add_pd(
                          _mm256_add_pd(_mm256_add_pd(v[0], v[5]),
                                        v[10]),
                          v[15]));
            for (int s = 0; s < 16; ++s)
                v[s] = _mm256_mul_pd(v[s], keep);
            v[0] = _mm256_add_pd(v[0], mix);
            v[5] = _mm256_add_pd(v[5], mix);
            v[10] = _mm256_add_pd(v[10], mix);
            v[15] = _mm256_add_pd(v[15], mix);
            // Thermal relaxation on qubit A (sub-bit 0 of ket/bra).
            for (int kB2 = 0; kB2 < 2; ++kB2)
                for (int bB2 = 0; bB2 < 2; ++bB2) {
                    const int base = 2 * kB2 * 4 + 2 * bB2;
                    v[base] = _mm256_add_pd(
                        v[base], _mm256_mul_pd(vgA, v[base + 5]));
                    v[base + 5] = _mm256_mul_pd(v[base + 5], keepA);
                    v[base + 4] = _mm256_mul_pd(v[base + 4], vcA);
                    v[base + 1] = _mm256_mul_pd(v[base + 1], vcA);
                }
            // Thermal relaxation on qubit B (sub-bit 1).
            for (int kA2 = 0; kA2 < 2; ++kA2)
                for (int bA2 = 0; bA2 < 2; ++bA2) {
                    const int base = kA2 * 4 + bA2;
                    v[base] = _mm256_add_pd(
                        v[base], _mm256_mul_pd(vgB, v[base + 10]));
                    v[base + 10] = _mm256_mul_pd(v[base + 10], keepB);
                    v[base + 8] = _mm256_mul_pd(v[base + 8], vcB);
                    v[base + 2] = _mm256_mul_pd(v[base + 2], vcB);
                }
            for (int j = 0; j < 16; ++j)
                _mm256_storeu_pd(d + 2 * (i + g.dst[j]), v[j]);
        }
    }
}

#endif // EQC_KERNEL_X86_DISPATCH

/**
 * The (permutation-phase unitary +) depolarizing + per-qubit thermal
 * pass behind applyDepolThermal2q and its gate fold.
 */
void
depolThermal2qPass(Complex *rho, int numQubits, const detail::PermPhase &pp,
                   double lambda, int qubitA, double gA, double cA,
                   int qubitB, double gB, double cB)
{
    const BlockGather g(pp, uint64_t{1} << qubitA, uint64_t{1} << qubitB,
                        uint64_t{1} << (qubitA + numQubits),
                        uint64_t{1} << (qubitB + numQubits));
    const uint64_t nBlocks = (uint64_t{1} << (2 * numQubits)) >> 4;
#ifdef EQC_KERNEL_X86_DISPATCH
    // lows[0] == 0: a pair including qubit 0 has length-1 runs.
    if (g.lows[0] > 0 && detail::cpuHasAvx2()) {
        depolThermal2qAvx2(rho, nBlocks, g, lambda, gA, cA, gB, cB);
        return;
    }
#endif
    const double keep = 1.0 - lambda;
    const double keepA = 1.0 - gA, keepB = 1.0 - gB;
    detail::forAnchorRuns<4>(nBlocks, g.lows,
                             [&](uint64_t start, uint64_t run) {
        Complex v[16];
        for (uint64_t r = 0; r < run; ++r) {
            const uint64_t i = start + r;
            if (g.phased)
                for (int j = 0; j < 16; ++j)
                    v[j] = g.f[j] * rho[i + g.src[j]];
            else
                for (int j = 0; j < 16; ++j)
                    v[j] = rho[i + g.src[j]];
            // Depolarizing.
            Complex mix =
                0.25 * lambda * (v[0] + v[5] + v[10] + v[15]);
            for (int s = 0; s < 16; ++s)
                v[s] *= keep;
            v[0] += mix;
            v[5] += mix;
            v[10] += mix;
            v[15] += mix;
            // Thermal relaxation on qubit A (sub-bit 0 of ket/bra).
            for (int kB2 = 0; kB2 < 2; ++kB2)
                for (int bB2 = 0; bB2 < 2; ++bB2) {
                    const int base = 2 * kB2 * 4 + 2 * bB2;
                    Complex &v00 = v[base];
                    Complex &v10 = v[base + 4];
                    Complex &v01 = v[base + 1];
                    Complex &v11 = v[base + 5];
                    v00 += gA * v11;
                    v11 *= keepA;
                    v10 *= cA;
                    v01 *= cA;
                }
            // Thermal relaxation on qubit B (sub-bit 1).
            for (int kA2 = 0; kA2 < 2; ++kA2)
                for (int bA2 = 0; bA2 < 2; ++bA2) {
                    const int base = kA2 * 4 + bA2;
                    Complex &v00 = v[base];
                    Complex &v10 = v[base + 8];
                    Complex &v01 = v[base + 2];
                    Complex &v11 = v[base + 10];
                    v00 += gB * v11;
                    v11 *= keepB;
                    v10 *= cB;
                    v01 *= cB;
                }
            for (int j = 0; j < 16; ++j)
                rho[i + g.dst[j]] = v[j];
        }
    });
}

} // namespace

void
DensityMatrix::applyDepolarizing1q(double lambda, int qubit)
{
    if (qubit < 0 || qubit >= numQubits_)
        panic("applyDepolarizing1q: qubit out of range");
    if (lambda <= 0.0)
        return;
    const double keep = 1.0 - lambda;
    const uint64_t kBit = uint64_t{1} << qubit;           // ket bank
    const uint64_t bBit = uint64_t{1} << (qubit + numQubits_); // bra bank
    const uint64_t lows[2] = {kBit - 1, bBit - 1};
    const uint64_t nBlocks = (uint64_t{1} << (2 * numQubits_)) >> 2;
    Complex *rho = rho_.data();
    detail::forAnchorRuns<2>(nBlocks, lows,
                             [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            // Block elements: (ket bit, bra bit) in {0,1}^2.
            const uint64_t i00 = start + r;
            const uint64_t i10 = i00 + kBit;
            const uint64_t i01 = i00 + bBit;
            const uint64_t i11 = i10 + bBit;
            Complex d0 = rho[i00], d1 = rho[i11];
            Complex avg = 0.5 * (d0 + d1);
            rho[i00] = keep * d0 + lambda * avg;
            rho[i11] = keep * d1 + lambda * avg;
            rho[i10] *= keep;
            rho[i01] *= keep;
        }
    });
}

void
DensityMatrix::applyDepolarizing2q(double lambda, int qubitA, int qubitB)
{
    if (qubitA < 0 || qubitB < 0 || qubitA >= numQubits_ ||
        qubitB >= numQubits_ || qubitA == qubitB) {
        panic("applyDepolarizing2q: invalid qubits");
    }
    if (lambda <= 0.0)
        return;
    const double keep = 1.0 - lambda;
    const uint64_t kA = uint64_t{1} << qubitA;
    const uint64_t kB = uint64_t{1} << qubitB;
    const uint64_t bA = uint64_t{1} << (qubitA + numQubits_);
    const uint64_t bB = uint64_t{1} << (qubitB + numQubits_);
    uint64_t ketOff[4], braOff[4];
    for (int j = 0; j < 4; ++j) {
        ketOff[j] = (j & 1 ? kA : 0) | (j & 2 ? kB : 0);
        braOff[j] = (j & 1 ? bA : 0) | (j & 2 ? bB : 0);
    }
    const uint64_t lows[4] = {
        std::min(kA, kB) - 1, std::max(kA, kB) - 1,
        std::min(bA, bB) - 1, std::max(bA, bB) - 1};
    const uint64_t nBlocks = (uint64_t{1} << (2 * numQubits_)) >> 4;
    Complex *rho = rho_.data();
    detail::forAnchorRuns<4>(nBlocks, lows,
                             [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            const uint64_t i = start + r;
            Complex tr(0, 0);
            for (int s = 0; s < 4; ++s)
                tr += rho[i + ketOff[s] + braOff[s]];
            Complex mix = 0.25 * lambda * tr;
            for (int ks = 0; ks < 4; ++ks) {
                for (int bs = 0; bs < 4; ++bs) {
                    Complex &v = rho[i + ketOff[ks] + braOff[bs]];
                    v *= keep;
                    if (ks == bs)
                        v += mix;
                }
            }
        }
    });
}

void
DensityMatrix::applyDepolThermal2q(double lambda, int qubitA,
                                   double gammaA, double coherenceA,
                                   int qubitB, double gammaB,
                                   double coherenceB)
{
    if (qubitA < 0 || qubitB < 0 || qubitA >= numQubits_ ||
        qubitB >= numQubits_ || qubitA == qubitB) {
        panic("applyDepolThermal2q: invalid qubits");
    }
    const detail::PermPhase identity{{0, 1, 2, 3}, {1, 1, 1, 1}, true};
    depolThermal2qPass(rho_.data(), numQubits_, identity, lambda, qubitA,
                       gammaA, coherenceA, qubitB, gammaB, coherenceB);
}

void
DensityMatrix::applyGate2DepolThermal2q(const Complex *u, double lambda,
                                        int qubitA, double gammaA,
                                        double coherenceA, int qubitB,
                                        double gammaB, double coherenceB)
{
    if (qubitA < 0 || qubitB < 0 || qubitA >= numQubits_ ||
        qubitB >= numQubits_ || qubitA == qubitB) {
        panic("applyGate2DepolThermal2q: invalid qubits");
    }
    // classifyGate rather than isPermPhase alone: a diagonal unitary
    // takes applyGate2's diagonal kernel, whose unit-phase multiply the
    // fold would skip, so only a true permutation-phase gate is folded.
    Complex diag[4];
    detail::PermPhase pp;
    if (detail::classifyGate(u, 4, diag, pp) !=
        detail::GateKind::PermPhase) {
        applyGate2(u, qubitA, qubitB);
        applyDepolThermal2q(lambda, qubitA, gammaA, coherenceA, qubitB,
                            gammaB, coherenceB);
        return;
    }
    depolThermal2qPass(rho_.data(), numQubits_, pp, lambda, qubitA, gammaA,
                       coherenceA, qubitB, gammaB, coherenceB);
}

void
DensityMatrix::applyThermalRelaxation(int qubit, double gamma,
                                      double coherence)
{
    if (qubit < 0 || qubit >= numQubits_)
        panic("applyThermalRelaxation: qubit out of range");
    const double keepPop = 1.0 - gamma;
    const uint64_t kBit = uint64_t{1} << qubit;
    const uint64_t bBit = uint64_t{1} << (qubit + numQubits_);
    const uint64_t lows[2] = {kBit - 1, bBit - 1};
    const uint64_t nBlocks = (uint64_t{1} << (2 * numQubits_)) >> 2;
    Complex *rho = rho_.data();
    detail::forAnchorRuns<2>(nBlocks, lows,
                             [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            const uint64_t i00 = start + r;
            const uint64_t i10 = i00 + kBit;
            const uint64_t i01 = i00 + bBit;
            const uint64_t i11 = i10 + bBit;
            rho[i00] += gamma * rho[i11];
            rho[i11] *= keepPop;
            rho[i10] *= coherence;
            rho[i01] *= coherence;
        }
    });
}

Complex
DensityMatrix::element(uint64_t row, uint64_t col) const
{
    return rho_[row + dim() * col];
}

std::vector<double>
DensityMatrix::probabilities() const
{
    const uint64_t d = dim();
    std::vector<double> p(d);
    for (uint64_t b = 0; b < d; ++b)
        p[b] = std::max(0.0, rho_[b + d * b].real());
    return p;
}

double
DensityMatrix::expectation(const PauliString &pauli) const
{
    // Tr(P rho) = sum_c lambda(c) <c| rho |c ^ xmask>.
    const uint64_t xmask = pauli.xMask();
    const uint64_t zmask = pauli.zMask();
    const int yCount =
        static_cast<int>(__builtin_popcountll(xmask & zmask));
    static const Complex iPow[4] = {{1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    const Complex global = iPow[yCount & 3];
    const uint64_t d = dim();
    Complex acc(0, 0);
    for (uint64_t c = 0; c < d; ++c) {
        int par = __builtin_popcountll(c & zmask) & 1;
        Complex lambda = par ? -global : global;
        acc += lambda * rho_[c + d * (c ^ xmask)];
    }
    return acc.real();
}

double
DensityMatrix::trace() const
{
    const uint64_t d = dim();
    double t = 0.0;
    for (uint64_t b = 0; b < d; ++b)
        t += rho_[b + d * b].real();
    return t;
}

double
DensityMatrix::purity() const
{
    // Tr(rho^2) = sum_{r,c} rho[r,c] * rho[c,r] = sum |rho[r,c]|^2 for
    // Hermitian rho.
    double s = 0.0;
    for (const Complex &v : rho_)
        s += std::norm(v);
    return s;
}

} // namespace eqc
