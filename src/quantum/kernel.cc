#include "quantum/kernel.h"

#include <algorithm>

// Runtime-dispatched SIMD paths (cpuid-gated, portable binaries).
// -DEQC_NO_SIMD_DISPATCH opts out, e.g. to benchmark the scalar path.
// The gate and the cpuid probe are shared with density_matrix.cc
// through quantum/simd_dispatch.h.
#include "quantum/simd_dispatch.h"

namespace eqc {
namespace detail {

// Every kernel below runs one serial pass over all of its blocks, with
// its operands copied into locals whose addresses never escape, so the
// compiler keeps them in registers. Each public kernel holds its own
// loop, with two exceptions: the AVX2 variants, which need the avx2
// target attribute (the portable kernel calls its twin when the CPU
// has AVX2), and superop2Blocks (see there).

namespace {

#ifdef EQC_KERNEL_X86_DISPATCH

// The AVX2 variants below are built from cxMul/cxMulAdd (see
// quantum/simd_dispatch.h): mul/addsub only, no FMA, scalar
// accumulation order — bit-identical to the scalar workers.

/** Two complex slots, at @p lo and @p hi, as one 256-bit vector. */
__attribute__((target("avx2"), always_inline)) static inline __m256d
loadPair(const double *lo, const double *hi)
{
    return _mm256_insertf128_pd(_mm256_castpd128_pd256(_mm_loadu_pd(lo)),
                                _mm_loadu_pd(hi), 1);
}

/** Store the two complex lanes of @p v to @p lo and @p hi. */
__attribute__((target("avx2"), always_inline)) static inline void
storePair(double *lo, double *hi, __m256d v)
{
    _mm_storeu_pd(lo, _mm256_castpd256_pd128(v));
    _mm_storeu_pd(hi, _mm256_extractf128_pd(v, 1));
}

/**
 * The 4x4 mat-vec of superopMat1 on two blocks at once, one per
 * 128-bit lane: @p v0..v3 hold the blocks' slots j = k + 2b.
 */
__attribute__((target("avx2"), always_inline)) static inline void
mat1Lanes(const __m256d *mr, const __m256d *mi, __m256d &v0, __m256d &v1,
          __m256d &v2, __m256d &v3)
{
    __m256d n0 = cxMul(v0, mr[0], mi[0]);
    n0 = cxMulAdd(n0, v1, mr[1], mi[1]);
    n0 = cxMulAdd(n0, v2, mr[2], mi[2]);
    n0 = cxMulAdd(n0, v3, mr[3], mi[3]);
    __m256d n1 = cxMul(v0, mr[4], mi[4]);
    n1 = cxMulAdd(n1, v1, mr[5], mi[5]);
    n1 = cxMulAdd(n1, v2, mr[6], mi[6]);
    n1 = cxMulAdd(n1, v3, mr[7], mi[7]);
    __m256d n2 = cxMul(v0, mr[8], mi[8]);
    n2 = cxMulAdd(n2, v1, mr[9], mi[9]);
    n2 = cxMulAdd(n2, v2, mr[10], mi[10]);
    n2 = cxMulAdd(n2, v3, mr[11], mi[11]);
    __m256d n3 = cxMul(v0, mr[12], mi[12]);
    n3 = cxMulAdd(n3, v1, mr[13], mi[13]);
    n3 = cxMulAdd(n3, v2, mr[14], mi[14]);
    n3 = cxMulAdd(n3, v3, mr[15], mi[15]);
    v0 = n0;
    v1 = n1;
    v2 = n2;
    v3 = n3;
}

/**
 * AVX2 widening of the dense 4x4 channel superoperator apply —
 * the hottest noisy-path kernel (every SX/X rides through it as a
 * composed gate+noise pass). Bit-identical to applySuperopMat1's
 * scalar loop on every live block; dead blocks (see LiveBlocks1q) are
 * not touched.
 *
 * Three shapes: for kBit == 1 (qubit 0, where every anchor run
 * degenerates to length one) the block's ket pair (v0, v1) is adjacent
 * in memory, so one 256-bit vector holds it and the 4x4 mat-vec runs
 * as four broadcast-input x packed-row-pair products per output
 * vector; for runs of two or more, two adjacent anchors per
 * iteration; and when a dead qubit 0 leaves runs of one, two
 * consecutive live anchors per iteration, one per 128-bit lane.
 */
__attribute__((target("avx2"))) void
superopMat1Avx2(Complex *rho, const Complex *s, LiveBlocks1q lb)
{
    double *d = reinterpret_cast<double *>(rho);
    Complex m[16];
    for (int j = 0; j < 16; ++j)
        m[j] = s[j];
    const uint64_t kBit = lb.kBit;
    const uint64_t bBit = lb.bBit;

    if (kBit == 1) {
        // Row pairs packed per 128-bit half: lane half 0 applies row a,
        // half 1 row a+1, so one broadcast input feeds both rows.
        __m256d crA[4], ciA[4], crB[4], ciB[4];
        for (int j = 0; j < 4; ++j) {
            crA[j] = _mm256_setr_pd(m[j].real(), m[j].real(),
                                    m[4 + j].real(), m[4 + j].real());
            ciA[j] = _mm256_setr_pd(m[j].imag(), m[j].imag(),
                                    m[4 + j].imag(), m[4 + j].imag());
            crB[j] = _mm256_setr_pd(m[8 + j].real(), m[8 + j].real(),
                                    m[12 + j].real(), m[12 + j].real());
            ciB[j] = _mm256_setr_pd(m[8 + j].imag(), m[8 + j].imag(),
                                    m[12 + j].imag(), m[12 + j].imag());
        }
        uint64_t x = 0;
        for (uint64_t t = 0; t < lb.count; ++t, x = lb.next(x)) {
            const uint64_t i = lb.anchor(x);
            double *pk = d + 2 * i;
            double *pb = d + 2 * (i + bBit);
            const __m256d v01 = _mm256_loadu_pd(pk);
            const __m256d v23 = _mm256_loadu_pd(pb);
            const __m256d b0 = _mm256_permute2f128_pd(v01, v01, 0x00);
            const __m256d b1 = _mm256_permute2f128_pd(v01, v01, 0x11);
            const __m256d b2 = _mm256_permute2f128_pd(v23, v23, 0x00);
            const __m256d b3 = _mm256_permute2f128_pd(v23, v23, 0x11);
            __m256d o01 = cxMul(b0, crA[0], ciA[0]);
            o01 = cxMulAdd(o01, b1, crA[1], ciA[1]);
            o01 = cxMulAdd(o01, b2, crA[2], ciA[2]);
            o01 = cxMulAdd(o01, b3, crA[3], ciA[3]);
            __m256d o23 = cxMul(b0, crB[0], ciB[0]);
            o23 = cxMulAdd(o23, b1, crB[1], ciB[1]);
            o23 = cxMulAdd(o23, b2, crB[2], ciB[2]);
            o23 = cxMulAdd(o23, b3, crB[3], ciB[3]);
            _mm256_storeu_pd(pk, o01);
            _mm256_storeu_pd(pb, o23);
        }
        return;
    }

    __m256d mr[16], mi[16];
    for (int j = 0; j < 16; ++j) {
        mr[j] = _mm256_set1_pd(m[j].real());
        mi[j] = _mm256_set1_pd(m[j].imag());
    }
    // Runs of one come from a dead qubit 0, which leaves an even count
    // of live blocks; longer runs are powers of two. So every shape
    // below works in pairs and never leaves one block over.
    const uint64_t runCap = lb.runCap;
    uint64_t x = 0;
    if (runCap == 1) {
        for (uint64_t t = 0; t < lb.count; t += 2) {
            const uint64_t i = lb.anchor(x);
            x = lb.next(x);
            const uint64_t j = lb.anchor(x);
            x = lb.next(x);
            double *pi = d + 2 * i;
            double *pj = d + 2 * j;
            __m256d v0 = loadPair(pi, pj);
            __m256d v1 = loadPair(pi + 2 * kBit, pj + 2 * kBit);
            __m256d v2 = loadPair(pi + 2 * bBit, pj + 2 * bBit);
            __m256d v3 =
                loadPair(pi + 2 * (kBit + bBit), pj + 2 * (kBit + bBit));
            mat1Lanes(mr, mi, v0, v1, v2, v3);
            storePair(pi, pj, v0);
            storePair(pi + 2 * kBit, pj + 2 * kBit, v1);
            storePair(pi + 2 * bBit, pj + 2 * bBit, v2);
            storePair(pi + 2 * (kBit + bBit), pj + 2 * (kBit + bBit), v3);
        }
        return;
    }
    for (uint64_t t = 0; t < lb.count; t += runCap) {
        const uint64_t start = lb.anchor(x);
        for (uint64_t r = 0; r < runCap; r += 2) {
            const uint64_t i = start + r;
            double *p0 = d + 2 * i;
            double *p1 = d + 2 * (i + kBit);
            double *p2 = d + 2 * (i + bBit);
            double *p3 = d + 2 * (i + kBit + bBit);
            __m256d v0 = _mm256_loadu_pd(p0);
            __m256d v1 = _mm256_loadu_pd(p1);
            __m256d v2 = _mm256_loadu_pd(p2);
            __m256d v3 = _mm256_loadu_pd(p3);
            mat1Lanes(mr, mi, v0, v1, v2, v3);
            _mm256_storeu_pd(p0, v0);
            _mm256_storeu_pd(p1, v1);
            _mm256_storeu_pd(p2, v2);
            _mm256_storeu_pd(p3, v3);
        }
        x = lb.next(x + runCap - 1);
    }
}

/**
 * AVX2 widening of the 1q diagonal superoperator (four elementwise
 * phase-factor streams). Bit-identical to applySuperopDiag1's scalar
 * loop on every live block; the same three shapes as superopMat1Avx2.
 */
__attribute__((target("avx2"))) void
superopDiag1Avx2(Complex *rho, Complex d0, Complex d1, LiveBlocks1q lb)
{
    double *d = reinterpret_cast<double *>(rho);
    const Complex f00 = d0 * std::conj(d0);
    const Complex f01 = d0 * std::conj(d1);
    const Complex f10 = d1 * std::conj(d0);
    const Complex f11 = d1 * std::conj(d1);
    const uint64_t kBit = lb.kBit;
    const uint64_t bBit = lb.bBit;

    if (kBit == 1) {
        // Ket pair adjacent: (i, i+1) takes (f00, f10); the bra-shifted
        // pair takes (f01, f11).
        const __m256d fkr = _mm256_setr_pd(f00.real(), f00.real(),
                                           f10.real(), f10.real());
        const __m256d fki = _mm256_setr_pd(f00.imag(), f00.imag(),
                                           f10.imag(), f10.imag());
        const __m256d fbr = _mm256_setr_pd(f01.real(), f01.real(),
                                           f11.real(), f11.real());
        const __m256d fbi = _mm256_setr_pd(f01.imag(), f01.imag(),
                                           f11.imag(), f11.imag());
        uint64_t x = 0;
        for (uint64_t t = 0; t < lb.count; ++t, x = lb.next(x)) {
            const uint64_t i = lb.anchor(x);
            double *pk = d + 2 * i;
            double *pb = d + 2 * (i + bBit);
            _mm256_storeu_pd(pk, cxMul(_mm256_loadu_pd(pk), fkr, fki));
            _mm256_storeu_pd(pb, cxMul(_mm256_loadu_pd(pb), fbr, fbi));
        }
        return;
    }

    const __m256d f00r = _mm256_set1_pd(f00.real());
    const __m256d f00i = _mm256_set1_pd(f00.imag());
    const __m256d f01r = _mm256_set1_pd(f01.real());
    const __m256d f01i = _mm256_set1_pd(f01.imag());
    const __m256d f10r = _mm256_set1_pd(f10.real());
    const __m256d f10i = _mm256_set1_pd(f10.imag());
    const __m256d f11r = _mm256_set1_pd(f11.real());
    const __m256d f11i = _mm256_set1_pd(f11.imag());
    const uint64_t runCap = lb.runCap;
    uint64_t x = 0;
    if (runCap == 1) {
        for (uint64_t t = 0; t < lb.count; t += 2) {
            const uint64_t i = lb.anchor(x);
            x = lb.next(x);
            const uint64_t j = lb.anchor(x);
            x = lb.next(x);
            double *p00 = d + 2 * i, *q00 = d + 2 * j;
            double *p01 = p00 + 2 * bBit, *q01 = q00 + 2 * bBit;
            double *p10 = p00 + 2 * kBit, *q10 = q00 + 2 * kBit;
            double *p11 = p01 + 2 * kBit, *q11 = q01 + 2 * kBit;
            storePair(p00, q00, cxMul(loadPair(p00, q00), f00r, f00i));
            storePair(p01, q01, cxMul(loadPair(p01, q01), f01r, f01i));
            storePair(p10, q10, cxMul(loadPair(p10, q10), f10r, f10i));
            storePair(p11, q11, cxMul(loadPair(p11, q11), f11r, f11i));
        }
        return;
    }
    for (uint64_t t = 0; t < lb.count; t += runCap) {
        const uint64_t start = lb.anchor(x);
        for (uint64_t r = 0; r < runCap; r += 2) {
            const uint64_t i = start + r;
            double *p00 = d + 2 * i;
            double *p01 = d + 2 * (i + bBit);
            double *p10 = d + 2 * (i + kBit);
            double *p11 = d + 2 * (i + kBit + bBit);
            _mm256_storeu_pd(p00,
                             cxMul(_mm256_loadu_pd(p00), f00r, f00i));
            _mm256_storeu_pd(p01,
                             cxMul(_mm256_loadu_pd(p01), f01r, f01i));
            _mm256_storeu_pd(p10,
                             cxMul(_mm256_loadu_pd(p10), f10r, f10i));
            _mm256_storeu_pd(p11,
                             cxMul(_mm256_loadu_pd(p11), f11r, f11i));
        }
        x = lb.next(x + runCap - 1);
    }
}

#endif // EQC_KERNEL_X86_DISPATCH

/**
 * applySuperop2's block loop over ket masks @p mk0, @p mk1 and bra
 * masks @p mb0, @p mb1. It stays a function of its own: folded into
 * applySuperop2, where the masks are shifts of the qubit indices, GCC
 * 12 at -O3 compiled it about 25% slower (BM_Superop2q/8, best of six
 * runs on one pinned x86-64 core: 0.91 against 0.70 ms).
 */
void
superop2Blocks(Complex *rho, uint64_t nBlocks, const Complex *uIn,
               uint64_t mk0, uint64_t mk1, uint64_t mb0, uint64_t mb1)
{
    Complex u[16], cu[16];
    for (int j = 0; j < 16; ++j) {
        u[j] = uIn[j];
        cu[j] = std::conj(uIn[j]);
    }
    uint64_t ketOff[4], braOff[4];
    for (int j = 0; j < 4; ++j) {
        ketOff[j] = (j & 1 ? mk0 : 0) | (j & 2 ? mk1 : 0);
        braOff[j] = (j & 1 ? mb0 : 0) | (j & 2 ? mb1 : 0);
    }
    const uint64_t lows[4] = {
        std::min(mk0, mk1) - 1, std::max(mk0, mk1) - 1,
        std::min(mb0, mb1) - 1, std::max(mb0, mb1) - 1};
    forAnchorRuns<4>(nBlocks, lows, [&](uint64_t start, uint64_t run) {
        Complex blk[4][4], tmp[4][4];
        for (uint64_t x = 0; x < run; ++x) {
            const uint64_t i = start + x;
            for (int r = 0; r < 4; ++r)
                for (int s = 0; s < 4; ++s)
                    blk[r][s] = rho[i + ketOff[r] + braOff[s]];
            // tmp = U blk, then rho' = tmp U^dagger.
            for (int r = 0; r < 4; ++r) {
                const Complex *ur = u + 4 * r;
                for (int s = 0; s < 4; ++s) {
                    tmp[r][s] = ur[0] * blk[0][s] + ur[1] * blk[1][s] +
                                ur[2] * blk[2][s] + ur[3] * blk[3][s];
                }
            }
            for (int r = 0; r < 4; ++r) {
                for (int s = 0; s < 4; ++s) {
                    const Complex *cs = cu + 4 * s;
                    rho[i + ketOff[r] + braOff[s]] =
                        tmp[r][0] * cs[0] + tmp[r][1] * cs[1] +
                        tmp[r][2] * cs[2] + tmp[r][3] * cs[3];
                }
            }
        }
    });
}

} // namespace

void
applyGate1(Complex *amp, uint64_t dim, const Complex *u, int qubit)
{
    const Complex u00 = u[0], u01 = u[1];
    const Complex u10 = u[2], u11 = u[3];
    const uint64_t step = uint64_t{1} << qubit;
    const uint64_t lows[1] = {step - 1};
    forAnchorRuns<1>(dim >> 1, lows, [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            const uint64_t i0 = start + r;
            const uint64_t i1 = i0 + step;
            const Complex a0 = amp[i0], a1 = amp[i1];
            amp[i0] = u00 * a0 + u01 * a1;
            amp[i1] = u10 * a0 + u11 * a1;
        }
    });
}

void
applyDiag1(Complex *amp, uint64_t dim, Complex d0, Complex d1, int qubit)
{
    const uint64_t step = uint64_t{1} << qubit;
    const uint64_t lows[1] = {step - 1};
    forAnchorRuns<1>(dim >> 1, lows, [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            amp[start + r] *= d0;
            amp[start + r + step] *= d1;
        }
    });
}

void
applyGate2(Complex *amp, uint64_t dim, const Complex *uIn, int q0, int q1)
{
    Complex u[16];
    for (int j = 0; j < 16; ++j)
        u[j] = uIn[j];
    const uint64_t m0 = uint64_t{1} << q0;
    const uint64_t m1 = uint64_t{1} << q1;
    const uint64_t lows[2] = {std::min(m0, m1) - 1, std::max(m0, m1) - 1};
    forAnchorRuns<2>(dim >> 2, lows, [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            const uint64_t i0 = start + r;
            const uint64_t i1 = i0 + m0;
            const uint64_t i2 = i0 + m1;
            const uint64_t i3 = i1 + m1;
            const Complex g0 = amp[i0], g1 = amp[i1];
            const Complex g2 = amp[i2], g3 = amp[i3];
            amp[i0] = u[0] * g0 + u[1] * g1 + u[2] * g2 + u[3] * g3;
            amp[i1] = u[4] * g0 + u[5] * g1 + u[6] * g2 + u[7] * g3;
            amp[i2] = u[8] * g0 + u[9] * g1 + u[10] * g2 + u[11] * g3;
            amp[i3] = u[12] * g0 + u[13] * g1 + u[14] * g2 + u[15] * g3;
        }
    });
}

void
applyDiag2(Complex *amp, uint64_t dim, const Complex *d, int q0, int q1)
{
    const Complex d0 = d[0], d1 = d[1], d2 = d[2], d3 = d[3];
    const uint64_t m0 = uint64_t{1} << q0;
    const uint64_t m1 = uint64_t{1} << q1;
    const uint64_t lows[2] = {std::min(m0, m1) - 1, std::max(m0, m1) - 1};
    forAnchorRuns<2>(dim >> 2, lows, [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            const uint64_t i0 = start + r;
            amp[i0] *= d0;
            amp[i0 + m0] *= d1;
            amp[i0 + m1] *= d2;
            amp[i0 + m0 + m1] *= d3;
        }
    });
}

bool
isPermPhase(const Complex *u, int sub, PermPhase &out)
{
    bool unit = true;
    for (int r = 0; r < sub; ++r) {
        int col = -1;
        for (int c = 0; c < sub; ++c) {
            if (u[r * sub + c] != Complex(0, 0)) {
                if (col >= 0)
                    return false;
                col = c;
            }
        }
        if (col < 0)
            return false;
        out.perm[r] = col;
        out.phase[r] = u[r * sub + col];
        if (out.phase[r] != Complex(1, 0))
            unit = false;
    }
    out.unitPhases = unit;
    return true;
}

GateKind
classifyGate(const Complex *u, int sub, Complex *diag, PermPhase &pp)
{
    bool isDiag = true;
    for (int r = 0; r < sub && isDiag; ++r)
        for (int c = 0; c < sub; ++c)
            if (r != c && u[r * sub + c] != Complex(0, 0)) {
                isDiag = false;
                break;
            }
    if (isDiag) {
        for (int j = 0; j < sub; ++j)
            diag[j] = u[j * sub + j];
        return GateKind::Diagonal;
    }
    if (isPermPhase(u, sub, pp))
        return GateKind::PermPhase;
    return GateKind::General;
}

void
applyPermPhase1(Complex *amp, uint64_t dim, const PermPhase &pp, int qubit)
{
    // 1q non-diagonal permutation is always the swap {1, 0}.
    const Complex p0 = pp.phase[0], p1 = pp.phase[1];
    const bool unit = pp.unitPhases;
    const uint64_t step = uint64_t{1} << qubit;
    const uint64_t lows[1] = {step - 1};
    forAnchorRuns<1>(dim >> 1, lows, [&](uint64_t start, uint64_t run) {
        if (unit) {
            for (uint64_t r = 0; r < run; ++r) {
                const uint64_t i0 = start + r;
                std::swap(amp[i0], amp[i0 + step]);
            }
        } else {
            for (uint64_t r = 0; r < run; ++r) {
                const uint64_t i0 = start + r;
                const Complex a0 = amp[i0], a1 = amp[i0 + step];
                amp[i0] = p0 * a1;
                amp[i0 + step] = p1 * a0;
            }
        }
    });
}

void
applyPermPhase2(Complex *amp, uint64_t dim, const PermPhase &ppIn, int q0,
                int q1)
{
    const PermPhase pp = ppIn;
    const uint64_t m0 = uint64_t{1} << q0;
    const uint64_t m1 = uint64_t{1} << q1;
    uint64_t off[4];
    for (int j = 0; j < 4; ++j)
        off[j] = (j & 1 ? m0 : 0) + (j & 2 ? m1 : 0);
    const uint64_t lows[2] = {std::min(m0, m1) - 1, std::max(m0, m1) - 1};
    forAnchorRuns<2>(dim >> 2, lows, [&](uint64_t start, uint64_t run) {
        if (pp.unitPhases) {
            for (uint64_t r = 0; r < run; ++r) {
                const uint64_t i = start + r;
                const Complex g0 = amp[i + off[pp.perm[0]]];
                const Complex g1 = amp[i + off[pp.perm[1]]];
                const Complex g2 = amp[i + off[pp.perm[2]]];
                const Complex g3 = amp[i + off[pp.perm[3]]];
                amp[i + off[0]] = g0;
                amp[i + off[1]] = g1;
                amp[i + off[2]] = g2;
                amp[i + off[3]] = g3;
            }
        } else {
            for (uint64_t r = 0; r < run; ++r) {
                const uint64_t i = start + r;
                const Complex g0 = amp[i + off[pp.perm[0]]];
                const Complex g1 = amp[i + off[pp.perm[1]]];
                const Complex g2 = amp[i + off[pp.perm[2]]];
                const Complex g3 = amp[i + off[pp.perm[3]]];
                amp[i + off[0]] = pp.phase[0] * g0;
                amp[i + off[1]] = pp.phase[1] * g1;
                amp[i + off[2]] = pp.phase[2] * g2;
                amp[i + off[3]] = pp.phase[3] * g3;
            }
        }
    });
}

void
applyGateK(Complex *amp, uint64_t dim, const CMatrix &u, const int *qubits,
           int k, KernelScratch &s)
{
    const std::size_t sub = std::size_t{1} << k;
    if (u.rows() != sub || u.cols() != sub)
        panic("applyGateK: matrix does not match qubit count");

    s.masks.resize(k);
    s.lowMasks.resize(k);
    for (int m = 0; m < k; ++m) {
        s.masks[m] = uint64_t{1} << qubits[m];
        s.lowMasks[m] = s.masks[m] - 1;
    }
    // Deposits must run lowest-position first.
    std::sort(s.lowMasks.begin(), s.lowMasks.end());

    s.offsets.resize(sub);
    for (std::size_t j = 0; j < sub; ++j) {
        uint64_t off = 0;
        for (int m = 0; m < k; ++m)
            if (j & (std::size_t{1} << m))
                off |= s.masks[m];
        s.offsets[j] = off;
    }

    s.gathered.resize(sub);
    const uint64_t nBlocks = dim >> k;
    for (uint64_t t = 0; t < nBlocks; ++t) {
        uint64_t i = t;
        for (int m = 0; m < k; ++m)
            i = depositZeroBit(i, s.lowMasks[m]);
        for (std::size_t j = 0; j < sub; ++j)
            s.gathered[j] = amp[i | s.offsets[j]];
        for (std::size_t r = 0; r < sub; ++r) {
            Complex acc(0, 0);
            for (std::size_t c = 0; c < sub; ++c)
                acc += u(r, c) * s.gathered[c];
            amp[i | s.offsets[r]] = acc;
        }
    }
}

void
applySuperop1(Complex *rho, int numQubits, const Complex *u, int qubit)
{
    const Complex u00 = u[0], u01 = u[1];
    const Complex u10 = u[2], u11 = u[3];
    const Complex c00 = std::conj(u00), c01 = std::conj(u01);
    const Complex c10 = std::conj(u10), c11 = std::conj(u11);
    const uint64_t kBit = uint64_t{1} << qubit;
    const uint64_t bBit = uint64_t{1} << (qubit + numQubits);
    const uint64_t lows[2] = {kBit - 1, bBit - 1};
    const uint64_t nBlocks = (uint64_t{1} << (2 * numQubits)) >> 2;
    forAnchorRuns<2>(nBlocks, lows, [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            const uint64_t i = start + r;
            const uint64_t iK = i + kBit;
            const uint64_t iB = i + bBit;
            const uint64_t iKB = iK + bBit;
            // Block blk[r][s] over (ket sub-index r, bra sub-index s).
            const Complex b00 = rho[i], b01 = rho[iB];
            const Complex b10 = rho[iK], b11 = rho[iKB];
            // rho' = U blk U^dagger in one pass.
            const Complex t00 = u00 * b00 + u01 * b10;
            const Complex t01 = u00 * b01 + u01 * b11;
            const Complex t10 = u10 * b00 + u11 * b10;
            const Complex t11 = u10 * b01 + u11 * b11;
            rho[i] = t00 * c00 + t01 * c01;
            rho[iB] = t00 * c10 + t01 * c11;
            rho[iK] = t10 * c00 + t11 * c01;
            rho[iKB] = t10 * c10 + t11 * c11;
        }
    });
}

void
applySuperopMat1(Complex *rho, int numQubits, const Complex *s, int qubit,
                 uint64_t deadQubits)
{
    const LiveBlocks1q lb(numQubits, qubit, deadQubits);
#ifdef EQC_KERNEL_X86_DISPATCH
    if (cpuHasAvx2()) {
        superopMat1Avx2(rho, s, lb);
        return;
    }
#endif
    // Dense 4x4 channel superoperator over sub-index j = k + 2b.
    Complex m[16];
    for (int i = 0; i < 16; ++i)
        m[i] = s[i];
    const uint64_t kBit = lb.kBit;
    const uint64_t bBit = lb.bBit;
    forLiveAnchorRuns(lb, [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            const uint64_t i = start + r;
            const uint64_t iK = i + kBit;
            const uint64_t iB = i + bBit;
            const uint64_t iKB = iK + bBit;
            const Complex v0 = rho[i], v1 = rho[iK];
            const Complex v2 = rho[iB], v3 = rho[iKB];
            rho[i] = m[0] * v0 + m[1] * v1 + m[2] * v2 + m[3] * v3;
            rho[iK] = m[4] * v0 + m[5] * v1 + m[6] * v2 + m[7] * v3;
            rho[iB] = m[8] * v0 + m[9] * v1 + m[10] * v2 + m[11] * v3;
            rho[iKB] =
                m[12] * v0 + m[13] * v1 + m[14] * v2 + m[15] * v3;
        }
    });
}

void
applySuperopDiag1(Complex *rho, int numQubits, const Complex *d, int qubit,
                  uint64_t deadQubits)
{
    const LiveBlocks1q lb(numQubits, qubit, deadQubits);
    const Complex d0 = d[0], d1 = d[1];
#ifdef EQC_KERNEL_X86_DISPATCH
    if (cpuHasAvx2()) {
        superopDiag1Avx2(rho, d0, d1, lb);
        return;
    }
#endif
    const Complex f00 = d0 * std::conj(d0);
    const Complex f01 = d0 * std::conj(d1);
    const Complex f10 = d1 * std::conj(d0);
    const Complex f11 = d1 * std::conj(d1);
    const uint64_t kBit = lb.kBit;
    const uint64_t bBit = lb.bBit;
    forLiveAnchorRuns(lb, [&](uint64_t start, uint64_t run) {
        for (uint64_t r = 0; r < run; ++r) {
            const uint64_t i = start + r;
            rho[i] *= f00;
            rho[i + bBit] *= f01;
            rho[i + kBit] *= f10;
            rho[i + kBit + bBit] *= f11;
        }
    });
}

void
applySuperop2(Complex *rho, int numQubits, const Complex *u, int q0,
              int q1)
{
    superop2Blocks(rho, (uint64_t{1} << (2 * numQubits)) >> 4, u,
                   uint64_t{1} << q0, uint64_t{1} << q1,
                   uint64_t{1} << (q0 + numQubits),
                   uint64_t{1} << (q1 + numQubits));
}

void
applySuperopDiag2(Complex *rho, int numQubits, const Complex *d, int q0,
                  int q1)
{
    const uint64_t mk0 = uint64_t{1} << q0;
    const uint64_t mk1 = uint64_t{1} << q1;
    const uint64_t mb0 = uint64_t{1} << (q0 + numQubits);
    const uint64_t mb1 = uint64_t{1} << (q1 + numQubits);
    uint64_t off[4][4];
    Complex f[4][4];
    for (int r = 0; r < 4; ++r) {
        for (int s = 0; s < 4; ++s) {
            off[r][s] = ((r & 1 ? mk0 : 0) | (r & 2 ? mk1 : 0)) +
                        ((s & 1 ? mb0 : 0) | (s & 2 ? mb1 : 0));
            f[r][s] = d[r] * std::conj(d[s]);
        }
    }
    const uint64_t lows[4] = {
        std::min(mk0, mk1) - 1, std::max(mk0, mk1) - 1,
        std::min(mb0, mb1) - 1, std::max(mb0, mb1) - 1};
    const uint64_t nBlocks = (uint64_t{1} << (2 * numQubits)) >> 4;
    forAnchorRuns<4>(nBlocks, lows, [&](uint64_t start, uint64_t run) {
        for (uint64_t x = 0; x < run; ++x) {
            const uint64_t i = start + x;
            for (int r = 0; r < 4; ++r)
                for (int s = 0; s < 4; ++s)
                    rho[i + off[r][s]] *= f[r][s];
        }
    });
}

void
applySuperopPerm1(Complex *rho, int numQubits, const PermPhase &pp,
                  int qubit)
{
    // Perm is the swap: block entry (r, s) <- f[r][s] * entry (1-r, 1-s).
    const Complex p0 = pp.phase[0], p1 = pp.phase[1];
    const bool unit = pp.unitPhases;
    const Complex f00 = p0 * std::conj(p0);
    const Complex f01 = p0 * std::conj(p1);
    const Complex f10 = p1 * std::conj(p0);
    const Complex f11 = p1 * std::conj(p1);
    const uint64_t kBit = uint64_t{1} << qubit;
    const uint64_t bBit = uint64_t{1} << (qubit + numQubits);
    const uint64_t lows[2] = {kBit - 1, bBit - 1};
    const uint64_t nBlocks = (uint64_t{1} << (2 * numQubits)) >> 2;
    forAnchorRuns<2>(nBlocks, lows, [&](uint64_t start, uint64_t run) {
        if (unit) {
            for (uint64_t r = 0; r < run; ++r) {
                const uint64_t i = start + r;
                std::swap(rho[i], rho[i + kBit + bBit]);
                std::swap(rho[i + kBit], rho[i + bBit]);
            }
        } else {
            for (uint64_t r = 0; r < run; ++r) {
                const uint64_t i = start + r;
                const Complex b00 = rho[i], b01 = rho[i + bBit];
                const Complex b10 = rho[i + kBit];
                const Complex b11 = rho[i + kBit + bBit];
                rho[i] = f00 * b11;
                rho[i + bBit] = f01 * b10;
                rho[i + kBit] = f10 * b01;
                rho[i + kBit + bBit] = f11 * b00;
            }
        }
    });
}

void
applySuperopPerm2(Complex *rho, int numQubits, const PermPhase &pp, int q0,
                  int q1)
{
    const uint64_t mk0 = uint64_t{1} << q0;
    const uint64_t mk1 = uint64_t{1} << q1;
    const uint64_t mb0 = uint64_t{1} << (q0 + numQubits);
    const uint64_t mb1 = uint64_t{1} << (q1 + numQubits);
    uint64_t ketOff[4], braOff[4];
    for (int j = 0; j < 4; ++j) {
        ketOff[j] = (j & 1 ? mk0 : 0) | (j & 2 ? mk1 : 0);
        braOff[j] = (j & 1 ? mb0 : 0) | (j & 2 ? mb1 : 0);
    }
    // Destination offset and source offset per block slot, plus the
    // phase factor phase[r] * conj(phase[s]).
    uint64_t dst[16], src[16];
    Complex f[16];
    for (int r = 0; r < 4; ++r) {
        for (int s = 0; s < 4; ++s) {
            dst[r * 4 + s] = ketOff[r] + braOff[s];
            src[r * 4 + s] = ketOff[pp.perm[r]] + braOff[pp.perm[s]];
            f[r * 4 + s] = pp.phase[r] * std::conj(pp.phase[s]);
        }
    }
    const uint64_t lows[4] = {
        std::min(mk0, mk1) - 1, std::max(mk0, mk1) - 1,
        std::min(mb0, mb1) - 1, std::max(mb0, mb1) - 1};
    const bool unit = pp.unitPhases;
    const uint64_t nBlocks = (uint64_t{1} << (2 * numQubits)) >> 4;
    forAnchorRuns<4>(nBlocks, lows, [&](uint64_t start, uint64_t run) {
        Complex g[16];
        for (uint64_t x = 0; x < run; ++x) {
            const uint64_t i = start + x;
            for (int j = 0; j < 16; ++j)
                g[j] = rho[i + src[j]];
            if (unit) {
                for (int j = 0; j < 16; ++j)
                    rho[i + dst[j]] = g[j];
            } else {
                for (int j = 0; j < 16; ++j)
                    rho[i + dst[j]] = f[j] * g[j];
            }
        }
    });
}

void
applySuperopMat2(Complex *rho, int numQubits, const Complex *Sin, int q0,
                 int q1)
{
    Complex S[256];
    for (int j = 0; j < 256; ++j)
        S[j] = Sin[j];
    const uint64_t mk0 = uint64_t{1} << q0;
    const uint64_t mk1 = uint64_t{1} << q1;
    const uint64_t mb0 = uint64_t{1} << (q0 + numQubits);
    const uint64_t mb1 = uint64_t{1} << (q1 + numQubits);
    // Vector index v = ketSub + 4 * braSub: bit 0 -> mk0, bit 1 -> mk1,
    // bit 2 -> mb0, bit 3 -> mb1.
    uint64_t off[16];
    for (int v = 0; v < 16; ++v)
        off[v] = (v & 1 ? mk0 : 0) + (v & 2 ? mk1 : 0) +
                 (v & 4 ? mb0 : 0) + (v & 8 ? mb1 : 0);
    const uint64_t lows[4] = {
        std::min(mk0, mk1) - 1, std::max(mk0, mk1) - 1,
        std::min(mb0, mb1) - 1, std::max(mb0, mb1) - 1};
    const uint64_t nBlocks = (uint64_t{1} << (2 * numQubits)) >> 4;
    forAnchorRuns<4>(nBlocks, lows, [&](uint64_t start, uint64_t run) {
        Complex g[16];
        for (uint64_t x = 0; x < run; ++x) {
            const uint64_t i = start + x;
            for (int v = 0; v < 16; ++v)
                g[v] = rho[i + off[v]];
            for (int vp = 0; vp < 16; ++vp) {
                const Complex *row = S + 16 * vp;
                Complex acc(0, 0);
                for (int v = 0; v < 16; ++v)
                    acc += row[v] * g[v];
                rho[i + off[vp]] = acc;
            }
        }
    });
}

} // namespace detail
} // namespace eqc
