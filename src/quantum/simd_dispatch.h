/**
 * @file
 * Shared runtime-SIMD dispatch gate for the simulation kernels.
 *
 * Hot kernels carry cpuid-dispatched AVX2 variants compiled with
 * per-function target attributes, so the default portable (x86-64
 * baseline) build still ships them and selects at run time. This
 * header centralizes the gate so every vectorized kernel (kernel.cc,
 * density_matrix.cc) dispatches on exactly the same conditions:
 *
 *  - x86-64 with a GNU-compatible compiler (per-function target
 *    attributes and __builtin_cpu_supports are available), and
 *  - -DEQC_NO_SIMD_DISPATCH not defined (the CMake option of the same
 *    name defines it to force the scalar reference path, e.g. for the
 *    scalar CI leg or for benchmarking the scalar kernels).
 *
 * When EQC_KERNEL_X86_DISPATCH is defined, <immintrin.h> has been
 * included and cpuHasAvx2() answers the runtime question from a
 * cached cpuid probe.
 *
 * Note for kernel authors: lambdas do NOT inherit the enclosing
 * function's target attribute, so AVX2 loop bodies must be written in
 * plain (attributed) functions — intrinsics inside a lambda passed to
 * forAnchorRuns() fail to compile. See superopMat1Avx2 in
 * kernel.cc for the canonical shape.
 */

#ifndef EQC_QUANTUM_SIMD_DISPATCH_H
#define EQC_QUANTUM_SIMD_DISPATCH_H

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(EQC_NO_SIMD_DISPATCH)
#define EQC_KERNEL_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace eqc {
namespace detail {

/**
 * Test-only runtime kill switch: forces every dispatch site down the
 * scalar path so equivalence tests can compare both variants bitwise
 * in one process. Present in every build (a no-op where the dispatch
 * is compiled out); not thread-safe against concurrent kernels — flip
 * it only from quiescent test code.
 */
inline bool &
simdDispatchForcedOff()
{
    static bool off = false;
    return off;
}

#ifdef EQC_KERNEL_X86_DISPATCH

/** Cached cpuid probe: this machine runs the AVX2 variants. */
inline bool
cpuHasAvx2()
{
    static const bool ok = __builtin_cpu_supports("avx2");
    return ok && !simdDispatchForcedOff();
}

/**
 * Complex multiply a * c on packed [re, im] lanes using the *exact*
 * scalar std::complex formula — mul/addsub only, deliberately no FMA:
 *   re = a.re * c.re - a.im * c.im
 *   im = a.im * c.re + a.re * c.im   (commuted sum, bitwise equal)
 * The AVX2 kernel variants are built from this helper plus plain adds
 * in the scalar accumulation order, which makes the vector paths
 * *bit-identical* to the scalar kernels (not merely close). That is
 * what lets every vector variant be tested bitwise against its scalar
 * twin through simdDispatchForcedOff(), and keeps results independent
 * of which variant a machine dispatches to.
 *
 * @p cr / @p ci broadcast the multiplier: set1 for a shared
 * coefficient, or per-128-bit-lane values to apply different
 * coefficients to the two packed complex numbers.
 */
__attribute__((target("avx2"), always_inline)) static inline __m256d
cxMul(__m256d a, __m256d cr, __m256d ci)
{
    const __m256d as = _mm256_permute_pd(a, 0x5);
    return _mm256_addsub_pd(_mm256_mul_pd(a, cr),
                            _mm256_mul_pd(as, ci));
}

/** acc + a * c, added after the full product like the scalar chain. */
__attribute__((target("avx2"), always_inline)) static inline __m256d
cxMulAdd(__m256d acc, __m256d a, __m256d cr, __m256d ci)
{
    return _mm256_add_pd(acc, cxMul(a, cr, ci));
}

#endif // EQC_KERNEL_X86_DISPATCH

} // namespace detail
} // namespace eqc

#endif // EQC_QUANTUM_SIMD_DISPATCH_H
