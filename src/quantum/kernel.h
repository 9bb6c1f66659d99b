/**
 * @file
 * Simulation kernels applying k-qubit linear operators to dense
 * amplitude vectors. Used by both the state-vector simulator (on a
 * 2^n vector) and the density-matrix simulator (on a 4^n vectorized rho,
 * where ket and bra indices act as two banks of n qubits each).
 *
 * Two layers live here:
 *  - applyOperatorKernel: the original skip-scan implementation, kept as
 *    the *reference* the randomized equivalence tests compare against.
 *  - the fast kernels (kernel.cc): block-enumeration over the dim >> k
 *    anchor indices via bit-deposit, hand-unrolled k=1/k=2 paths, a
 *    diagonal path for phase-type gates, and fused superoperator/Kraus
 *    application for density matrices.
 *
 * Every pass runs serially on the calling thread. Threads go to whole
 * circuit jobs and batch segments instead (see the fan-out levels in
 * docs/ARCHITECTURE.md): the circuits EQC trains give passes of at most
 * a few thousand blocks.
 */

#ifndef EQC_QUANTUM_KERNEL_H
#define EQC_QUANTUM_KERNEL_H

#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "quantum/cmatrix.h"

namespace eqc {
namespace detail {

/**
 * Reference implementation: apply a 2^k x 2^k operator to @p amp over
 * bit positions @p qubits by scanning all @p dim indices and skipping
 * non-anchors. Sub-index bit m of the operator corresponds to
 * qubits[m]. The operator need not be unitary (Kraus operators are
 * applied this way too).
 *
 * Superseded by the block-enumeration kernels below on every hot path;
 * retained unchanged as the ground truth for tests/test_kernel.cc and
 * as the fallback for arities the unrolled kernels do not cover.
 */
inline void
applyOperatorKernel(CVector &amp, uint64_t dim, const CMatrix &u,
                    const std::vector<int> &qubits)
{
    const std::size_t k = qubits.size();
    const std::size_t sub = std::size_t{1} << k;
    if (u.rows() != sub || u.cols() != sub)
        panic("applyOperatorKernel: matrix does not match qubit count");

    if (k == 1) {
        const uint64_t step = uint64_t{1} << qubits[0];
        const Complex u00 = u(0, 0), u01 = u(0, 1);
        const Complex u10 = u(1, 0), u11 = u(1, 1);
        for (uint64_t base = 0; base < dim; base += 2 * step) {
            for (uint64_t off = 0; off < step; ++off) {
                uint64_t i0 = base + off;
                uint64_t i1 = i0 + step;
                Complex a0 = amp[i0], a1 = amp[i1];
                amp[i0] = u00 * a0 + u01 * a1;
                amp[i1] = u10 * a0 + u11 * a1;
            }
        }
        return;
    }

    std::vector<uint64_t> masks(k);
    for (std::size_t m = 0; m < k; ++m)
        masks[m] = uint64_t{1} << qubits[m];
    uint64_t targetMask = 0;
    for (uint64_t m : masks)
        targetMask |= m;

    std::vector<Complex> gathered(sub);
    for (uint64_t i = 0; i < dim; ++i) {
        if (i & targetMask)
            continue;
        for (std::size_t j = 0; j < sub; ++j) {
            uint64_t idx = i;
            for (std::size_t m = 0; m < k; ++m)
                if (j & (std::size_t{1} << m))
                    idx |= masks[m];
            gathered[j] = amp[idx];
        }
        for (std::size_t r = 0; r < sub; ++r) {
            Complex acc(0, 0);
            for (std::size_t c = 0; c < sub; ++c)
                acc += u(r, c) * gathered[c];
            uint64_t idx = i;
            for (std::size_t m = 0; m < k; ++m)
                if (r & (std::size_t{1} << m))
                    idx |= masks[m];
            amp[idx] = acc;
        }
    }
}

/** Insert a zero bit: @p lowMask covers the positions below it. */
inline uint64_t
depositZeroBit(uint64_t v, uint64_t lowMask)
{
    return ((v & ~lowMask) << 1) | (v & lowMask);
}

/**
 * Enumerate the anchor indices of blocks [0, nBlocks) as *contiguous
 * runs*: anchors share their low bits below the lowest target position,
 * so the bit-deposit over @p lowMasks (NMASK entries, ascending;
 * lowMasks[m] = (1 << position_m) - 1) is only needed at run starts and
 * the per-element inner loop stays unit-stride — which is what lets the
 * compiler vectorize the complex arithmetic. @p process is invoked as
 * process(anchorStart, runLength). Every run is full: @p nBlocks counts
 * the anchors of the whole vector, a multiple of the run length
 * lowMasks[0] + 1.
 */
template <int NMASK, typename Process>
inline void
forAnchorRuns(uint64_t nBlocks, const uint64_t *lowMasks,
              const Process &process)
{
    const uint64_t runCap = lowMasks[0] + 1;
    for (uint64_t t = 0; t < nBlocks; t += runCap) {
        uint64_t i = t;
        for (int m = 0; m < NMASK; ++m)
            i = depositZeroBit(i, lowMasks[m]);
        process(i, runCap);
    }
}

/**
 * The blocks a 1q density-matrix pass on @p qubit must still compute
 * when the qubits in @p deadQubits are finished: no later op touches
 * them, and the final read takes only the diagonal. Such a qubit d
 * has its entries with ket bit d != bra bit d read by nothing (every
 * pass is block-local, so those entries feed only each other), so the
 * pass enumerates just the anchors whose ket bit d equals bra bit d.
 *
 * A live anchor is walked as its *free* bits x (every position except
 * the target's ket and bra bits and the dead qubits' bra bits): the
 * first live block has x = 0, the next one next(x), and its anchor
 * index copies each dead qubit's ket bit into its bra bit. The
 * bits below both the target and the lowest dead qubit stay contiguous,
 * so live anchors come in runs of runCap (1 when qubit 0 is dead or
 * the target). Those bits are all free, so count is a multiple of
 * runCap, and it is even whenever runCap is 1 and qubit 0 is dead.
 */
struct LiveBlocks1q
{
    /**
     * @param numQubits qubits of the density matrix (its 4^n vector)
     * @param qubit the pass's target
     * @param deadQubits bit q set: qubit q is finished (must exclude
     *        @p qubit)
     */
    LiveBlocks1q(int numQubits, int qubit, uint64_t deadQubits)
        : kBit(uint64_t{1} << qubit),
          bBit(uint64_t{1} << (qubit + numQubits)), dead(deadQubits),
          braShift(numQubits)
    {
        const uint64_t all = (uint64_t{1} << (2 * numQubits)) - 1;
        fixed = kBit | bBit | (dead << numQubits) | ~all;
        const uint64_t low = kBit | dead;
        runCap = low & (~low + 1);
        count = (uint64_t{1} << (2 * numQubits - 2)) >>
                __builtin_popcountll(dead);
    }

    /** The free bits of the live block after @p x. */
    uint64_t next(uint64_t x) const { return ((x | fixed) + 1) & ~fixed; }

    /** The anchor index of the live block with free bits @p x. */
    uint64_t
    anchor(uint64_t x) const
    {
        return x | ((x & dead) << braShift);
    }

    uint64_t kBit, bBit;
    uint64_t dead;
    int braShift;
    /** Positions no free-bit walk may set (incl. every bit >= 2n). */
    uint64_t fixed;
    /** Contiguous anchors per run: the lowest bit of kBit | dead. */
    uint64_t runCap;
    /** Live blocks: 4^(n-1) / 2^|dead|. */
    uint64_t count;
};

/**
 * forAnchorRuns over the live blocks of @p lb: @p process is invoked
 * as process(anchorStart, runLength) on contiguous runs.
 */
template <typename Process>
inline void
forLiveAnchorRuns(const LiveBlocks1q &lb, const Process &process)
{
    uint64_t x = 0;
    for (uint64_t t = 0; t < lb.count; t += lb.runCap) {
        process(lb.anchor(x), lb.runCap);
        x = lb.next(x + lb.runCap - 1);
    }
}

/**
 * Reusable scratch for the general-k kernel. Callers keep one instance
 * alive across calls so no kernel invocation allocates after warm-up.
 */
struct KernelScratch
{
    std::vector<Complex> gathered;
    std::vector<uint64_t> masks;
    std::vector<uint64_t> lowMasks;
    std::vector<uint64_t> offsets;
};

/// @name Amplitude-bank fast paths (state vector, or one bank of rho)
/// All enumerate the dim >> k anchor indices directly via bit-deposit.
/// @{

/**
 * A permutation-phase gate action: output sub-index r takes
 * phase[r] * (input at sub-index perm[r]). X, CX, SWAP, CZ and every
 * other basis-permuting gate has this form, and applying it is pure
 * data movement (times a phase) instead of a dense matrix multiply.
 */
struct PermPhase
{
    int perm[4];
    Complex phase[4];
    /** All phases exactly 1 (CX/SWAP/X): no multiplies at all. */
    bool unitPhases = false;
};

/**
 * Detect a permutation-phase matrix: every row holds exactly one
 * nonzero entry. Fills @p out and returns true on match.
 */
bool isPermPhase(const Complex *u, int sub, PermPhase &out);

/** How a gate's matrix structure maps onto the fast apply paths. */
enum class GateKind {
    Diagonal,  ///< off-diagonals all zero: elementwise multiply
    PermPhase, ///< one nonzero per row: index shuffle (+ phases)
    General,   ///< dense matrix apply
};

/**
 * Classify a row-major sub x sub matrix (@p sub is 2 or 4) for
 * dispatch. On Diagonal the diagonal is written to @p diag (sub
 * entries); on PermPhase @p pp is filled. Shared by the statevector
 * and density-matrix apply fronts so they can never diverge.
 */
GateKind classifyGate(const Complex *u, int sub, Complex *diag,
                      PermPhase &pp);

/** 1q general gate; @p u is row-major {u00, u01, u10, u11}. */
void applyGate1(Complex *amp, uint64_t dim, const Complex *u, int qubit);

/** 1q diagonal gate diag(d0, d1): a pure elementwise multiply. */
void applyDiag1(Complex *amp, uint64_t dim, Complex d0, Complex d1, int qubit);

/**
 * 2q general gate; @p u is row-major 4x4, sub-index bit 0 corresponds
 * to @p q0 and bit 1 to @p q1 (the gateMatrix convention).
 */
void applyGate2(Complex *amp, uint64_t dim, const Complex *u, int q0, int q1);

/** 2q diagonal gate diag(d[0..3]) over the same sub-index convention. */
void applyDiag2(Complex *amp, uint64_t dim, const Complex *d, int q0, int q1);

/** 1q permutation-phase gate (X-like: perm must be {1, 0}). */
void applyPermPhase1(Complex *amp, uint64_t dim, const PermPhase &pp,
                     int qubit);

/** 2q permutation-phase gate (CX/SWAP and friends). */
void applyPermPhase2(Complex *amp, uint64_t dim, const PermPhase &pp,
                     int q0, int q1);

/**
 * General k-qubit operator via block enumeration with caller-provided
 * scratch (serial; every basis gate is covered by the unrolled paths).
 */
void applyGateK(Complex *amp, uint64_t dim, const CMatrix &u,
                const int *qubits, int k, KernelScratch &scratch);

/// @}

/// @name Fused density-matrix superoperators
/// rho is the 4^n vectorization (index = row + 2^n * col); each routine
/// applies U rho U^dagger (or the Kraus sum) to every (ket, bra) block
/// in a single pass, instead of one ket-bank pass plus one conjugate
/// bra-bank pass over the full vector.
/// @{

/** 1q unitary: U (x) conj(U) on each 4-element block. */
void applySuperop1(Complex *rho, int numQubits, const Complex *u, int qubit);

/**
 * 1q diagonal unitary diag(d[0..1]): elementwise phase factors. With
 * @p deadQubits (see LiveBlocks1q) only the live blocks are computed;
 * the others are left as they were.
 */
void applySuperopDiag1(Complex *rho, int numQubits, const Complex *d,
                       int qubit, uint64_t deadQubits = 0);

/** 2q unitary on each 16-element block. */
void applySuperop2(Complex *rho, int numQubits, const Complex *u, int q0,
                   int q1);

/** 2q diagonal unitary diag(d[0..3]). */
void applySuperopDiag2(Complex *rho, int numQubits, const Complex *d,
                       int q0, int q1);

/**
 * 1q permutation-phase unitary: each block entry (r, s) moves to
 * (perm r, perm s) with factor phase[r] * conj(phase[s]) — no matrix
 * arithmetic, and a pure index shuffle for unit phases (X).
 */
void applySuperopPerm1(Complex *rho, int numQubits, const PermPhase &pp,
                       int qubit);

/** 2q permutation-phase unitary (CX/SWAP: a pure 16-element shuffle). */
void applySuperopPerm2(Complex *rho, int numQubits, const PermPhase &pp,
                       int q0, int q1);

/**
 * Apply a precomputed 4x4 channel superoperator to every 4-element
 * (ket, bra) block of a 1q channel; @p s is row-major over the
 * vectorized sub-index j = ketBit + 2 braBit. One pass for a whole
 * composed gate + noise sequence (see SimulatedQpu::executeBatch).
 * With @p deadQubits only the live blocks are computed, as in
 * applySuperopDiag1.
 */
void applySuperopMat1(Complex *rho, int numQubits, const Complex *s,
                      int qubit, uint64_t deadQubits = 0);

/**
 * Apply a precomputed 16x16 channel superoperator to every 16-element
 * (ket, bra) block of a 2q channel: one 16-dim mat-vec per block
 * instead of one K b K^dagger triple product per Kraus operator (16
 * flops/element instead of 8 * numOps — an 8x cut for the 16-operator
 * depolarizing channel). Vector index v = ketSub + 4 * braSub; @p S is
 * row-major S[v'][v] = sum_k K_k[r', r] conj(K_k[s', s]).
 * (1q channels reuse applyGate2 on the 4x4 superoperator via the ket
 * and bra bit positions directly.)
 */
void applySuperopMat2(Complex *rho, int numQubits, const Complex *S,
                      int q0, int q1);

/// @}

} // namespace detail
} // namespace eqc

#endif // EQC_QUANTUM_KERNEL_H
