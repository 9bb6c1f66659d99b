/**
 * @file
 * Density-matrix simulator with Kraus-channel noise.
 *
 * rho is stored vectorized with index = row + dim * col; row bits are the
 * "ket bank" (qubits 0..n-1) and column bits the "bra bank" (qubits
 * n..2n-1), so both unitaries and Kraus operators reduce to the shared
 * state-vector kernel applied to each bank.
 *
 * This gives *exact* noisy expectation values for the <= 8-qubit circuits
 * EQC trains, which is why the reproduction uses density matrices instead
 * of Monte-Carlo trajectories: physics is exact, and shot noise is
 * injected only where the paper has it (measurement sampling).
 */

#ifndef EQC_QUANTUM_DENSITY_MATRIX_H
#define EQC_QUANTUM_DENSITY_MATRIX_H

#include <cstdint>
#include <vector>

#include "quantum/cmatrix.h"
#include "quantum/kraus.h"

namespace eqc {

class PauliString;
class Statevector;

/** Mixed-state simulator over n qubits (n <= 13). */
class DensityMatrix
{
  public:
    /** Initialize |0...0><0...0| over @p numQubits qubits. */
    explicit DensityMatrix(int numQubits);

    /** Build the pure-state density matrix of @p sv. */
    static DensityMatrix fromStatevector(const Statevector &sv);

    int numQubits() const { return numQubits_; }

    /** Hilbert-space dimension 2^n. */
    uint64_t dim() const { return uint64_t{1} << numQubits_; }

    /** Reset to |0...0><0...0|. */
    void reset();

    /** Apply a unitary on the given qubits: rho -> U rho U^dagger. */
    void applyUnitary(const CMatrix &u, const std::vector<int> &qubits);

    /// @name Allocation-free apply paths
    /// Raw-entry twins of applyUnitary used by precompiled execution
    /// plans: the caller hands the unitary's entries directly (the
    /// gateEntries() layout), skipping CMatrix construction.
    /// @{

    /** 1q unitary from row-major entries {u00, u01, u10, u11}. */
    void applyGate1(const Complex *u, int qubit);

    /**
     * 1q diagonal unitary diag(d[0], d[1]). With @p deadQubits, the
     * entries whose ket and bra bits differ on a qubit of that mask are
     * skipped (left as they were): for qubits no later op touches, so
     * only such entries are never read again (see
     * detail::LiveBlocks1q).
     */
    void applyDiag1(const Complex *d, int qubit, uint64_t deadQubits = 0);

    /** 2q unitary from row-major 4x4 entries (bit 0 -> @p q0). */
    void applyGate2(const Complex *u, int q0, int q1);

    /** 2q diagonal unitary diag(d[0..3]). */
    void applyDiag2(const Complex *d, int q0, int q1);

    /// @}

    /** Apply a Kraus channel: rho -> sum_k K rho K^dagger. */
    void applyChannel(const KrausChannel &ch, const std::vector<int> &qubits);

    /**
     * Apply a precomposed 1q channel superoperator: one 4x4 matrix over
     * the vectorized (ket bit, bra bit) sub-index j = k + 2b of @p
     * qubit. Lets callers compose a whole unitary + noise sequence
     * offline and pay a single kernel pass (see SimulatedQpu).
     * @p deadQubits skips entries as in applyDiag1.
     */
    void applyChannelSuperop1(const Complex *s, int qubit,
                              uint64_t deadQubits = 0);

    /**
     * Analytic fast path for 1q depolarizing noise:
     * rho -> (1-l) rho + l Tr_q(rho) (x) I/2. Equivalent to
     * applyChannel(depolarizing1q(l)) at a fraction of the cost.
     */
    void applyDepolarizing1q(double lambda, int qubit);

    /** Analytic fast path for 2q depolarizing noise. */
    void applyDepolarizing2q(double lambda, int qubitA, int qubitB);

    /**
     * Analytic fast path for thermal relaxation: population decay by
     * @p gamma (= 1 - exp(-t/T1)) and coherence decay by @p coherence
     * (= exp(-t/T2)). Equivalent to applyChannel(thermalRelaxation(...))
     * with gamma/coherence derived from the same T1/T2/time.
     */
    void applyThermalRelaxation(int qubit, double gamma,
                                double coherence);

    /**
     * The full post-CX noise sequence in a single block-local pass:
     * 2q depolarizing by @p lambda, then thermal relaxation on
     * @p qubitA and on @p qubitB (same semantics as applying
     * applyDepolarizing2q and applyThermalRelaxation twice, at a third
     * of the memory traffic and per-call overhead). Shares its kernel
     * with applyGate2DepolThermal2q (identity gather, no phases).
     */
    void applyDepolThermal2q(double lambda, int qubitA, double gammaA,
                             double coherenceA, int qubitB,
                             double gammaB, double coherenceB);

    /**
     * A noisy CX in one block-local pass: the 2q unitary @p u
     * (row-major 4x4, bit 0 -> @p qubitA), then
     * applyDepolThermal2q's noise. A permutation-phase @p u (every
     * fused CX) is folded into the noise pass's gather, bitwise equal
     * to applyGate2 followed by applyDepolThermal2q; any other @p u
     * runs as exactly those two passes.
     */
    void applyGate2DepolThermal2q(const Complex *u, double lambda,
                                  int qubitA, double gammaA,
                                  double coherenceA, int qubitB,
                                  double gammaB, double coherenceB);

    /** Element <row| rho |col>. */
    Complex element(uint64_t row, uint64_t col) const;

    /** Computational-basis probabilities (the real diagonal). */
    std::vector<double> probabilities() const;

    /** Tr(P rho) for a Pauli string (real by Hermiticity). */
    double expectation(const PauliString &p) const;

    /** Tr(rho); 1 up to rounding for valid evolutions. */
    double trace() const;

    /** Tr(rho^2); 1 for pure states, 1/2^n for maximally mixed. */
    double purity() const;

  private:
    /** @p deadQubits names only qubits of this state, not @p qubit. */
    bool validDeadMask(uint64_t deadQubits, int qubit) const;

    int numQubits_;
    CVector rho_;
};

} // namespace eqc

#endif // EQC_QUANTUM_DENSITY_MATRIX_H
