/**
 * @file
 * Ideal (noise-free) state-vector simulator.
 *
 * Qubit 0 is the least-significant bit of the basis-state index. Gates of
 * arbitrary arity are supported through a generic gather/scatter kernel
 * with a fast path for single-qubit gates.
 */

#ifndef EQC_QUANTUM_STATEVECTOR_H
#define EQC_QUANTUM_STATEVECTOR_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "quantum/cmatrix.h"

namespace eqc {

class PauliString;

/** Pure-state simulator over n qubits. */
class Statevector
{
  public:
    /** Initialize |0...0> over @p numQubits qubits. */
    explicit Statevector(int numQubits);

    /** Number of qubits. */
    int numQubits() const { return numQubits_; }

    /** Dimension 2^n. */
    uint64_t dim() const { return uint64_t{1} << numQubits_; }

    /** Reset to |0...0>. */
    void reset();

    /**
     * Apply a k-qubit gate.
     * @param u 2^k x 2^k unitary; sub-index bit m corresponds to
     *          qubits[m] (see gateMatrix() convention)
     * @param qubits distinct target qubits
     */
    void applyGate(const CMatrix &u, const std::vector<int> &qubits);

    /// @name Allocation-free apply paths
    /// Raw-entry twins of applyGate used by precompiled execution
    /// plans (the gateEntries() layout, no CMatrix construction).
    /// @{

    /** 1q gate from row-major entries {u00, u01, u10, u11}. */
    void applyGate1(const Complex *u, int qubit);

    /** 1q diagonal gate diag(d[0], d[1]). */
    void applyDiag1(const Complex *d, int qubit);

    /** 2q gate from row-major 4x4 entries (sub-index bit 0 -> @p q0). */
    void applyGate2(const Complex *u, int q0, int q1);

    /** 2q diagonal gate diag(d[0..3]). */
    void applyDiag2(const Complex *d, int q0, int q1);

    /// @}

    /** Amplitude of basis state @p index. */
    Complex amplitude(uint64_t index) const { return amp_[index]; }

    /** Mutable raw amplitudes (for initialization in tests). */
    CVector &amplitudes() { return amp_; }
    const CVector &amplitudes() const { return amp_; }

    /** Measurement probabilities of all 2^n outcomes. */
    std::vector<double> probabilities() const;

    /** <psi | P | psi> for a Pauli string (real by Hermiticity). */
    double expectation(const PauliString &p) const;

    /** Squared norm (should be 1 up to rounding). */
    double norm() const;

    /** Rescale to unit norm. */
    void normalize();

    /** <other|this>. */
    Complex inner(const Statevector &other) const;

    /**
     * Sample measurement outcomes in the computational basis.
     * @return counts indexed by basis state, dim() entries
     */
    std::vector<uint64_t> sample(uint64_t shots, Rng &rng) const;

  private:
    int numQubits_;
    CVector amp_;
};

} // namespace eqc

#endif // EQC_QUANTUM_STATEVECTOR_H
