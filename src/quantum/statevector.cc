#include "quantum/statevector.h"

#include <cmath>

#include "common/logging.h"
#include "quantum/kernel.h"
#include "quantum/pauli.h"

namespace eqc {

Statevector::Statevector(int numQubits)
    : numQubits_(numQubits), amp_(uint64_t{1} << numQubits, Complex(0, 0))
{
    if (numQubits < 1 || numQubits > 26)
        fatal("Statevector: qubit count out of supported range [1,26]");
    amp_[0] = 1.0;
}

void
Statevector::reset()
{
    std::fill(amp_.begin(), amp_.end(), Complex(0, 0));
    amp_[0] = 1.0;
}

void
Statevector::applyGate1(const Complex *u, int qubit)
{
    if (qubit < 0 || qubit >= numQubits_)
        panic("Statevector::applyGate1: qubit index out of range");
    Complex d[2];
    detail::PermPhase pp;
    switch (detail::classifyGate(u, 2, d, pp)) {
      case detail::GateKind::Diagonal:
        detail::applyDiag1(amp_.data(), dim(), d[0], d[1], qubit);
        break;
      case detail::GateKind::PermPhase:
        detail::applyPermPhase1(amp_.data(), dim(), pp, qubit);
        break;
      case detail::GateKind::General:
        detail::applyGate1(amp_.data(), dim(), u, qubit);
        break;
    }
}

void
Statevector::applyDiag1(const Complex *d, int qubit)
{
    if (qubit < 0 || qubit >= numQubits_)
        panic("Statevector::applyDiag1: qubit index out of range");
    detail::applyDiag1(amp_.data(), dim(), d[0], d[1], qubit);
}

void
Statevector::applyGate2(const Complex *u, int q0, int q1)
{
    if (q0 < 0 || q1 < 0 || q0 >= numQubits_ || q1 >= numQubits_ ||
        q0 == q1) {
        panic("Statevector::applyGate2: invalid qubits");
    }
    Complex d[4];
    detail::PermPhase pp;
    switch (detail::classifyGate(u, 4, d, pp)) {
      case detail::GateKind::Diagonal:
        detail::applyDiag2(amp_.data(), dim(), d, q0, q1);
        break;
      case detail::GateKind::PermPhase:
        detail::applyPermPhase2(amp_.data(), dim(), pp, q0, q1);
        break;
      case detail::GateKind::General:
        detail::applyGate2(amp_.data(), dim(), u, q0, q1);
        break;
    }
}

void
Statevector::applyDiag2(const Complex *d, int q0, int q1)
{
    if (q0 < 0 || q1 < 0 || q0 >= numQubits_ || q1 >= numQubits_ ||
        q0 == q1) {
        panic("Statevector::applyDiag2: invalid qubits");
    }
    detail::applyDiag2(amp_.data(), dim(), d, q0, q1);
}

void
Statevector::applyGate(const CMatrix &u, const std::vector<int> &qubits)
{
    for (int q : qubits)
        if (q < 0 || q >= numQubits_)
            panic("Statevector::applyGate: qubit index out of range");
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
    // Rare k >= 3 path; scratch is local, so it allocates — callers on
    // hot paths only issue 1q/2q gates.
    detail::KernelScratch scratch;
    detail::applyGateK(amp_.data(), dim(), u, qubits.data(),
                       static_cast<int>(k), scratch);
}

std::vector<double>
Statevector::probabilities() const
{
    std::vector<double> p(amp_.size());
    for (std::size_t i = 0; i < amp_.size(); ++i)
        p[i] = std::norm(amp_[i]);
    return p;
}

double
Statevector::expectation(const PauliString &pauli) const
{
    // P|b> = lambda(b) |b ^ xmask>; <psi|P|psi> =
    //   sum_b conj(psi[b ^ xmask]) * lambda(b) * psi[b].
    const uint64_t xmask = pauli.xMask();
    const uint64_t zmask = pauli.zMask();
    const uint64_t ymask = xmask & zmask;
    const int yCount = static_cast<int>(__builtin_popcountll(ymask));
    // i^yCount global factor from the Y = i*X*Z decomposition.
    static const Complex iPow[4] = {
        {1, 0}, {0, 1}, {-1, 0}, {0, -1}};
    const Complex global = iPow[yCount & 3];

    Complex acc(0, 0);
    for (uint64_t b = 0; b < dim(); ++b) {
        if (amp_[b] == Complex(0, 0))
            continue;
        // Sign from Z-type factors: (-1)^{popcount(b & zmask)}.
        int par = __builtin_popcountll(b & zmask) & 1;
        Complex lambda = par ? -global : global;
        acc += std::conj(amp_[b ^ xmask]) * lambda * amp_[b];
    }
    return acc.real();
}

double
Statevector::norm() const
{
    double s = 0.0;
    for (const Complex &a : amp_)
        s += std::norm(a);
    return s;
}

void
Statevector::normalize()
{
    double n = std::sqrt(norm());
    if (n <= 0.0)
        panic("Statevector::normalize: zero state");
    for (Complex &a : amp_)
        a /= n;
}

Complex
Statevector::inner(const Statevector &other) const
{
    if (other.numQubits_ != numQubits_)
        panic("Statevector::inner: qubit count mismatch");
    Complex acc(0, 0);
    for (std::size_t i = 0; i < amp_.size(); ++i)
        acc += std::conj(other.amp_[i]) * amp_[i];
    return acc;
}

std::vector<uint64_t>
Statevector::sample(uint64_t shots, Rng &rng) const
{
    return rng.multinomial(probabilities(), shots);
}

} // namespace eqc
