#include "quantum/kraus.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "quantum/gates.h"

namespace eqc {

bool
KrausChannel::isCPTP(double tol) const
{
    if (ops.empty())
        return false;
    std::size_t dim = ops.front().rows();
    CMatrix acc(dim, dim);
    for (const CMatrix &k : ops)
        acc = acc + k.dagger() * k;
    return acc.distance(CMatrix::identity(dim)) <
           tol * static_cast<double>(dim);
}

KrausChannel
KrausChannel::composeWith(const KrausChannel &after) const
{
    if (after.arity != arity)
        panic("KrausChannel::composeWith: arity mismatch");
    KrausChannel out;
    out.arity = arity;
    for (const CMatrix &b : after.ops)
        for (const CMatrix &a : ops)
            out.ops.push_back(b * a);
    return out;
}

const CVector &
KrausChannel::superopMatrix() const &
{
    if (superop_.empty() && !ops.empty()) {
        const std::size_t sub = ops.front().rows();
        const std::size_t dim = sub * sub;
        superop_.assign(dim * dim, Complex(0, 0));
        for (const CMatrix &k : ops) {
            for (std::size_t rp = 0; rp < sub; ++rp)
                for (std::size_t sp = 0; sp < sub; ++sp)
                    for (std::size_t r = 0; r < sub; ++r)
                        for (std::size_t s = 0; s < sub; ++s) {
                            const std::size_t vp = rp + sub * sp;
                            const std::size_t v = r + sub * s;
                            superop_[vp * dim + v] +=
                                k(rp, r) * std::conj(k(sp, s));
                        }
        }
    }
    return superop_;
}

namespace {

/** Identity and Pauli weights of the 1q depolarizing channel. */
void
depolarizingWeights1q(double lambda, double &pId, double &pP)
{
    if (lambda < 0.0)
        lambda = 0.0;
    pId = 1.0 - 3.0 * lambda / 4.0;
    pP = lambda / 4.0;
}

/**
 * Amplitude-damping and phase-damping parameters of thermal relaxation
 * over @p timeUs, before amplitudeDamping/phaseDamping clamp them.
 */
void
thermalParams(double t1Us, double t2Us, double timeUs, double &gamma,
              double &lambda)
{
    if (t1Us <= 0.0 || t2Us <= 0.0)
        panic("thermalRelaxation: T1/T2 must be positive");
    // Physically T2 <= 2*T1; clamp silently (calibration jitter can
    // produce slight violations).
    t2Us = std::min(t2Us, 2.0 * t1Us);
    gamma = 1.0 - std::exp(-timeUs / t1Us);
    // Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1). Phase damping with
    // parameter l scales coherences by sqrt(1-l), and amplitude damping
    // already contributes exp(-t/(2 T1)); choosing l = 1 - exp(-2 t/Tphi)
    // makes the combined coherence decay exactly exp(-t/T2).
    const double invTphi = 1.0 / t2Us - 1.0 / (2.0 * t1Us);
    lambda = invTphi > 0.0 ? 1.0 - std::exp(-2.0 * timeUs * invTphi)
                           : 0.0;
}

/**
 * out = a * b for 2x2 row-major matrices, with CMatrix::operator*'s
 * arithmetic: zero entries of @p a are skipped and each output entry
 * accumulates over k in order from (0, 0).
 */
void
mul2(const Complex *a, const Complex *b, Complex *out)
{
    for (int i = 0; i < 4; ++i)
        out[i] = Complex(0.0, 0.0);
    for (int i = 0; i < 2; ++i)
        for (int k = 0; k < 2; ++k) {
            const Complex x = a[i * 2 + k];
            if (x == Complex(0.0, 0.0))
                continue;
            for (int j = 0; j < 2; ++j)
                out[i * 2 + j] += x * b[k * 2 + j];
        }
}

/** 2x2 row-major entries of Pauli @p type (X, Y or Z). */
void
pauliEntries(GateType type, Complex *out)
{
    Complex e[4];
    gateEntries(type, nullptr, e);
    if (isDiagonalGate(type)) {
        out[0] = e[0];
        out[1] = Complex(0.0, 0.0);
        out[2] = Complex(0.0, 0.0);
        out[3] = e[1];
    } else {
        for (int i = 0; i < 4; ++i)
            out[i] = e[i];
    }
}

} // namespace

KrausChannel
depolarizing1q(double lambda)
{
    double pId, pP;
    depolarizingWeights1q(lambda, pId, pP);
    KrausChannel ch;
    ch.arity = 1;
    ch.ops.push_back(CMatrix::identity(2) * Complex(std::sqrt(pId), 0));
    if (pP > 0.0) {
        ch.ops.push_back(gateMatrix(GateType::X) *
                         Complex(std::sqrt(pP), 0));
        ch.ops.push_back(gateMatrix(GateType::Y) *
                         Complex(std::sqrt(pP), 0));
        ch.ops.push_back(gateMatrix(GateType::Z) *
                         Complex(std::sqrt(pP), 0));
    }
    return ch;
}

KrausChannel
depolarizing2q(double lambda)
{
    if (lambda < 0.0)
        lambda = 0.0;
    KrausChannel ch;
    ch.arity = 2;
    double pId = 1.0 - 15.0 * lambda / 16.0;
    double pP = lambda / 16.0;
    const CMatrix paulis[4] = {
        CMatrix::identity(2),
        gateMatrix(GateType::X),
        gateMatrix(GateType::Y),
        gateMatrix(GateType::Z),
    };
    for (int a = 0; a < 4; ++a) {
        for (int b = 0; b < 4; ++b) {
            double w = (a == 0 && b == 0) ? pId : pP;
            if (w <= 0.0)
                continue;
            // Sub-index bit 0 = first qubit: kron(second, first).
            ch.ops.push_back(paulis[b].kron(paulis[a]) *
                             Complex(std::sqrt(w), 0));
        }
    }
    return ch;
}

KrausChannel
amplitudeDamping(double gamma)
{
    gamma = std::clamp(gamma, 0.0, 1.0);
    KrausChannel ch;
    ch.arity = 1;
    ch.ops.push_back(
        CMatrix(2, 2, {1.0, 0.0, 0.0, std::sqrt(1.0 - gamma)}));
    if (gamma > 0.0)
        ch.ops.push_back(CMatrix(2, 2, {0.0, std::sqrt(gamma), 0.0, 0.0}));
    return ch;
}

KrausChannel
phaseDamping(double lambda)
{
    lambda = std::clamp(lambda, 0.0, 1.0);
    KrausChannel ch;
    ch.arity = 1;
    ch.ops.push_back(
        CMatrix(2, 2, {1.0, 0.0, 0.0, std::sqrt(1.0 - lambda)}));
    if (lambda > 0.0)
        ch.ops.push_back(
            CMatrix(2, 2, {0.0, 0.0, 0.0, std::sqrt(lambda)}));
    return ch;
}

KrausChannel
thermalRelaxation(double t1Us, double t2Us, double timeUs)
{
    double gamma, lambda;
    thermalParams(t1Us, t2Us, timeUs, gamma, lambda);
    return amplitudeDamping(gamma).composeWith(phaseDamping(lambda));
}

void
thermalDepolarizingSuperop1q(double t1Us, double t2Us, double timeUs,
                             double gate1qError, Complex out[16])
{
    // Each step repeats the Kraus chain's operations in its order
    // (construction, the clamps and conditional operator counts,
    // composeWith's operator order, CMatrix products and scaling,
    // superopMatrix's accumulation) so every bit agrees with it.
    double gamma, lambda;
    thermalParams(t1Us, t2Us, timeUs, gamma, lambda);
    gamma = std::clamp(gamma, 0.0, 1.0);
    lambda = std::clamp(lambda, 0.0, 1.0);
    const Complex zero(0.0, 0.0);
    const Complex ad[2][4] = {
        {1.0, zero, zero, std::sqrt(1.0 - gamma)},
        {zero, std::sqrt(gamma), zero, zero},
    };
    const Complex pd[2][4] = {
        {1.0, zero, zero, std::sqrt(1.0 - lambda)},
        {zero, zero, zero, std::sqrt(lambda)},
    };
    const int nAd = gamma > 0.0 ? 2 : 1;
    const int nPd = lambda > 0.0 ? 2 : 1;
    // thermalRelaxation = amplitudeDamping.composeWith(phaseDamping).
    Complex thermal[4][4];
    int nThermal = 0;
    for (int b = 0; b < nPd; ++b)
        for (int a = 0; a < nAd; ++a)
            mul2(pd[b], ad[a], thermal[nThermal++]);

    double pId, pP;
    depolarizingWeights1q(gate1qError, pId, pP);
    Complex depol[4][4];
    const Complex sId(std::sqrt(pId), 0);
    for (int i = 0; i < 4; ++i)
        depol[0][i] = (i == 0 || i == 3 ? Complex(1.0, 0.0) : zero) * sId;
    int nDepol = 1;
    if (pP > 0.0) {
        const GateType paulis[3] = {GateType::X, GateType::Y, GateType::Z};
        const Complex sP(std::sqrt(pP), 0);
        for (GateType g : paulis) {
            Complex e[4];
            pauliEntries(g, e);
            for (int i = 0; i < 4; ++i)
                depol[nDepol][i] = e[i] * sP;
            ++nDepol;
        }
    }

    for (int v = 0; v < 16; ++v)
        out[v] = zero;
    for (int d = 0; d < nDepol; ++d)
        for (int t = 0; t < nThermal; ++t) {
            Complex k[4];
            mul2(depol[d], thermal[t], k);
            for (int rp = 0; rp < 2; ++rp)
                for (int sp = 0; sp < 2; ++sp)
                    for (int r = 0; r < 2; ++r)
                        for (int s = 0; s < 2; ++s)
                            out[(rp + 2 * sp) * 4 + (r + 2 * s)] +=
                                k[rp * 2 + r] * std::conj(k[sp * 2 + s]);
        }
}

void
applyReadoutError(std::vector<double> &probs, int qubit,
                  const ReadoutError &err)
{
    const std::size_t dim = probs.size();
    const std::size_t step = std::size_t{1} << qubit;
    if (step >= dim)
        panic("applyReadoutError: qubit out of range");
    for (std::size_t base = 0; base < dim; base += 2 * step) {
        for (std::size_t off = 0; off < step; ++off) {
            std::size_t i0 = base + off;
            std::size_t i1 = i0 + step;
            double p0 = probs[i0], p1 = probs[i1];
            probs[i0] = (1.0 - err.p01) * p0 + err.p10 * p1;
            probs[i1] = err.p01 * p0 + (1.0 - err.p10) * p1;
        }
    }
}

void
applyReadoutMitigation(std::vector<double> &probs, int qubit,
                       const ReadoutError &err)
{
    const std::size_t dim = probs.size();
    const std::size_t step = std::size_t{1} << qubit;
    if (step >= dim)
        panic("applyReadoutMitigation: qubit out of range");
    double det = 1.0 - err.p01 - err.p10;
    if (det < 0.1)
        panic("applyReadoutMitigation: confusion matrix near-singular");
    // Inverse of [[1-p01, p10], [p01, 1-p10]].
    double a = (1.0 - err.p10) / det, b = -err.p10 / det;
    double c = -err.p01 / det, d = (1.0 - err.p01) / det;
    for (std::size_t base = 0; base < dim; base += 2 * step) {
        for (std::size_t off = 0; off < step; ++off) {
            std::size_t i0 = base + off;
            std::size_t i1 = i0 + step;
            double p0 = probs[i0], p1 = probs[i1];
            probs[i0] = a * p0 + b * p1;
            probs[i1] = c * p0 + d * p1;
        }
    }
}

} // namespace eqc
