#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <type_traits>
#include <utility>

#include "common/rng.h"
#include "device/catalog.h"
#include "device/drift.h"
#include "quantum/kraus.h"

namespace eqc {
namespace {

/** true when superopMatrix() can be called on a @p T expression. */
template <typename T, typename = void>
struct CanTakeSuperop : std::false_type
{
};

template <typename T>
struct CanTakeSuperop<
    T, std::void_t<decltype(std::declval<T>().superopMatrix())>>
    : std::true_type
{
};

// The accessor returns a reference into the channel's own cache, so it
// must compile on a named channel and be refused on a temporary, where
// the reference would dangle at the end of the full expression.
static_assert(CanTakeSuperop<KrausChannel &>::value,
              "superopMatrix() must be callable on an lvalue");
static_assert(CanTakeSuperop<const KrausChannel &>::value,
              "superopMatrix() must be callable on a const lvalue");
static_assert(!CanTakeSuperop<KrausChannel>::value,
              "superopMatrix() must be ill-formed on a temporary");
static_assert(!CanTakeSuperop<const KrausChannel &&>::value,
              "superopMatrix() must be ill-formed on a const rvalue");

TEST(Kraus, DepolarizingIsCPTP)
{
    for (double l : {0.0, 0.01, 0.2, 1.0})
        EXPECT_TRUE(depolarizing1q(l).isCPTP()) << l;
    for (double l : {0.0, 0.01, 0.2, 1.0})
        EXPECT_TRUE(depolarizing2q(l).isCPTP()) << l;
}

TEST(Kraus, DampingChannelsAreCPTP)
{
    for (double g : {0.0, 0.1, 0.5, 1.0}) {
        EXPECT_TRUE(amplitudeDamping(g).isCPTP()) << g;
        EXPECT_TRUE(phaseDamping(g).isCPTP()) << g;
    }
}

TEST(Kraus, ThermalRelaxationIsCPTP)
{
    EXPECT_TRUE(thermalRelaxation(100.0, 80.0, 0.1).isCPTP());
    EXPECT_TRUE(thermalRelaxation(50.0, 100.0, 1.0).isCPTP());
    // T2 > 2*T1 must be clamped, still CPTP.
    EXPECT_TRUE(thermalRelaxation(10.0, 50.0, 1.0).isCPTP());
}

TEST(Kraus, CompositionIsCPTP)
{
    KrausChannel c =
        amplitudeDamping(0.2).composeWith(phaseDamping(0.3));
    EXPECT_TRUE(c.isCPTP());
    EXPECT_EQ(c.arity, 1);
}

TEST(Kraus, ZeroNoiseIsIdentityChannel)
{
    KrausChannel c = depolarizing1q(0.0);
    ASSERT_EQ(c.ops.size(), 1u);
    EXPECT_LT(c.ops[0].distance(CMatrix::identity(2)), 1e-12);
}

TEST(Kraus, ReadoutErrorMixesDistribution)
{
    std::vector<double> p = {1.0, 0.0}; // 1 qubit, certainly |0>
    applyReadoutError(p, 0, {0.02, 0.05});
    EXPECT_NEAR(p[0], 0.98, 1e-12);
    EXPECT_NEAR(p[1], 0.02, 1e-12);

    std::vector<double> q = {0.0, 1.0};
    applyReadoutError(q, 0, {0.02, 0.05});
    EXPECT_NEAR(q[0], 0.05, 1e-12);
    EXPECT_NEAR(q[1], 0.95, 1e-12);
}

TEST(Kraus, ReadoutErrorPreservesTotalProbability)
{
    std::vector<double> p = {0.1, 0.2, 0.3, 0.4};
    applyReadoutError(p, 0, {0.03, 0.07});
    applyReadoutError(p, 1, {0.05, 0.01});
    double total = 0;
    for (double v : p)
        total += v;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Kraus, ReadoutErrorTargetsCorrectQubit)
{
    // State |01> (qubit0=1, qubit1=0); flip error only on qubit 1.
    std::vector<double> p = {0.0, 1.0, 0.0, 0.0};
    applyReadoutError(p, 1, {0.5, 0.0});
    EXPECT_NEAR(p[1], 0.5, 1e-12);
    EXPECT_NEAR(p[3], 0.5, 1e-12);
}


/**
 * true when the fixed-size composition equals the Kraus chain's bits;
 * with @p nanAsEqual, NaN components match any NaN (their payloads
 * are not part of the contract) and all others must be bit-equal.
 */
bool
fixedMatchesKraus(double t1, double t2, double t, double e,
                  bool nanAsEqual = false)
{
    Complex fixed[16];
    thermalDepolarizingSuperop1q(t1, t2, t, e, fixed);
    const KrausChannel chain =
        thermalRelaxation(t1, t2, t).composeWith(depolarizing1q(e));
    const CVector &ref = chain.superopMatrix();
    if (ref.size() != 16)
        return false;
    if (!nanAsEqual)
        return std::memcmp(fixed, ref.data(), sizeof(fixed)) == 0;
    for (int v = 0; v < 16; ++v) {
        const double a[2] = {fixed[v].real(), fixed[v].imag()};
        const double b[2] = {ref[v].real(), ref[v].imag()};
        for (int c = 0; c < 2; ++c) {
            if (std::isnan(a[c]) || std::isnan(b[c])) {
                if (std::isnan(a[c]) != std::isnan(b[c]))
                    return false;
            } else if (std::memcmp(&a[c], &b[c], sizeof(double)) != 0) {
                return false;
            }
        }
    }
    return true;
}

TEST(Kraus, FixedThermalDepolarizingSuperopMatchesKrausBitwise)
{
    // A grid of calibrations around the catalog's ranges.
    for (double t1 : {15.0, 60.0, 95.0, 140.0, 400.0})
        for (double ratio : {0.3, 0.9, 1.4, 1.99})
            for (double t : {0.035, 0.3, 5.0})
                for (double e : {1e-5, 3.5e-4, 2e-2, 0.5})
                    EXPECT_TRUE(fixedMatchesKraus(t1, t1 * ratio, t, e))
                        << t1 << " " << ratio << " " << t << " " << e;

    // Edge cases, each with the Kraus operator count that shows which
    // branch it takes: no depolarizing (e = 0, and a negative error
    // taken as 0), gamma tiny at T1 = 1e9 and rounding to 0 over a
    // shorter time, T2 above 2*T1 (clamped, so no dephasing) and
    // T2 == 2*T1 exactly (the invTphi <= 0 branch).
    EXPECT_EQ(depolarizing1q(0.0).ops.size(), 1u);
    EXPECT_EQ(depolarizing1q(-1e-3).ops.size(), 1u);
    EXPECT_TRUE(fixedMatchesKraus(95.0, 80.0, 0.035, 0.0));
    EXPECT_TRUE(fixedMatchesKraus(95.0, 80.0, 0.035, -1e-3));
    EXPECT_EQ(thermalRelaxation(1e9, 80.0, 0.035).ops.size(), 4u);
    EXPECT_TRUE(fixedMatchesKraus(1e9, 80.0, 0.035, 3.5e-4));
    EXPECT_EQ(thermalRelaxation(1e9, 80.0, 1e-9).ops.size(), 2u);
    EXPECT_TRUE(fixedMatchesKraus(1e9, 80.0, 1e-9, 3.5e-4));
    EXPECT_TRUE(fixedMatchesKraus(1e9, 80.0, 1e-9, 0.0));
    EXPECT_EQ(thermalRelaxation(50.0, 130.0, 0.035).ops.size(), 2u);
    EXPECT_TRUE(fixedMatchesKraus(50.0, 130.0, 0.035, 3.5e-4));
    EXPECT_EQ(thermalRelaxation(50.0, 100.0, 0.035).ops.size(), 2u);
    EXPECT_TRUE(fixedMatchesKraus(50.0, 100.0, 0.035, 3.5e-4));
    EXPECT_TRUE(fixedMatchesKraus(50.0, 100.0, 0.035, 0.0));
    EXPECT_EQ(thermalRelaxation(1e9, 2e9, 1e-9).ops.size(), 1u);
    EXPECT_TRUE(fixedMatchesKraus(1e9, 2e9, 1e-9, 0.0));

    // A NaN gate time or T1 must poison exactly the entries the chain
    // poisons. This is the only input class where CMatrix's skip of
    // zero left entries shows: accumulating from +0, adding a finite
    // 0 * b never changes a bit, but 0 * NaN does.
    const double nan = std::nan("");
    EXPECT_TRUE(fixedMatchesKraus(95.0, 80.0, nan, 3.5e-4, true));
    EXPECT_TRUE(fixedMatchesKraus(nan, 80.0, 0.035, 3.5e-4, true));
    EXPECT_TRUE(fixedMatchesKraus(nan, 80.0, 0.035, 0.0, true));

    // Every qubit of every catalog device, at three drift times of the
    // actual calibration the backend's noise context is built from.
    int qubits = 0;
    for (const Device &dev : ibmqCatalog()) {
        CalibrationTracker tracker(dev.baseCalibration, dev.drift,
                                   Rng(1).fork(dev.name));
        for (double tH : {0.5, 11.0, 60.0}) {
            const CalibrationSnapshot cal = tracker.actual(tH);
            const double t1qUs = cal.gate1qTimeNs / 1000.0;
            for (const QubitCalibration &qc : cal.qubits) {
                EXPECT_TRUE(fixedMatchesKraus(qc.t1Us, qc.t2Us, t1qUs,
                                              qc.gate1qError))
                    << dev.name << " at " << tH;
                ++qubits;
            }
        }
    }
    EXPECT_GT(qubits, 3 * 100);
}

} // namespace
} // namespace eqc
