#include <gtest/gtest.h>

#include "core/eqc.h"

namespace eqc {
namespace {

TrainingTrace
traceOf(const std::vector<double> &device,
        const std::vector<double> &ideal = {})
{
    TrainingTrace t;
    for (std::size_t i = 0; i < device.size(); ++i) {
        EpochRecord r;
        r.epoch = static_cast<int>(i);
        r.energyDevice = device[i];
        r.energyIdeal = i < ideal.size() ? ideal[i] : device[i];
        t.epochs.push_back(r);
    }
    return t;
}

TEST(TraceHelpers, ConvergenceEpochBasic)
{
    // Descends to -4 and stays there from index 3.
    std::vector<double> s = {0, -2, -3.5, -4.0, -4.0, -4.0, -4.0, -4.0};
    EXPECT_EQ(convergenceEpoch(s, -4.0, 0.3, 2), 3);
}

TEST(TraceHelpers, ConvergenceNeverReached)
{
    std::vector<double> s = {0, -1, -2, -2.5};
    EXPECT_EQ(convergenceEpoch(s, -4.0, 0.2, 2), -1);
}

TEST(TraceHelpers, ConvergenceRejectsLaterDivergence)
{
    // Converges then drifts away (the Casablanca pattern): the epoch
    // must not count as converged.
    std::vector<double> s(40, -4.0);
    for (int i = 25; i < 40; ++i)
        s[i] = -2.0;
    EXPECT_EQ(convergenceEpoch(s, -4.0, 0.3, 3), -1);
}

TEST(TraceHelpers, ConvergenceWindowSmoothsNoise)
{
    // A single spike inside an otherwise converged tail is tolerated
    // by the rolling window.
    std::vector<double> s(30, -4.0);
    s[20] = -3.5; // spike of 0.5, window 5 dilutes to 0.1
    EXPECT_EQ(convergenceEpoch(s, -4.0, 0.2, 5), 0);
}

TEST(TraceHelpers, EmptySeries)
{
    EXPECT_EQ(convergenceEpoch(std::vector<double>{}, -4.0, 0.1, 5), -1);
}

TEST(TraceHelpers, FinalEnergyAverages)
{
    TrainingTrace t = traceOf({-1, -2, -3, -4});
    EXPECT_DOUBLE_EQ(finalEnergy(t, 2), -3.5);
    EXPECT_DOUBLE_EQ(finalEnergy(t, 10), -2.5); // clamps to size
    TrainingTrace empty;
    EXPECT_DOUBLE_EQ(finalEnergy(empty, 5), 0.0);
}

TEST(TraceHelpers, FinalIdealEnergyUsesIdealSeries)
{
    TrainingTrace t = traceOf({-1, -2}, {-3, -5});
    EXPECT_DOUBLE_EQ(finalIdealEnergy(t, 1), -5.0);
    EXPECT_DOUBLE_EQ(finalIdealEnergy(t, 2), -4.0);
}

TEST(TraceHelpers, SeriesAccessors)
{
    TrainingTrace t = traceOf({-1, -2}, {-3, -4});
    auto idl = t.idealEnergySeries();
    ASSERT_EQ(idl.size(), 2u);
    EXPECT_DOUBLE_EQ(idl[0], -3.0);
    EXPECT_DOUBLE_EQ(idl[1], -4.0);
}

TEST(TraceHelpers, ErrorVsReference)
{
    EXPECT_NEAR(errorVsReference(-3.9, -4.0), 2.5, 1e-12);
    EXPECT_NEAR(errorVsReference(-4.1, -4.0), 2.5, 1e-12);
    EXPECT_DOUBLE_EQ(errorVsReference(-4.0, -4.0), 0.0);
}

} // namespace
} // namespace eqc
