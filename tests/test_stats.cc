#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/stats.h"

namespace eqc {
namespace {

TEST(RunningStats, MeanVarianceMinMax)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation)
{
    std::vector<double> x = {1, 2, 3, 4, 5};
    std::vector<double> y = {2, 4, 6, 8, 10};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    std::vector<double> yneg = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, yneg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero)
{
    std::vector<double> x = {1, 2, 3};
    std::vector<double> y = {5, 5, 5};
    EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Stats, PearsonUncorrelatedNearZero)
{
    // Symmetric design: y independent of x.
    std::vector<double> x = {1, 2, 3, 4, 1, 2, 3, 4};
    std::vector<double> y = {1, 1, 1, 1, -1, -1, -1, -1};
    EXPECT_NEAR(pearson(x, y), 0.0, 1e-12);
}

TEST(Stats, PearsonPValueStrongCorrelationSmall)
{
    EXPECT_LT(pearsonPValue(0.9, 40), 0.001);
    EXPECT_GT(pearsonPValue(0.1, 10), 0.5);
}

TEST(Stats, LinearFitRecoversLine)
{
    std::vector<double> x, y;
    for (int i = 0; i < 50; ++i) {
        x.push_back(i);
        y.push_back(0.86 * i + 0.05);
    }
    LinearFit f = linearFit(x, y);
    EXPECT_NEAR(f.slope, 0.86, 1e-12);
    EXPECT_NEAR(f.intercept, 0.05, 1e-10);
    EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitR2Partial)
{
    std::vector<double> x = {0, 1, 2, 3};
    std::vector<double> y = {0, 1, 2, 10};
    LinearFit f = linearFit(x, y);
    EXPECT_GT(f.r2, 0.5);
    EXPECT_LT(f.r2, 1.0);
}

TEST(ExactQuantile, InterpolatesBetweenOrderStatistics)
{
    // 1..100: nearest-rank with linear interpolation, min / max at the
    // ends, q clamped into [0, 1].
    std::vector<double> xs;
    for (int i = 1; i <= 100; ++i)
        xs.push_back(i);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 1.0), 100.0);
    EXPECT_NEAR(exactQuantile(xs, 0.50), 50.5, 1e-12);
    EXPECT_NEAR(exactQuantile(xs, 0.95), 95.05, 1e-12);
    EXPECT_NEAR(exactQuantile(xs, 0.99), 99.01, 1e-12);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, -1.0), 1.0);
    EXPECT_DOUBLE_EQ(exactQuantile(xs, 2.0), 100.0);
}

TEST(ExactQuantile, EmptyAndSingle)
{
    EXPECT_DOUBLE_EQ(exactQuantile({}, 0.5), 0.0);
    const std::vector<double> one = {42.0};
    EXPECT_DOUBLE_EQ(exactQuantile(one, 0.5), 42.0);
    EXPECT_DOUBLE_EQ(exactQuantile(one, 0.99), 42.0);
}

TEST(Stats, MeanStddevVectors)
{
    std::vector<double> xs = {1.0, 3.0};
    EXPECT_DOUBLE_EQ(mean(xs), 2.0);
    EXPECT_NEAR(stddev(xs), std::sqrt(2.0), 1e-12);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({2.0}), 0.0);
}

} // namespace
} // namespace eqc
