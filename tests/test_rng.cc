#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace eqc {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.uniform() == b.uniform())
            ++same;
    EXPECT_LT(same, 4);
}

TEST(Rng, ForkByLabelIsStable)
{
    Rng root(7);
    Rng c1 = root.fork("queue");
    Rng c2 = Rng(7).fork("queue");
    EXPECT_DOUBLE_EQ(c1.uniform(), c2.uniform());
}

TEST(Rng, ForkSeedReplaysForkWithoutTheParent)
{
    const uint64_t seeds[] = {0, 1, 7, 0x9E3779B97F4A7C15ULL,
                              ~uint64_t{0}};
    const uint64_t labels[] = {0, 1, 42, hashLabel("serve"),
                               uint64_t{1} << 63};
    for (uint64_t a : seeds) {
        for (uint64_t b : labels) {
            Rng viaFork = Rng(a).fork(b);
            Rng viaSeed(Rng::forkSeed(a, b));
            EXPECT_EQ(viaSeed.seed(), viaFork.seed());
            for (int i = 0; i < 8; ++i)
                EXPECT_EQ(viaSeed.nextU64(), viaFork.nextU64())
                    << a << " " << b << " draw " << i;
        }
        // Chained forks nest.
        Rng chained = Rng(a).fork(3).fork(5);
        Rng nested(Rng::forkSeed(Rng::forkSeed(a, 3), 5));
        EXPECT_EQ(nested.nextU64(), chained.nextU64()) << a;
    }
}

TEST(Rng, ForkedStreamsIndependent)
{
    Rng root(7);
    Rng a = root.fork("a");
    Rng b = root.fork("b");
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.uniform() == b.uniform())
            ++same;
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformRange)
{
    Rng r(3);
    for (int i = 0; i < 1000; ++i) {
        double x = r.uniform(2.0, 5.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng r(3);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        int v = r.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        sawLo |= (v == 0);
        sawHi |= (v == 3);
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, NormalMoments)
{
    Rng r(11);
    double sum = 0.0, sum2 = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double x = r.normal(1.5, 2.0);
        sum += x;
        sum2 += x * x;
    }
    double m = sum / n;
    double var = sum2 / n - m * m;
    EXPECT_NEAR(m, 1.5, 0.06);
    EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng r(5);
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng r(13);
    std::vector<double> w = {0.0, 3.0, 1.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 8000; ++i)
        ++counts[r.discrete(w)];
    EXPECT_EQ(counts[0], 0);
    EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 3.0, 0.35);
}

TEST(Rng, MultinomialTotalAndDistribution)
{
    Rng r(17);
    std::vector<double> p = {0.5, 0.25, 0.25};
    auto counts = r.multinomial(p, 8192);
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    EXPECT_EQ(total, 8192u);
    EXPECT_NEAR(static_cast<double>(counts[0]) / 8192.0, 0.5, 0.03);
}

TEST(Rng, ExponentialMeanApprox)
{
    Rng r(23);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += r.exponentialMean(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, LognormalPositive)
{
    Rng r(29);
    for (int i = 0; i < 100; ++i)
        EXPECT_GT(r.lognormal(0.0, 1.0), 0.0);
}

} // namespace
} // namespace eqc
