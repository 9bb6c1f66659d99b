#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

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

/**
 * First draw at which @p lazy and @p ref disagree over the next
 * @p count draws, or -1 when they agree throughout.
 */
int
firstMismatch(MersenneTwister64 &lazy, std::mt19937_64 &ref, int count)
{
    int bad = -1;
    for (int i = 0; i < count; ++i)
        if (lazy() != ref() && bad < 0)
            bad = i;
    return bad;
}

// The lazy engine is std::mt19937_64 bit for bit: for every seed, at
// every draw count (in particular across the lazily twisted first
// generation's edges at 156 and 312 and the first bulk twist's at
// 624), and for copies taken at those points.
TEST(Rng, LazyEngineMatchesMt19937_64)
{
    std::vector<uint64_t> seeds = {0, ~uint64_t{0}, 5489u, 1,
                                   uint64_t{1} << 63};
    for (uint64_t i = 0; i < 1000; ++i)
        seeds.push_back(splitmix64(i));
    const int marks[] = {0,   1,   155, 156, 157, 311,
                         312, 313, 623, 624, 625};
    for (uint64_t seed : seeds) {
        MersenneTwister64 lazy(seed);
        std::mt19937_64 ref(seed);
        int drawn = 0;
        for (int mark : marks) {
            EXPECT_EQ(firstMismatch(lazy, ref, mark - drawn), -1)
                << "seed " << seed << " before draw " << mark;
            drawn = mark;
            // A copy continues the same stream, past the next edge,
            // and leaves the original's alone; so does an assignment
            // over an engine further along.
            MersenneTwister64 copy = lazy;
            std::mt19937_64 refCopy = ref;
            EXPECT_EQ(firstMismatch(copy, refCopy, 320), -1)
                << "seed " << seed << " copy at draw " << mark;
            MersenneTwister64 assigned(~seed);
            for (int k = 0; k < 700; ++k)
                assigned();
            assigned = lazy;
            refCopy = ref;
            EXPECT_EQ(firstMismatch(assigned, refCopy, 320), -1)
                << "seed " << seed << " assigned at draw " << mark;
        }
        EXPECT_EQ(firstMismatch(lazy, ref, 700), -1) << "seed " << seed;
    }
}

// Every Rng distribution draws exactly what the std:: distribution
// draws on std::mt19937_64, one fresh distribution object per call as
// Rng makes them (normal_distribution caches its second value).
TEST(Rng, DistributionsMatchStdOnMt19937_64)
{
    const std::vector<double> probs = {0.1, 0.0, 0.45, 0.2, 0.25};
    for (uint64_t i = 0; i < 40; ++i) {
        const uint64_t seed = splitmix64(i ^ 0xABCDEFULL);
        Rng rng(seed);
        std::mt19937_64 ref(splitmix64(seed));
        for (int round = 0; round < 60; ++round) {
            const double mean = 0.5 + round;
            EXPECT_EQ(rng.uniform(),
                      std::uniform_real_distribution<double>(0.0, 1.0)(ref));
            EXPECT_EQ(rng.uniform(-2.0, 3.5),
                      std::uniform_real_distribution<double>(-2.0, 3.5)(
                          ref));
            EXPECT_EQ(rng.uniformInt(-3, 1000),
                      std::uniform_int_distribution<int>(-3, 1000)(ref));
            EXPECT_EQ(rng.normal(1.5, 0.25),
                      std::normal_distribution<double>(1.5, 0.25)(ref));
            EXPECT_EQ(rng.lognormal(0.1, 0.4),
                      std::lognormal_distribution<double>(0.1, 0.4)(ref));
            EXPECT_EQ(rng.exponentialMean(mean),
                      std::exponential_distribution<double>(1.0 / mean)(
                          ref));
            EXPECT_EQ(rng.poisson(mean),
                      std::poisson_distribution<int>(mean)(ref));
            EXPECT_EQ(rng.bernoulli(0.3),
                      std::bernoulli_distribution(0.3)(ref));
            // multinomial: CDF inversion over uniform() draws.
            std::vector<uint64_t> want(probs.size(), 0);
            for (int shot = 0; shot < 7; ++shot) {
                double r =
                    std::uniform_real_distribution<double>(0.0, 1.0)(ref);
                double acc = 0.0;
                std::size_t k = 0;
                for (; k + 1 < probs.size(); ++k) {
                    acc += probs[k];
                    if (r < acc)
                        break;
                }
                ++want[k];
            }
            EXPECT_EQ(rng.multinomial(probs, 7), want);
        }
        EXPECT_EQ(rng.nextU64(), ref()) << seed;
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
