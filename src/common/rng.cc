#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/logging.h"

namespace eqc {

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

uint64_t
hashLabel(const std::string &label)
{
    uint64_t h = 0xCBF29CE484222325ULL;
    for (unsigned char c : label) {
        h ^= c;
        h *= 0x100000001B3ULL;
    }
    return h;
}

namespace {

constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;
constexpr uint64_t kLowerMask = ~kUpperMask;

/** The Mersenne Twister recurrence for one state word. */
inline uint64_t
twistWord(uint64_t hi, uint64_t lo, uint64_t far)
{
    const uint64_t y = (hi & kUpperMask) | (lo & kLowerMask);
    return far ^ (y >> 1) ^ ((y & 1) ? 0xB5026F5AA96619E9ULL : 0);
}

} // namespace

void
MersenneTwister64::seedTo(std::size_t end)
{
    for (std::size_t i = seeded_; i < end; ++i) {
        const uint64_t p = x_[i - 1];
        x_[i] = 6364136223846793005ULL * (p ^ (p >> 62)) + i;
    }
    seeded_ = end;
}

void
MersenneTwister64::refill()
{
    constexpr std::size_t n = kStateSize, m = kShift;
    if (ready_ < n) {
        // First generation: twist word k in place, as the bulk twist
        // below would, seeding only as far as it reads.
        const std::size_t k = ready_++;
        if (k < n - m) {
            if (seeded_ <= k + m)
                seedTo(k + m + 1);
            x_[k] = twistWord(x_[k], x_[k + 1], x_[k + m]);
        } else if (k + 1 < n) {
            x_[k] = twistWord(x_[k], x_[k + 1], x_[k + m - n]);
        } else {
            x_[k] = twistWord(x_[k], x_[0], x_[m - 1]);
        }
        return;
    }
    // Every later generation: the standard bulk twist.
    std::size_t k = 0;
    for (; k < n - m; ++k)
        x_[k] = twistWord(x_[k], x_[k + 1], x_[k + m]);
    for (; k < n - 1; ++k)
        x_[k] = twistWord(x_[k], x_[k + 1], x_[k + m - n]);
    x_[n - 1] = twistWord(x_[n - 1], x_[0], x_[m - 1]);
    next_ = 0;
}

Rng::Rng(uint64_t seed) : seed_(seed), engine_(splitmix64(seed)) {}

Rng
Rng::fork(const std::string &label) const
{
    return fork(hashLabel(label));
}

uint64_t
Rng::forkSeed(uint64_t seed, uint64_t label)
{
    return splitmix64(seed ^ splitmix64(label));
}

Rng
Rng::fork(uint64_t label) const
{
    return Rng(forkSeed(seed_, label));
}

double
Rng::uniform()
{
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
}

double
Rng::uniform(double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
}

int
Rng::uniformInt(int lo, int hi)
{
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
}

double
Rng::normal(double mean, double stddev)
{
    return std::normal_distribution<double>(mean, stddev)(engine_);
}

double
Rng::lognormal(double mu, double sigma)
{
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
}

double
Rng::exponentialMean(double mean)
{
    if (mean <= 0.0)
        return 0.0;
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
}

int
Rng::poisson(double mean)
{
    if (mean <= 0.0)
        return 0;
    return std::poisson_distribution<int>(mean)(engine_);
}

bool
Rng::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return std::bernoulli_distribution(p)(engine_);
}

std::vector<uint64_t>
Rng::multinomial(const std::vector<double> &probs, uint64_t shots)
{
    // Cumulative-distribution inversion with binary search per shot.
    std::vector<double> cdf(probs.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        acc += std::max(0.0, probs[i]);
        cdf[i] = acc;
    }
    std::vector<uint64_t> counts(probs.size(), 0);
    if (acc <= 0.0)
        panic("Rng::multinomial: probabilities sum to zero");
    for (uint64_t s = 0; s < shots; ++s) {
        double r = uniform() * acc;
        auto it = std::upper_bound(cdf.begin(), cdf.end(), r);
        std::size_t idx = std::min<std::size_t>(
            static_cast<std::size_t>(it - cdf.begin()), probs.size() - 1);
        ++counts[idx];
    }
    return counts;
}

} // namespace eqc
