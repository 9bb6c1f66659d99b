#include "common/rng.h"

#include <algorithm>
#include <cmath>

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

std::size_t
Rng::discrete(const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += std::max(0.0, w);
    if (total <= 0.0)
        panic("Rng::discrete: weight vector has no positive entry");
    double r = uniform() * total;
    double acc = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        acc += std::max(0.0, weights[i]);
        if (r < acc)
            return i;
    }
    return weights.size() - 1;
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
