/**
 * @file
 * Deterministic random number generation for the whole framework.
 *
 * Every stochastic component (noise sampling, queue waits, drift jitter)
 * draws from an Rng seeded from a user-provided root seed, so complete
 * experiment campaigns replay bit-identically. Child generators can be
 * forked by label so that adding a consumer does not perturb the streams
 * of unrelated consumers.
 */

#ifndef EQC_COMMON_RNG_H
#define EQC_COMMON_RNG_H

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace eqc {

/**
 * A seeded pseudo-random generator with convenience distributions.
 *
 * Wraps std::mt19937_64. Copyable; copies continue the same stream
 * independently from the point of the copy.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (scrambled through splitmix64). */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Fork a child generator whose stream depends on @p label. */
    Rng fork(const std::string &label) const;

    /** Fork a child generator from an integer label. */
    Rng fork(uint64_t label) const;

    /**
     * The seed of Rng(@p seed).fork(@p label): Rng(forkSeed(a, b))
     * replays Rng(a).fork(b) without seeding the parent's engine, and
     * chained forks nest as forkSeed(forkSeed(a, b), c).
     */
    static uint64_t forkSeed(uint64_t seed, uint64_t label);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    int uniformInt(int lo, int hi);

    /** Standard normal draw scaled to N(mean, stddev^2). */
    double normal(double mean = 0.0, double stddev = 1.0);

    /** Lognormal draw with the given parameters of the underlying normal. */
    double lognormal(double mu, double sigma);

    /** Exponential draw with the given mean (not rate). */
    double exponentialMean(double mean);

    /** Poisson draw with the given mean. */
    int poisson(double mean);

    /** true with probability @p p. */
    bool bernoulli(double p);

    /**
     * Sample one index from an unnormalized non-negative weight vector.
     * @param weights unnormalized weights; must contain a positive entry.
     */
    std::size_t discrete(const std::vector<double> &weights);

    /**
     * Draw a multinomial sample: @p shots draws over @p probs.
     * @return per-outcome counts, same length as @p probs.
     */
    std::vector<uint64_t> multinomial(const std::vector<double> &probs,
                                      uint64_t shots);

    /** One raw 64-bit draw from the underlying engine. */
    uint64_t nextU64() { return engine_(); }

    /** The seed this generator was constructed with. */
    uint64_t seed() const { return seed_; }

  private:
    uint64_t seed_;
    std::mt19937_64 engine_;
};

/** splitmix64 hash step, used for seed scrambling and label mixing. */
uint64_t splitmix64(uint64_t x);

/** Stable 64-bit hash of a string (FNV-1a), for label-based forking. */
uint64_t hashLabel(const std::string &label);

} // namespace eqc

#endif // EQC_COMMON_RNG_H
