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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace eqc {

/**
 * std::mt19937_64, bit for bit, with the seeding and the first twist
 * done only as far as the draws reach.
 *
 * The standard engine fills all 312 state words when seeded and twists
 * all 312 on the first draw. Here first-generation word k < 156 is
 * twisted on demand from seed words k, k+1 and k+156, and seed words
 * are computed in order only up to that horizon; words 156-311 use
 * words twisted earlier in the same generation. From draw 313 on every
 * generation is the ordinary bulk twist. A generator that makes a few
 * draws (a Gaussian shot-noise estimate uses about five) therefore
 * pays for about 160 state words instead of 624.
 *
 * Models UniformRandomBitGenerator with the standard engine's
 * result_type, min() and max(), so the std:: distributions consume the
 * same words and return the same values. Copies carry only the state
 * words computed so far.
 */
class MersenneTwister64
{
  public:
    using result_type = uint64_t;

    explicit MersenneTwister64(uint64_t seed) { x_[0] = seed; }

    MersenneTwister64(const MersenneTwister64 &o) { *this = o; }

    MersenneTwister64 &
    operator=(const MersenneTwister64 &o)
    {
        if (this != &o) {
            std::copy(o.x_, o.x_ + o.seeded_, x_);
            seeded_ = o.seeded_;
            ready_ = o.ready_;
            next_ = o.next_;
        }
        return *this;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** The next 64-bit output. */
    result_type
    operator()()
    {
        if (next_ == ready_)
            refill();
        result_type z = x_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
        z ^= (z << 37) & 0xFFF7EEE000000000ULL;
        z ^= z >> 43;
        return z;
    }

  private:
    static constexpr std::size_t kStateSize = 312;
    static constexpr std::size_t kShift = 156;

    /**
     * Make word next_ of the generation available: twist the next
     * first-generation word, or run the bulk twist of a new generation.
     */
    void refill();

    /** Compute seed words up to (excluding) @p end. */
    void seedTo(std::size_t end);

    /** State words; only [0, seeded_) hold values. */
    uint64_t x_[kStateSize];
    /** Seed words computed (all of them from first-generation word 155 on). */
    std::size_t seeded_ = 1;
    /** Words of the current generation twisted and ready to temper. */
    std::size_t ready_ = 0;
    /** Index of the next word to output. */
    std::size_t next_ = 0;
};

/**
 * A seeded pseudo-random generator with convenience distributions.
 *
 * Draws from MersenneTwister64, so every stream is the one
 * std::mt19937_64 would give. Copyable; copies continue the same stream
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
    MersenneTwister64 engine_;
};

/** splitmix64 hash step, used for seed scrambling and label mixing. */
uint64_t splitmix64(uint64_t x);

/** Stable 64-bit hash of a string (FNV-1a), for label-based forking. */
uint64_t hashLabel(const std::string &label);

} // namespace eqc

#endif // EQC_COMMON_RNG_H
