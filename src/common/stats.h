/**
 * @file
 * Small statistics toolkit: running moments, exact quantiles, Pearson
 * correlation and ordinary-least-squares linear regression (used to
 * reproduce the Fig. 4 model-validation numbers: R^2, Pearson r,
 * fitted line).
 */

#ifndef EQC_COMMON_STATS_H
#define EQC_COMMON_STATS_H

#include <cstddef>
#include <vector>

namespace eqc {

/** Welford running mean/variance accumulator. */
class RunningStats
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Number of observations so far. */
    std::size_t count() const { return n_; }

    /** Mean of the observations (0 when empty). */
    double mean() const { return mean_; }

    /** Unbiased sample variance (0 with <2 observations). */
    double variance() const;

    /** Square root of variance(). */
    double stddev() const;

    /** Smallest observation seen (+inf when empty). */
    double min() const { return min_; }

    /** Largest observation seen (-inf when empty). */
    double max() const { return max_; }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Result of an ordinary-least-squares fit y = slope * x + intercept. */
struct LinearFit
{
    double slope = 0.0;
    double intercept = 0.0;
    /** Coefficient of determination of the fit. */
    double r2 = 0.0;
};

/** Mean of a vector (0 when empty). */
double mean(const std::vector<double> &xs);

/** Unbiased sample standard deviation (0 with <2 elements). */
double stddev(const std::vector<double> &xs);

/**
 * Quantile @p q in [0, 1] of the ascending-sorted @p sorted, linearly
 * interpolated between order statistics: q = 0 / 1 give the min / max,
 * and an empty input gives 0.
 */
double exactQuantile(const std::vector<double> &sorted, double q);

/**
 * Pearson correlation coefficient between two equal-length series.
 * @return value in [-1, 1]; 0 when either series is constant.
 */
double pearson(const std::vector<double> &xs, const std::vector<double> &ys);

/**
 * Two-tailed p-value for a Pearson correlation of @p r over @p n samples,
 * from the t-statistic with a normal tail approximation (adequate for the
 * n ~ 30+ sample sizes used in the Fig. 4 reproduction).
 */
double pearsonPValue(double r, std::size_t n);

/** Least-squares fit of ys against xs. */
LinearFit linearFit(const std::vector<double> &xs,
                    const std::vector<double> &ys);

} // namespace eqc

#endif // EQC_COMMON_STATS_H
