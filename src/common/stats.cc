#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace eqc {

void
RunningStats::add(double x)
{
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double
exactQuantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    q = std::min(std::max(q, 0.0), 1.0);
    double pos = q * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    if (xs.size() != ys.size())
        panic("pearson: series lengths differ");
    std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    double mx = mean(xs), my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double dx = xs[i] - mx, dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

double
pearsonPValue(double r, std::size_t n)
{
    if (n < 3)
        return 1.0;
    double df = static_cast<double>(n - 2);
    double denom = 1.0 - r * r;
    if (denom <= 0.0)
        return 0.0;
    double t = std::fabs(r) * std::sqrt(df / denom);
    // Normal-tail approximation of the t distribution.
    double z = t;
    double tail = 0.5 * std::erfc(z / std::sqrt(2.0));
    return 2.0 * tail;
}

LinearFit
linearFit(const std::vector<double> &xs, const std::vector<double> &ys)
{
    if (xs.size() != ys.size())
        panic("linearFit: series lengths differ");
    LinearFit fit;
    std::size_t n = xs.size();
    if (n < 2)
        return fit;
    double mx = mean(xs), my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double dx = xs[i] - mx, dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0)
        return fit;
    fit.slope = sxy / sxx;
    fit.intercept = my - fit.slope * mx;
    if (syy > 0.0) {
        double ssRes = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double pred = fit.slope * xs[i] + fit.intercept;
            ssRes += (ys[i] - pred) * (ys[i] - pred);
        }
        fit.r2 = 1.0 - ssRes / syy;
    }
    return fit;
}

} // namespace eqc
