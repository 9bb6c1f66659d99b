/**
 * @file
 * Measurement plumbing of the end-to-end benchmark: wall and CPU
 * clocks, order statistics, an in-memory span recorder with Chrome
 * trace export and self-time analysis, the result digest, and the
 * per-layer sample store the traced run fills.
 */

#ifndef EQC_BENCH_E2E_HARNESS_H
#define EQC_BENCH_E2E_HARNESS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

/** Monotonic wall clock in nanoseconds (std::chrono::steady_clock). */
int64_t nowNs();

/** Seconds between two nowNs() readings. */
inline double
secondsBetween(int64_t a, int64_t b)
{
    return static_cast<double>(b - a) * 1e-9;
}

/** User + system CPU seconds consumed by the process so far. */
double cpuSeconds();

/** Peak resident set size of the process, in MiB. */
double peakRssMb();

/**
 * Quantile @p q in [0, 1] of @p v with linear interpolation between
 * order statistics (0 when empty).
 */
double quantile(std::vector<double> v, double q);

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** splitmix64-derived child seed of (@p seed, @p a, @p b). */
uint64_t deriveSeed(uint64_t seed, uint64_t a, uint64_t b = 0);

/** FNV-1a over the bit patterns of doubles: the run's result digest. */
class Digest
{
  public:
    void add(double x);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 1469598103934665603ULL;
};

/** One recorded span (see Tracer). */
struct Span
{
    const char *name = "";
    /** Index of the parent span in record order; -1 for roots. */
    int parent = -1;
    /** Campaign, round or segment the span belongs to. */
    uint64_t traceId = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    /** Small per-thread id, for the Chrome trace's tid column. */
    int tid = 0;
};

/**
 * In-memory span recorder. Spans are recorded from the benchmark's own
 * code around calls into the library; disabled recorders cost one
 * branch per call. Thread-safe (campaign spans close on engine
 * worker threads).
 */
class Tracer
{
  public:
    void setEnabled(bool on) { enabled_ = on; }

    /** Record a finished span; returns its index (-1 when disabled). */
    int record(const char *name, int parent, uint64_t traceId,
               int64_t startNs, int64_t endNs);

    /** Open a span now; close it with end(). -1 when disabled. */
    int begin(const char *name, int parent, uint64_t traceId);
    void end(int index);

    /** Per span name: count, total and self time (children removed). */
    struct NameStats
    {
        uint64_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
        std::vector<double> selfMsSamples;
    };
    std::map<std::string, NameStats> selfTimes() const;

    /** Write the spans as a Chrome trace-event JSON file. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool enabled_ = false;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * Raw per-layer observations of the traced run, keyed by layer metric
 * stem (e.g. "transpile.us"). Timings are stored in the unit their
 * metric reports.
 */
struct LayerSamples
{
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> values;

    void add(const std::string &key, double v) { samples[key].push_back(v); }
    void set(const std::string &key, double v) { values[key] = v; }
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Print the benchmark's result line: one JSON object with correct,
 * attempted, failed and the metrics, as the last line of stdout.
 */
void printResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric> &metrics);

/** JSON string literal of @p s (quotes and escapes added). */
std::string jsonString(const std::string &s);

/** Shortest round-trip text of a double ("null" when not finite). */
std::string jsonNumber(double v);

} // namespace e2e

#endif // EQC_BENCH_E2E_HARNESS_H
