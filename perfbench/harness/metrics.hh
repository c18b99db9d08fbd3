/**
 * @file
 * Summary statistics, result digests and the metric report of the
 * MOUSE stack benchmark.
 *
 * Percentiles follow the benchmark's reporting rule: a tail
 * percentile is only quoted when at least ten samples lie beyond it,
 * so a short run reports a lower percentile (with its label and
 * count) rather than an extreme value backed by one or two samples.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Samples a quoted tail percentile must have beyond it. */
constexpr std::size_t kMinTailSamples = 10;

/** Latency samples per SegmentedTail segment: enough for a p99 with
 *  50 samples beyond it. */
constexpr std::size_t kLatencySegment = 5000;

/** A nearest-rank percentile together with its support. */
struct Percentile
{
    /** The percentile actually reported, in (0, 1]. */
    double q = 0.0;
    double value = 0.0;
    /** Samples ranked strictly above the reported one. */
    std::size_t beyond = 0;
    /** All samples; when not even the median has kMinTailSamples
     *  beyond it, the median is reported anyway. */
    std::size_t samples = 0;
};

/** Nearest-rank percentile @p q of @p v (the ceil(q*n)-th smallest).
 *  0 for an empty vector. */
double nearestRank(std::vector<double> v, double q);

/**
 * The highest percentile, no higher than @p wanted, that has at least
 * kMinTailSamples samples beyond it.  Candidates are @p wanted and
 * then the ladder 0.99, 0.9, 0.75, 0.5 below it.
 */
Percentile tailPercentile(const std::vector<double> &v, double wanted);

/**
 * Tail percentiles of a sample stream taken over consecutive segments
 * of a fixed length and summarized by their median across segments.
 * On a shared host a stall lasting a few seconds decides a pooled p99
 * on its own; here it spoils a few segments and barely moves the
 * median.  Memory stays one segment long, so it does not grow with
 * the length of a run.
 */
class SegmentedTail
{
  public:
    /** @p wanted are the percentiles to track, each as for
     *  tailPercentile(). */
    SegmentedTail(std::size_t segment, std::vector<double> wanted);

    void add(double v);

    /**
     * Median over complete segments of each segment's percentile for
     * wanted[i] (q and beyond describe one segment; samples
     * counts the whole stream).  With no complete segment the partial
     * one is used.
     */
    Percentile result(std::size_t i) const;

    /** Complete segments so far. */
    std::size_t
    segments() const
    {
        return perSegment_.empty() ? 0 : perSegment_[0].size();
    }

  private:
    std::size_t segment_;
    std::vector<double> wanted_;
    std::vector<double> buf_;
    /** perSegment_[i][k]: wanted[i] of segment k. */
    std::vector<std::vector<Percentile>> perSegment_;
    std::size_t seen_ = 0;
};

/** Geometric mean of strictly positive values (0 when empty or when
 *  any value is not positive). */
double geomean(const std::vector<double> &v);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &v);

/** Median by linear interpolation; 0 when empty. */
double median(std::vector<double> v);

/** FNV-1a over a canonical byte stream of results or inputs. */
class Digest
{
  public:
    void addBytes(const void *data, std::size_t n);
    void add(std::uint64_t v) { addBytes(&v, sizeof v); }
    /** Adds the exact bit pattern, so equal digests mean bit-equal
     *  values. */
    void add(double v);
    void add(const std::string &s);

    std::uint64_t value() const { return h_; }
    std::string hex() const;

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Samples behind the value (runs, requests, rounds, ...). */
    std::size_t samples = 0;
    /** Free-form qualifier, e.g. the percentile actually reported. */
    std::string note;
};

/** The metrics of one benchmark run, in insertion order. */
class Report
{
  public:
    void add(std::string name, double value, std::string unit,
             std::size_t samples, std::string note = "");

    /** One human-readable line per metric. */
    std::string table() const;

    /** {"name":{"value":..,"unit":".."},...} with every digit; a
     *  non-finite value is written as null. */
    std::string json() const;

  private:
    std::vector<Metric> metrics_;
};

/** Adds latency_p50_ms and latency_p99_ms from @p lat (seconds) to
 *  @p rep, naming what a latency is on this workload in @p what. */
void addLatency(Report &rep, const SegmentedTail &lat,
                const std::string &what);

/** Shortest round-tripping decimal of @p v. */
std::string num(double v);

/** JSON string literal of @p s (quotes included). */
std::string jsonString(const std::string &s);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
