/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The traced run wraps each call it makes into a simulator layer in a
 * span (name, start, end, parent) and bumps counters at the same
 * boundaries.  Spans stay in memory and are written out as
 * Chrome-trace JSON when the run ends.  A disabled recorder does no
 * timing and stores nothing, which is how the traced run measures its
 * own overhead against an otherwise identical untraced replay.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** One recorded span; times are seconds since the recorder epoch. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the enclosing span; -1 for a root. */
    int parent = -1;

    double duration() const { return end - start; }
};

/** Single-threaded span and counter recorder. */
class Tracer
{
  public:
    explicit Tracer(bool enabled = true);

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its index
     *  (-1 when disabled). */
    int begin(const char *name);
    /** Close span @p id, which must be the innermost open one. */
    void end(int id);

    /** Add @p v to counter @p name (no-op when disabled). */
    void count(const std::string &name, double v = 1.0);
    double counter(const std::string &name) const;

    /** Record a finished span directly (tests, imported timings). */
    int record(std::string name, double start, double end, int parent);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: its duration minus the part of its
     *  interval covered by its children (overlapping children are
     *  counted once).  Index-aligned with spans(). */
    std::vector<double> selfTimes() const;

    /** Sum of durations of the spans named @p name. */
    double total(const std::string &name) const;
    /** Number of spans named @p name. */
    std::size_t spanCount(const std::string &name) const;

    /** One line per span name, longest total first: count, total
     *  and self time in ms. */
    std::string summary() const;

    /** Chrome trace_event JSON ("X" events, one thread). */
    std::string chromeJson() const;

  private:
    double now() const;

    bool enabled_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    std::map<std::string, double> counters_;
};

/** RAII span over the enclosing scope. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

/**
 * What recording spans costs: runs @p replay (a callable taking a
 * Tracer &) once untraced as a warm-up, then untraced, traced, traced,
 * untraced, so that a linear drift cancels, and returns traced over
 * untraced wall time minus one.  @p traced, which must be enabled,
 * receives the spans of the last traced run.
 */
template <typename F>
double
measureTraceOverhead(F &&replay, Tracer &traced)
{
    const auto wall = [&](Tracer &t) {
        const auto t0 = std::chrono::steady_clock::now();
        replay(t);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
            .count();
    };
    Tracer warm(false);
    Tracer off1(false);
    Tracer on1(true);
    Tracer off2(false);
    wall(warm);
    const double a = wall(off1);
    const double b = wall(on1);
    const double c = wall(traced);
    const double d = wall(off2);
    return (b + c) / (a + d) - 1.0;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
