/**
 * @file
 * Tests for the telemetry subsystem: the hierarchical stat registry
 * (kinds, merge policies, formulas, JSON/CSV dumps), the Chrome
 * trace_event sink (well-formedness, caps, merge re-tagging), and —
 * the load-bearing property — bit-identical telemetry aggregates for
 * any sweep thread count, with RunStats untouched by tracing.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstring>
#include <string>

#include "core/accelerator.hh"
#include "exp/names.hh"
#include "exp/runner.hh"
#include "obs/stat_registry.hh"
#include "obs/trace_sink.hh"

namespace mouse
{
namespace
{

// -- A tiny recursive-descent JSON syntax checker -------------------
//
// Enough to assert our hand-rolled serializers emit documents that a
// real parser (CI runs python3 -m json.tool) will accept: balanced
// structure, quoted keys, legal literals, no trailing commas.

class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value()) {
            return false;
        }
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool
    value()
    {
        if (pos_ >= s_.size()) {
            return false;
        }
        switch (s_[pos_]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos_; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string()) {
                return false;
            }
            skipWs();
            if (peek() != ':') {
                return false;
            }
            ++pos_;
            skipWs();
            if (!value()) {
                return false;
            }
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos_; // '['
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value()) {
                return false;
            }
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"') {
            return false;
        }
        ++pos_;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) {
                    return false;
                }
            }
            ++pos_;
        }
        if (pos_ >= s_.size()) {
            return false;
        }
        ++pos_; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (peek() == '-') {
            ++pos_;
        }
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' ||
                s_[pos_] == 'E' || s_[pos_] == '+' ||
                s_[pos_] == '-')) {
            ++pos_;
        }
        return pos_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0) {
            return false;
        }
        pos_ += n;
        return true;
    }

    char
    peek() const
    {
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_]))) {
            ++pos_;
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

bool
validJson(const std::string &text)
{
    return JsonChecker(text).valid();
}

// -- StatRegistry ----------------------------------------------------

TEST(StatRegistry, RegistrationIsIdempotent)
{
    obs::StatRegistry reg;
    obs::Counter &a = reg.counter("sim.instr.committed");
    obs::Counter &b = reg.counter("sim.instr.committed");
    EXPECT_EQ(&a, &b);
    a += 3;
    b.increment();
    EXPECT_EQ(reg.findCounter("sim.instr.committed")->value(), 4u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistry, DottedNamesNestInJson)
{
    obs::StatRegistry reg;
    reg.counter("sim.outage.count") += 7;
    reg.scalar("sim.energy.total_j").set(1.5);
    reg.counter("tile.0.ops") += 11;
    reg.counter("tile.1.ops") += 13;
    const std::string j = reg.toJson();
    EXPECT_TRUE(validJson(j)) << j;
    // Groups open once and hold their children.
    EXPECT_NE(j.find("\"sim\":{"), std::string::npos) << j;
    EXPECT_NE(j.find("\"outage\":{\"count\":7}"), std::string::npos)
        << j;
    EXPECT_NE(j.find("\"tile\":{\"0\":{\"ops\":11},\"1\":{\"ops\":13}}"),
              std::string::npos)
        << j;
    // Leaf names never appear with their dotted prefix.
    EXPECT_EQ(j.find("sim.outage"), std::string::npos) << j;
}

TEST(StatRegistry, HistogramMomentsAreExact)
{
    obs::StatRegistry reg;
    obs::Histogram &h = reg.histogram("lat");
    double sum = 0.0;
    for (int i = 1; i <= 1000; ++i) {
        h.sample(static_cast<double>(i));
        sum += i;
    }
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_DOUBLE_EQ(h.sum(), sum);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
    EXPECT_DOUBLE_EQ(h.mean(), sum / 1000.0);
}

TEST(StatRegistry, HistogramPercentilesTrackTheDistribution)
{
    obs::Histogram h;
    for (int i = 1; i <= 1000; ++i) {
        h.sample(static_cast<double>(i));
    }
    // Buckets are geometric (8/decade, ratio ~1.33), so allow one
    // bucket of slack around the exact order statistics.
    EXPECT_NEAR(h.percentile(0.5), 500.0, 500.0 * 0.35);
    EXPECT_NEAR(h.percentile(0.9), 900.0, 900.0 * 0.35);
    // The tails clamp to the exact observed extremes.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
    EXPECT_LE(h.percentile(0.999), 1000.0);
}

TEST(StatRegistry, HistogramHandlesNonPositiveAndEmpty)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
    h.sample(0.0);
    h.sample(-3.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_DOUBLE_EQ(h.min(), -3.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), -3.0);
}

TEST(StatRegistry, HistogramQuantilesExactOnKnownDistributions)
{
    // A constant distribution pins every quantile: interpolation is
    // clamped to [min, max] = [v, v].
    obs::Histogram constant;
    for (int i = 0; i < 64; ++i) {
        constant.sample(3.25);
    }
    for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(constant.percentile(q), 3.25) << q;
    }

    // A two-spike distribution (100x 1.0, 100x 1000.0): quantiles
    // below the median resolve to the low spike's bucket, above it
    // to the high spike's, with at most one geometric bucket
    // (ratio 10^(1/8) ~ 1.334) of interpolation slack.
    obs::Histogram spikes;
    for (int i = 0; i < 100; ++i) {
        spikes.sample(1.0);
        spikes.sample(1000.0);
    }
    const double ratio = std::pow(10.0, 1.0 / 8.0);
    EXPECT_GE(spikes.percentile(0.25), 1.0);
    EXPECT_LE(spikes.percentile(0.25), 1.0 * ratio);
    EXPECT_GE(spikes.percentile(0.75), 1000.0 / ratio);
    EXPECT_DOUBLE_EQ(spikes.percentile(1.0), 1000.0);
    EXPECT_DOUBLE_EQ(spikes.percentile(0.0), 1.0);

    // Quantiles are monotone in q.
    double prev = spikes.percentile(0.0);
    for (double q = 0.1; q <= 1.0; q += 0.1) {
        const double cur = spikes.percentile(q);
        EXPECT_GE(cur, prev) << q;
        prev = cur;
    }
}

TEST(StatRegistry, EmptyHistogramQuantilesAreZero)
{
    obs::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    for (double q : {0.0, 0.5, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(h.percentile(q), 0.0) << q;
    }
    EXPECT_DOUBLE_EQ(h.sum(), 0.0);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(StatRegistry, ScalarMergePolicies)
{
    obs::StatRegistry a;
    obs::StatRegistry b;
    a.scalar("v.min", obs::MergePolicy::kMin).observe(2.0);
    a.scalar("v.max", obs::MergePolicy::kMax).observe(2.0);
    a.scalar("v.sum", obs::MergePolicy::kSum).observe(2.0);
    b.scalar("v.min", obs::MergePolicy::kMin).observe(1.0);
    b.scalar("v.max", obs::MergePolicy::kMax).observe(5.0);
    b.scalar("v.sum", obs::MergePolicy::kSum).observe(3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.scalarValue("v.min"), 1.0);
    EXPECT_DOUBLE_EQ(a.scalarValue("v.max"), 5.0);
    EXPECT_DOUBLE_EQ(a.scalarValue("v.sum"), 5.0);
    // An untouched scalar must not poison a min-merge with its 0.
    obs::StatRegistry c;
    c.scalar("v.min", obs::MergePolicy::kMin);
    c.merge(a);
    EXPECT_DOUBLE_EQ(c.scalarValue("v.min"), 1.0);
}

TEST(StatRegistry, MergeSumsCountersAndHistograms)
{
    obs::StatRegistry a;
    obs::StatRegistry b;
    a.counter("n") += 10;
    b.counter("n") += 32;
    b.counter("only_b") += 1;
    a.histogram("h").sample(1.0);
    b.histogram("h").sample(100.0);
    a.merge(b);
    EXPECT_EQ(a.findCounter("n")->value(), 42u);
    EXPECT_EQ(a.findCounter("only_b")->value(), 1u);
    EXPECT_EQ(a.findHistogram("h")->count(), 2u);
    EXPECT_DOUBLE_EQ(a.findHistogram("h")->max(), 100.0);
}

TEST(StatRegistry, FormulasEvaluateByNameAndSurviveMerges)
{
    obs::StatRegistry a;
    a.counter("work.done") += 8;
    a.counter("work.total") += 10;
    a.formula("work.share", [](const obs::StatRegistry &r) {
        const double total = r.counterValue("work.total");
        return total > 0.0 ? r.counterValue("work.done") / total
                           : 0.0;
    });
    EXPECT_NE(a.toJson().find("\"share\":0.8"), std::string::npos)
        << a.toJson();

    // Merged into a fresh registry, the formula re-evaluates against
    // the *merged* counters, not a snapshot.
    obs::StatRegistry b;
    b.counter("work.done") += 2;
    b.counter("work.total") += 10;
    b.merge(a);
    EXPECT_NE(b.toJson().find("\"share\":0.5"), std::string::npos)
        << b.toJson();
}

TEST(StatRegistry, CsvIsFlatAndComplete)
{
    obs::StatRegistry reg;
    reg.counter("a.n") += 4;
    reg.scalar("a.v").set(2.5);
    reg.histogram("b.h").sample(10.0);
    const std::string csv = reg.toCsv();
    EXPECT_EQ(csv.find("name,kind,value,count,sum,min,max,mean,p50,"
                       "p90,p99"),
              0u)
        << csv;
    EXPECT_NE(csv.find("a.n,counter,4"), std::string::npos) << csv;
    EXPECT_NE(csv.find("a.v,scalar,2.5"), std::string::npos) << csv;
    EXPECT_NE(csv.find("b.h,histogram"), std::string::npos) << csv;
}

TEST(StatRegistry, EmptyRegistryDumpsEmptyObject)
{
    obs::StatRegistry reg;
    EXPECT_TRUE(reg.empty());
    EXPECT_EQ(reg.toJson(), "{}");
    EXPECT_TRUE(validJson(reg.toJson()));
}

// -- TraceSink -------------------------------------------------------

TEST(TraceSink, ChromeJsonIsWellFormed)
{
    obs::TraceSink sink;
    sink.complete("burst", "exec", 1e-6, 2e-6,
                  "{\"instructions\":64}");
    sink.instant("power_off", "power", 5e-6);
    sink.counter("power_state", "power", 5e-6, 0.0);
    sink.sample(1e-3, 0.5, 60e-6);
    const std::string j = sink.toChromeJson();
    EXPECT_TRUE(validJson(j)) << j;
    EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(j.find("\"cap_voltage_v\""), std::string::npos);
    EXPECT_NE(j.find("\"harvest_power_w\""), std::string::npos);
    // Complete events carry microsecond timestamps and durations.
    EXPECT_NE(j.find("\"ts\":1,"), std::string::npos) << j;
    EXPECT_NE(j.find("\"dur\":2"), std::string::npos) << j;
}

TEST(TraceSink, MergeRetagsPidAndKeepsOrder)
{
    obs::TraceSink a;
    obs::TraceSink b;
    a.instant("outage", "power", 1e-6);
    b.instant("outage", "power", 2e-6);
    b.sample(1e-3, 0.4, 0.0);
    obs::TraceSink merged;
    merged.mergeFrom(a, 0);
    merged.mergeFrom(b, 7);
    ASSERT_EQ(merged.events().size(), 2u);
    EXPECT_EQ(merged.events()[0].pid, 0u);
    EXPECT_EQ(merged.events()[1].pid, 7u);
    ASSERT_EQ(merged.waveform().size(), 1u);
    EXPECT_EQ(merged.waveform()[0].pid, 7u);
    EXPECT_TRUE(validJson(merged.toChromeJson()));
}

TEST(TraceSink, BufferCapsCountDropsAndStayValid)
{
    obs::TraceSink sink(2, 1);
    sink.instant("a", "t", 1e-6);
    sink.instant("b", "t", 2e-6);
    sink.instant("c", "t", 3e-6);
    sink.sample(1.0, 0.1, 0.0);
    sink.sample(2.0, 0.2, 0.0);
    EXPECT_EQ(sink.events().size(), 2u);
    EXPECT_EQ(sink.droppedEvents(), 1u);
    EXPECT_EQ(sink.droppedSamples(), 1u);
    const std::string j = sink.toChromeJson();
    EXPECT_TRUE(validJson(j)) << j;
    EXPECT_NE(j.find("\"dropped_events\":1"), std::string::npos) << j;
}

TEST(TraceSink, AppendFromPreservesTrackLayout)
{
    // The serving layer lays requests out on (pid = batch row,
    // tid = slot lane) tracks; appendFrom must keep that layout
    // where mergeFrom would flatten it onto one re-tagged row.
    obs::TraceSink batch0;
    batch0.complete("request", "serve", 0.0, 1e-3, "", 1, 3);
    batch0.instant("batch_cut", "serve", 0.0, "", 0, 0);
    obs::TraceSink batch1;
    batch1.complete("request", "serve", 1e-3, 2e-3, "", 2, 0);
    obs::TraceSink all;
    all.appendFrom(batch0);
    all.appendFrom(batch1);
    ASSERT_EQ(all.events().size(), 3u);
    EXPECT_EQ(all.events()[0].pid, 1u);
    EXPECT_EQ(all.events()[0].tid, 3u);
    EXPECT_EQ(all.events()[1].pid, 0u);
    EXPECT_EQ(all.events()[2].pid, 2u);
    const std::string j = all.toChromeJson();
    EXPECT_TRUE(validJson(j)) << j;
    EXPECT_NE(j.find("\"pid\":1"), std::string::npos) << j;
    EXPECT_NE(j.find("\"tid\":3"), std::string::npos) << j;
}

TEST(TraceSink, AppendFromRespectsCapsAndCarriesDropCounts)
{
    obs::TraceSink big;
    for (int i = 0; i < 4; ++i) {
        big.instant("e", "t", i * 1e-6);
    }
    obs::TraceSink capped(2, 1);
    capped.appendFrom(big);
    EXPECT_EQ(capped.events().size(), 2u);
    EXPECT_EQ(capped.droppedEvents(), 2u);
    EXPECT_TRUE(validJson(capped.toChromeJson()));
}

TEST(TraceSink, WaveformCsvRoundTrips)
{
    obs::TraceSink sink;
    sink.sample(0.25, 0.5, 60e-6);
    const std::string csv = sink.waveformCsv();
    EXPECT_EQ(csv.find("point,t_s,cap_voltage_v,harvest_power_w\n"),
              0u);
    EXPECT_NE(csv.find("0,0.25,0.5,"), std::string::npos) << csv;
}

// -- End-to-end determinism ------------------------------------------

exp::SweepGrid
telemetryGrid()
{
    exp::SweepGrid grid;
    grid.techs = {TechConfig::ModernStt};
    // SVM ADULT: the smallest paper workload, keeps the test fast.
    grid.benchmarks = {exp::paperBenchmarks()[3]};
    grid.powers = {exp::kContinuousPower, 60e-6, 200e-6};
    grid.seedsPerPoint = 2;
    grid.rootSeed = 9;
    grid.telemetry.stats = true;
    grid.telemetry.events = true;
    grid.telemetry.waveform = true;
    return grid;
}

TEST(Telemetry, AggregatesAreIdenticalAcrossThreadCounts)
{
    const exp::SweepGrid grid = telemetryGrid();
    const exp::SweepResult serial =
        exp::ExperimentRunner(1).run(grid);
    const exp::SweepResult parallel =
        exp::ExperimentRunner(4).run(grid);
    ASSERT_NE(serial.stats, nullptr);
    ASSERT_NE(parallel.stats, nullptr);
    EXPECT_FALSE(serial.stats->empty());
    // Byte-identical dumps: merge order is grid order, timestamps
    // are simulated time, nothing depends on the schedule.
    EXPECT_EQ(serial.stats->toJson(), parallel.stats->toJson());
    EXPECT_EQ(serial.stats->toCsv(), parallel.stats->toCsv());
    ASSERT_NE(serial.trace, nullptr);
    ASSERT_NE(parallel.trace, nullptr);
    EXPECT_FALSE(serial.trace->empty());
    EXPECT_EQ(serial.trace->toChromeJson(),
              parallel.trace->toChromeJson());
    EXPECT_EQ(serial.trace->waveformCsv(),
              parallel.trace->waveformCsv());
}

TEST(Telemetry, TracingDoesNotPerturbRunStats)
{
    exp::SweepGrid off = telemetryGrid();
    off.telemetry = obs::TraceConfig{};
    const exp::SweepResult traced =
        exp::ExperimentRunner(2).run(telemetryGrid());
    const exp::SweepResult untraced =
        exp::ExperimentRunner(2).run(off);
    ASSERT_EQ(traced.points.size(), untraced.points.size());
    for (std::size_t i = 0; i < traced.points.size(); ++i) {
        // The probe only observes; simulated physics are identical
        // bit for bit with telemetry on or off.
        EXPECT_EQ(toJson(traced.points[i].stats),
                  toJson(untraced.points[i].stats));
    }
    EXPECT_EQ(untraced.stats, nullptr);
    EXPECT_EQ(untraced.trace, nullptr);
}

TEST(Telemetry, FunctionalRunRecordsControllerAndTileStats)
{
    MouseConfig cfg;
    cfg.tech = TechConfig::ProjectedStt;
    cfg.array.tileRows = 128;
    cfg.array.tileCols = 8;
    cfg.array.numDataTiles = 2;
    cfg.array.numInstructionTiles = 512;
    Accelerator acc(cfg);
    KernelBuilder kb(acc.gateLibrary(), cfg.array, 0, 16);
    kb.activate(0, 3);
    (void)kb.add(kb.pinnedWord(0, 4), kb.pinnedWord(8, 4));
    acc.loadProgram(kb.finish());

    RunRequest req;
    req.fidelity = Fidelity::Functional;
    req.power = PowerMode::Continuous;
    req.telemetry.stats = true;
    req.telemetry.events = true;
    const RunResult res = acc.execute(req);
    ASSERT_NE(res.statsTree, nullptr);
    // Controller stats cover every committed instruction (steps
    // also counts the final halt fetch, so >=, and within one).
    EXPECT_GE(res.statsTree->counterValue("controller.steps"),
              static_cast<double>(res.stats.instructionsCommitted));
    EXPECT_LE(res.statsTree->counterValue("controller.steps"),
              static_cast<double>(res.stats.instructionsCommitted) +
                  1.0);
    // ...and the executing tile saw the array-level operations.
    const obs::Counter *ops =
        res.statsTree->findCounter("tile.0.ops");
    ASSERT_NE(ops, nullptr);
    EXPECT_GT(ops->value(), 0u);
    // Functional runs emit per-instruction events.
    ASSERT_NE(res.traceSink, nullptr);
    EXPECT_FALSE(res.traceSink->events().empty());
    EXPECT_TRUE(validJson(res.traceSink->toChromeJson()));
    // The RunResult JSON embeds the stats tree.
    EXPECT_NE(res.toJson().find("\"stat_registry\":"),
              std::string::npos);
    EXPECT_TRUE(validJson(res.toJson()));
}

TEST(Telemetry, StatsTreeMatchesRunStatsTotals)
{
    const exp::SweepResult res =
        exp::ExperimentRunner(2).run(telemetryGrid());
    std::uint64_t committed = 0;
    std::uint64_t outages = 0;
    for (const RunResult &r : res.points) {
        committed += r.stats.instructionsCommitted;
        outages += r.stats.outages;
        ASSERT_NE(r.statsTree, nullptr);
        // Each point's own tree matches its own RunStats.
        EXPECT_EQ(
            r.statsTree->findCounter("sim.instr.committed")->value(),
            r.stats.instructionsCommitted);
    }
    EXPECT_EQ(res.stats->findCounter("sim.instr.committed")->value(),
              committed);
    EXPECT_EQ(res.stats->findCounter("sim.outage.count")->value(),
              outages);
}

} // namespace
} // namespace mouse
