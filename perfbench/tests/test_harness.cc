/**
 * @file
 * Tests of the benchmark harness itself: the percentile rule and its
 * segmented summary, the geometric mean, due-time latency in the open
 * loop, and span self time.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness/metrics.hh"
#include "harness/open_loop.hh"
#include "harness/spans.hh"

using namespace perfbench;

namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) {
        v.push_back(static_cast<double>(i));
    }
    return v;
}

} // namespace

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(nearestRank(oneTo(100), 0.5), 50.0);
    EXPECT_EQ(nearestRank(oneTo(100), 0.99), 99.0);
    EXPECT_EQ(nearestRank(oneTo(7), 1.0), 7.0);
    EXPECT_EQ(nearestRank({}, 0.5), 0.0);
}

TEST(Percentile, ReportsP99WhenTenSamplesLieBeyondIt)
{
    const Percentile p = tailPercentile(oneTo(1000), 0.99);
    EXPECT_EQ(p.q, 0.99);
    EXPECT_EQ(p.value, 990.0);
    EXPECT_EQ(p.beyond, 10u);
    EXPECT_EQ(p.samples, 1000u);
}

TEST(Percentile, FallsBackToTheHighestSupportedPercentile)
{
    // 999 samples leave 9 beyond p99 but 99 beyond p90.
    Percentile p = tailPercentile(oneTo(999), 0.99);
    EXPECT_EQ(p.q, 0.9);
    EXPECT_EQ(p.beyond, 99u);
    EXPECT_EQ(p.value, 900.0);

    // 45 samples: p90 has 4 beyond, p75 has 11.
    p = tailPercentile(oneTo(45), 0.99);
    EXPECT_EQ(p.q, 0.75);
    EXPECT_EQ(p.beyond, 11u);

    // Too few for even the median: it is reported anyway.
    p = tailPercentile(oneTo(12), 0.99);
    EXPECT_EQ(p.q, 0.5);
    EXPECT_EQ(p.value, 6.0);
    EXPECT_EQ(p.beyond, 6u);
}

TEST(Percentile, MedianRequestIsNeverRaised)
{
    const Percentile p = tailPercentile(oneTo(1000), 0.5);
    EXPECT_EQ(p.q, 0.5);
    EXPECT_EQ(p.value, 500.0);
}

TEST(SegmentedTail, AStallInOneSegmentLeavesTheMedianAlone)
{
    // Five segments of 1000 latencies of 1..1000; one segment also
    // carries a 60-sample stall at 10000.
    SegmentedTail seg(1000, {0.5, 0.99});
    std::vector<double> pooled;
    for (int k = 0; k < 5; ++k) {
        for (int i = 1; i <= 1000; ++i) {
            const double v = (k == 2 && i > 940) ? 10000.0 : i;
            seg.add(v);
            pooled.push_back(v);
        }
    }
    EXPECT_EQ(seg.segments(), 5u);
    const Percentile p99 = seg.result(1);
    EXPECT_EQ(p99.q, 0.99);
    EXPECT_EQ(p99.value, 990.0);
    EXPECT_EQ(p99.beyond, 10u);
    EXPECT_EQ(p99.samples, 5000u);
    EXPECT_EQ(seg.result(0).value, 500.0);
    // Pooled, the one stalled segment decides the p99 on its own.
    EXPECT_EQ(tailPercentile(pooled, 0.99).value, 10000.0);
}

TEST(SegmentedTail, ShortStreamsUseThePartialSegment)
{
    SegmentedTail seg(1000, {0.99});
    for (int i = 1; i <= 60; ++i) {
        seg.add(i);
    }
    EXPECT_EQ(seg.segments(), 0u);
    const Percentile p = seg.result(0);
    EXPECT_EQ(p.q, 0.75);
    EXPECT_EQ(p.value, 45.0);
    EXPECT_EQ(p.samples, 60u);
}

TEST(Geomean, MatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 8.0}), 4.0);
    EXPECT_NEAR(geomean({1e-6, 1e2, 1e4}), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(geomean({5.0}), 5.0);
}

TEST(Geomean, RejectsNonPositiveAndEmpty)
{
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_EQ(geomean({1.0, 0.0}), 0.0);
    EXPECT_EQ(geomean({1.0, -2.0}), 0.0);
}

namespace
{

/** A virtual clock: sleeping and draining advance it, nothing else. */
struct FakeService
{
    double clock = 0.0;
    std::size_t drains = 0;
    std::size_t stallAt = static_cast<std::size_t>(-1);
    double stall = 0.0;

    OpenLoopHooks
    hooks()
    {
        OpenLoopHooks h;
        h.now = [this] { return clock; };
        h.sleepUntil = [this](double t) { clock = std::max(clock, t); };
        h.submit = [](std::size_t) {};
        h.drain = [this] {
            clock += 0.001;
            if (drains++ == stallAt) {
                clock += stall;
            }
        };
        return h;
    }
};

} // namespace

TEST(OpenLoop, TimesRequestsFromTheirDueTime)
{
    // One arrival in the middle of each of four 10 ms windows.
    const std::vector<double> due = {0.005, 0.015, 0.025, 0.035};
    FakeService svc;
    const OpenLoopResult r = runOpenLoop(due, 0.010, svc.hooks());
    ASSERT_EQ(r.windows, 4u);
    for (std::size_t i = 0; i < due.size(); ++i) {
        // Submitted on time at the window end, completed 1 ms later.
        EXPECT_NEAR(r.lag[i], 0.0, 1e-12);
        EXPECT_NEAR(r.latency[i], 0.006, 1e-12);
    }
    EXPECT_EQ(backlogAtEnd(r), 1u);
}

TEST(OpenLoop, AStallDelaysEveryLaterRequest)
{
    std::vector<double> due;
    for (int i = 0; i < 10; ++i) {
        due.push_back(0.010 * i + 0.005);
    }
    FakeService calm;
    const OpenLoopResult base = runOpenLoop(due, 0.010, calm.hooks());

    FakeService stalled;
    stalled.stallAt = 2;  // the third window's drain takes 50 ms more
    stalled.stall = 0.050;
    const OpenLoopResult r = runOpenLoop(due, 0.010, stalled.hooks());

    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_NEAR(r.latency[i], base.latency[i], 1e-12);
    }
    // The stalled window and the ones due while it lasted wait for it,
    // although each of them is served as fast as before.
    EXPECT_NEAR(r.latency[2], base.latency[2] + 0.050, 1e-12);
    for (std::size_t i = 3; i < 7; ++i) {
        EXPECT_GT(r.latency[i], base.latency[i] + 0.005) << i;
        EXPECT_GT(r.lag[i], base.lag[i]) << i;
    }
    // Once the generator has caught up, latency is back to normal.
    EXPECT_NEAR(r.latency[9], base.latency[9], 1e-12);
    EXPECT_NEAR(r.lag[9], 0.0, 1e-12);
}

TEST(OpenLoop, PoissonArrivalsAreSeeded)
{
    const auto a = poissonArrivals(7, 1000.0, 1.0);
    const auto b = poissonArrivals(7, 1000.0, 1.0);
    const auto c = poissonArrivals(8, 1000.0, 1.0);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NEAR(static_cast<double>(a.size()), 1000.0, 150.0);
    for (std::size_t i = 1; i < a.size(); ++i) {
        EXPECT_LT(a[i - 1], a[i]);
    }
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    Tracer t(false);
    const int root = t.record("root", 0.0, 10.0, -1);
    t.record("a", 1.0, 3.0, root);
    const int b = t.record("b", 4.0, 8.0, root);
    t.record("b.inner", 5.0, 6.0, b);
    const std::vector<double> self = t.selfTimes();
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 2.0 - 4.0);
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 4.0 - 1.0);
    EXPECT_DOUBLE_EQ(self[3], 1.0);
    EXPECT_DOUBLE_EQ(t.total("b"), 4.0);
    EXPECT_NE(t.summary().find("root"), std::string::npos);
}

TEST(Spans, OverlappingAndOverhangingChildrenCountOnce)
{
    Tracer t(false);
    const int root = t.record("root", 0.0, 10.0, -1);
    t.record("x", 2.0, 6.0, root);
    t.record("y", 4.0, 7.0, root);   // overlaps x by 2
    t.record("z", 9.0, 12.0, root);  // overhangs the parent by 2
    EXPECT_DOUBLE_EQ(t.selfTimes()[0], 10.0 - 5.0 - 1.0);
}

TEST(Spans, RecorderNestsAndDisabledRecordsNothing)
{
    Tracer on(true);
    {
        Scope outer(on, "outer");
        Scope inner(on, "inner");
        on.count("work", 3.0);
    }
    ASSERT_EQ(on.spans().size(), 2u);
    EXPECT_EQ(on.spans()[1].parent, 0);
    EXPECT_LE(on.spans()[1].end, on.spans()[0].end);
    EXPECT_EQ(on.counter("work"), 3.0);
    EXPECT_NE(on.chromeJson().find("\"name\":\"inner\""),
              std::string::npos);

    Tracer off(false);
    {
        Scope s(off, "outer");
        off.count("work");
    }
    EXPECT_TRUE(off.spans().empty());
    EXPECT_EQ(off.counter("work"), 0.0);
}

TEST(Digest, EqualInputsEqualDigests)
{
    Digest a;
    Digest b;
    Digest c;
    a.add(1.5);
    b.add(1.5);
    c.add(-1.5);
    EXPECT_EQ(a.hex(), b.hex());
    EXPECT_NE(a.hex(), c.hex());
    EXPECT_EQ(a.hex().size(), 16u);
}
