/**
 * @file
 * Tests for the energy-harvesting environment: capacitor physics,
 * power sources, the switched-capacitor converter's rail selection
 * (paper Sections IV-C and VIII), and the scenario library — trace
 * JSON round-trips, the embedded corpus, platform presets, and
 * SourceSpec validation (docs/HARVESTING.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "harvest/capacitor.hh"
#include "harvest/converter.hh"
#include "harvest/platform.hh"
#include "harvest/power_source.hh"
#include "harvest/power_trace.hh"
#include "harvest/source_spec.hh"
#include "harvest/trace_corpus.hh"
#include "logic/gate_library.hh"

namespace mouse
{
namespace
{

TEST(Capacitor, EnergyFollowsHalfCVSquared)
{
    Capacitor cap(100e-6, 0.34);
    EXPECT_NEAR(cap.energy(), 0.5 * 100e-6 * 0.34 * 0.34, 1e-12);
}

TEST(Capacitor, EnergyAboveFloor)
{
    Capacitor cap(100e-6, 0.34);
    const Joules usable = cap.energyAbove(0.32);
    EXPECT_NEAR(usable, 0.5 * 100e-6 * (0.34 * 0.34 - 0.32 * 0.32),
                1e-12);
    EXPECT_EQ(Capacitor(100e-6, 0.30).energyAbove(0.32), 0.0);
}

TEST(Capacitor, PaperBurstEnergies)
{
    // Modern window: 100 uF, 320..340 mV -> 0.66 uJ per burst.
    Capacitor modern(100e-6, 0.340);
    EXPECT_NEAR(modern.energyAbove(0.320), 0.66e-6, 0.01e-6);
    // Projected window: 10 uF, 100..120 mV -> 22 nJ per burst.
    Capacitor projected(10e-6, 0.120);
    EXPECT_NEAR(projected.energyAbove(0.100), 22e-9, 0.5e-9);
}

TEST(Capacitor, ChargeAndTimeToChargeAgree)
{
    Capacitor cap(10e-6, 0.0);
    const Seconds t = cap.energyTo(0.12) / 60e-6;
    cap.charge(60e-6, t);
    EXPECT_NEAR(cap.voltage(), 0.12, 1e-9);
    EXPECT_EQ(cap.energyTo(0.10), 0.0);
}

TEST(Capacitor, DrawReducesVoltageAndClampsAtZero)
{
    Capacitor cap(10e-6, 0.12);
    cap.draw(cap.energy() / 2);
    EXPECT_NEAR(cap.voltage(), 0.12 / std::sqrt(2.0), 1e-9);
    cap.draw(1.0);  // far more than stored
    EXPECT_EQ(cap.voltage(), 0.0);
}

TEST(PowerSource, ConstantIsConstant)
{
    ConstantPowerSource src(5e-3);
    EXPECT_EQ(src.power(0.0), 5e-3);
    EXPECT_EQ(src.power(1e6), 5e-3);
}

TEST(PowerSource, TraceCyclesThroughSegments)
{
    TracePowerSource src({{1.0, 100e-6}, {2.0, 10e-6}});
    EXPECT_EQ(src.period(), 3.0);
    EXPECT_EQ(src.power(0.5), 100e-6);
    EXPECT_EQ(src.power(1.5), 10e-6);
    EXPECT_EQ(src.power(2.9), 10e-6);
    EXPECT_EQ(src.power(3.5), 100e-6);  // wraps around
}

TEST(PowerSource, ConstantChargeTimeIsEnergyOverPower)
{
    const ConstantPowerSource src(60e-6);
    EXPECT_EQ(src.timeToHarvest(1.2e-6, 5.0, 0.8), 1.2e-6 / (60e-6 * 0.8));
    EXPECT_EQ(src.energyOver(5.0, 0.02), 60e-6 * 0.02);
}

/** Test-local oracle: walk a trace segment by segment from the
 *  segment holding @p t0's phase. */
class SegmentWalk
{
  public:
    explicit SegmentWalk(std::vector<TracePowerSource::Segment> segs)
        : segs_(std::move(segs))
    {
        for (const auto &s : segs_) {
            starts_.push_back(period_);
            period_ += s.duration;
        }
    }

    Seconds start(std::size_t i) const { return starts_[i]; }
    Seconds period() const { return period_; }

    Joules
    energyOver(Seconds t0, Seconds dt) const
    {
        auto [i, offset] = locate(t0);
        Joules e = 0.0;
        for (Seconds rem = dt; rem > 0.0; i = (i + 1) % segs_.size()) {
            const Seconds take =
                std::min(rem, segs_[i].duration - offset);
            e += take * segs_[i].power;
            rem -= take;
            offset = 0.0;
        }
        return e;
    }

    Seconds
    timeToHarvest(Joules e, Seconds t0, double eff) const
    {
        auto [i, offset] = locate(t0);
        Joules need = e / eff;
        for (Seconds t = 0.0;; i = (i + 1) % segs_.size()) {
            const Seconds span = segs_[i].duration - offset;
            const Joules got = span * segs_[i].power;
            if (segs_[i].power > 0.0 && need <= got) {
                return t + need / segs_[i].power;
            }
            need -= got;
            t += span;
            offset = 0.0;
        }
    }

  private:
    std::pair<std::size_t, Seconds>
    locate(Seconds t0) const
    {
        const Seconds phase = std::fmod(t0, period_);
        std::size_t i = segs_.size() - 1;
        while (i > 0 && phase < starts_[i]) {
            --i;
        }
        return {i, phase - starts_[i]};
    }

    std::vector<TracePowerSource::Segment> segs_;
    std::vector<Seconds> starts_;
    Seconds period_ = 0.0;
};

/** Relative 1e-9, plus @p slack for answers that are rounding noise
 *  of the phase (a window that grazes a segment edge by an ulp). */
::testing::AssertionResult
relNear(double got, double want, double slack)
{
    if (std::abs(got - want) <= 1e-9 * std::abs(want) + slack) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << got << " vs " << want << " (rel "
           << std::abs(got - want) / std::abs(want) << ")";
}

TEST(PowerSource, ClosedFormMatchesSegmentWalk)
{
    // Random 1-8 segment traces, ~30% of segments at zero power,
    // queried from anywhere in the first 1e6 s for anything from a
    // sliver of one segment to tens of periods.
    Rng rng(12345);
    for (int round = 0; round < 200; ++round) {
        std::vector<TracePowerSource::Segment> segs;
        const std::size_t n = 1 + rng.below(8);
        for (std::size_t i = 0; i < n; ++i) {
            segs.push_back({1e-4 + rng.uniform() * 2.0,
                            rng.uniform() < 0.3
                                ? 0.0
                                : 1e-6 + rng.uniform() * 1e-3});
        }
        if (std::all_of(segs.begin(), segs.end(),
                        [](const auto &s) { return s.power == 0.0; })) {
            segs[rng.below(n)].power = 5e-4;
        }
        const TracePowerSource src(segs);
        const SegmentWalk walk(segs);
        ASSERT_EQ(src.period(), walk.period());
        const Joules perPeriod = walk.energyOver(0.0, walk.period());
        // A few ulps of phase at the trace's peak power.
        Watts peak = 0.0;
        for (const auto &s : segs) {
            peak = std::max(peak, s.power);
        }
        const Seconds ulps =
            4.0 * (std::nextafter(walk.period(), 1e30) - walk.period());

        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(src.power(walk.start(i)), segs[i].power) << i;
        }
        std::vector<Seconds> starts;
        for (int q = 0; q < 20; ++q) {
            starts.push_back(rng.uniform() * 1e6);
        }
        for (std::size_t i = 0; i < n; ++i) {
            const Seconds edge = walk.start(i);
            starts.push_back(edge);
            starts.push_back(std::nextafter(edge, -1.0));
            starts.push_back(std::nextafter(edge, 1e30));
        }
        for (Seconds t0 : starts) {
            t0 = std::max(t0, 0.0);
            const double span = std::exp(
                rng.uniform(std::log(1e-5), std::log(40.0)));
            const Joules e = span * perPeriod;
            const double eff = 0.5 + 0.5 * (1.0 - rng.uniform());
            EXPECT_TRUE(relNear(src.timeToHarvest(e, t0, eff),
                                walk.timeToHarvest(e, t0, eff), ulps))
                << "t0=" << t0 << " e=" << e << " eff=" << eff;
            const Seconds dt = span * walk.period();
            EXPECT_TRUE(relNear(src.energyOver(t0, dt),
                                walk.energyOver(t0, dt), ulps * peak))
                << "t0=" << t0 << " dt=" << dt;
        }
    }
}

TEST(PowerSource, ChargeEndingOnASegmentEdgeStopsThere)
{
    // Dyadic durations and powers keep every prefix sum exact, so an
    // energy that runs out exactly on an edge has one right answer:
    // the edge, not the far side of the drought that follows it.
    const TracePowerSource src(
        {{0.5, 0.25}, {0.25, 0.0}, {0.125, 0.5}, {0.125, 0.0}});
    // From 0: the first segment delivers 0.125 J by t = 0.5.
    EXPECT_EQ(src.timeToHarvest(0.125, 0.0, 1.0), 0.5);
    // Both on-segments: 0.1875 J by the end of the third segment.
    EXPECT_EQ(src.timeToHarvest(0.1875, 0.0, 1.0), 0.875);
    // Three periods' energy from inside the first drought ends on
    // the first segment's edge three periods on.
    EXPECT_EQ(src.timeToHarvest(3 * 0.1875, 0.5, 1.0), 3.0);
    // Starting inside a drought steps past it.
    EXPECT_EQ(src.timeToHarvest(0.0625, 0.5, 1.0), 0.25 + 0.125);
    EXPECT_EQ(src.energyOver(0.5, 0.375), 0.0625);
    EXPECT_EQ(src.energyOver(0.0, 2.0), 2 * 0.1875);
}

TEST(PowerTrace, JsonRoundTripPreservesEverySegmentBit)
{
    PowerTrace trace;
    trace.name = "unit \"probe\"";
    trace.segments = {{0.125, 3.0000000000000004e-05},
                      {2.5, 1e-12},
                      {0.7071067811865476, 5e-3}};
    PowerTraceError err;
    const auto back = parsePowerTrace(trace.toJson(), &err);
    ASSERT_TRUE(back.has_value()) << err.message;
    EXPECT_EQ(back->name, trace.name);
    ASSERT_EQ(back->segments.size(), trace.segments.size());
    for (std::size_t i = 0; i < trace.segments.size(); ++i) {
        EXPECT_EQ(back->segments[i], trace.segments[i]);
    }
    EXPECT_EQ(back->period(), trace.period());
    EXPECT_EQ(back->meanPower(), trace.meanPower());
}

TEST(PowerTrace, ParserRejectsWithLineNumbers)
{
    PowerTraceError err;
    EXPECT_FALSE(parsePowerTrace("{\"segments\":[]}", &err));
    EXPECT_EQ(err.line, 1u);

    // Wrong version, on line 2 of a pretty-printed document.
    EXPECT_FALSE(parsePowerTrace(
        // mouse-lint: allow(schema-constants) -- malformed-input
        // fixture: a wrong inline version is the point.
        "{\n\"trace_schema\": 99,\n\"segments\":[]}", &err));
    EXPECT_EQ(err.line, 2u);
    EXPECT_NE(err.message.find("99"), std::string::npos);

    // A segment missing its power, on its own line.
    const auto bad = parsePowerTrace(
        // mouse-lint: allow(schema-constants) -- malformed-input
        // fixture with a valid header and a broken segment.
        "{\"trace_schema\":1,\"segments\":[\n{\"duration_s\":1}\n]}",
        &err);
    EXPECT_FALSE(bad);
    EXPECT_EQ(err.line, 2u);

    EXPECT_FALSE(parsePowerTrace("not json at all", &err));
    EXPECT_FALSE(parsePowerTrace(
        // mouse-lint: allow(schema-constants) -- malformed-input
        // fixture: negative duration behind a valid header.
        "{\"trace_schema\":1,\"segments\":[{\"duration_s\":-1,"
        "\"power_w\":1e-6}]}",
        &err));
}

TEST(TraceCorpus, ShipsNamedValidatedTraces)
{
    const auto names = corpusTraceNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "solar-day-night");
    EXPECT_EQ(names[1], "rf-bursty");
    EXPECT_EQ(names[2], "piezo-impulse");
    for (const std::string &name : names) {
        const PowerTrace *t = corpusTrace(name);
        ASSERT_NE(t, nullptr);
        EXPECT_EQ(t->name, name);
        EXPECT_GT(t->period(), 0.0);
        EXPECT_GT(t->meanPower(), 0.0);
        // Round-trip: the shipped JSON parses back to itself.
        const auto back = parsePowerTrace(t->toJson());
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->segments, t->segments);
    }
    EXPECT_EQ(corpusTrace("fusion-reactor"), nullptr);
}

TEST(Platform, CatalogNamesDatasheetPresets)
{
    ASSERT_EQ(platformNames().size(), 3u);
    const Platform *mementos = platformByName("mementos");
    ASSERT_NE(mementos, nullptr);
    EXPECT_EQ(mementos->capacitance, 10e-6);
    const Platform *nvp = platformByName("nvp");
    ASSERT_NE(nvp, nullptr);
    EXPECT_GT(nvp->converterEfficiency,
              platformByName("batteryless")->converterEfficiency);
    EXPECT_EQ(platformByName("unknown-board"), nullptr);
}

TEST(SourceSpec, DefaultIsThePaperConstantModel)
{
    const SourceSpec def;
    EXPECT_TRUE(def.isConstant());
    EXPECT_TRUE(def.valid());
    EXPECT_EQ(def.constantPower, 60e-6);
    EXPECT_EQ(def.name(), "constant");
    EXPECT_EQ(def.meanPower(), 60e-6);
}

TEST(SourceSpec, ValidationNamesTheProblem)
{
    std::string why;
    EXPECT_FALSE(SourceSpec::constant(0.0).valid(&why));
    EXPECT_FALSE(why.empty());

    EXPECT_FALSE(
        SourceSpec::trace(std::vector<TracePowerSource::Segment>{})
            .valid(&why));

    // A trace that never delivers power can never charge.
    EXPECT_FALSE(SourceSpec::trace({{1.0, 0.0}, {2.0, 0.0}})
                     .valid(&why));
    EXPECT_NE(why.find("never delivers power"), std::string::npos);

    EXPECT_FALSE(SourceSpec::corpusTrace("marsdust").valid(&why));
    EXPECT_NE(why.find("solar-day-night"), std::string::npos);

    EXPECT_FALSE(SourceSpec::square(1.0, 1.5, 1e-3).valid(&why));
    EXPECT_FALSE(SourceSpec::square(0.0, 0.5, 1e-3).valid(&why));

    EXPECT_TRUE(SourceSpec::corpusTrace("rf-bursty").valid());
    EXPECT_TRUE(SourceSpec::square(0.01, 0.3, 200e-6).valid());
}

TEST(SourceSpec, MakeMaterializesTheDescribedSource)
{
    const auto constant = SourceSpec::constant(5e-3).make();
    EXPECT_EQ(constant->power(123.0), 5e-3);
    EXPECT_EQ(constant->energyOver(123.0, 2.0), 1e-2);

    const auto square = SourceSpec::square(0.01, 0.3, 200e-6).make();
    EXPECT_EQ(square->power(0.001), 200e-6);
    EXPECT_EQ(square->power(0.005), 0.0);
    // One period delivers the on phase's energy.
    EXPECT_DOUBLE_EQ(square->energyOver(0.0, 0.01), 0.003 * 200e-6);

    const auto corpus = SourceSpec::corpusTrace("rf-bursty").make();
    const auto *trace =
        dynamic_cast<const TracePowerSource *>(corpus.get());
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->period(), corpusTrace("rf-bursty")->period());
}

TEST(Converter, PicksLowestSufficientRail)
{
    SwitchedCapConverter conv;
    // Buffer at 0.32 V: rails are 0.24, 0.32, 0.48, 0.56.
    auto rail = conv.railFor(0.30, 0.32);
    ASSERT_TRUE(rail.has_value());
    EXPECT_NEAR(*rail, 0.32, 1e-12);
    rail = conv.railFor(0.50, 0.32);
    ASSERT_TRUE(rail.has_value());
    EXPECT_NEAR(*rail, 0.56, 1e-12);
    EXPECT_FALSE(conv.railFor(0.60, 0.32).has_value());
}

TEST(Converter, CanSupplyChecksWindowBottom)
{
    SwitchedCapConverter conv;
    EXPECT_TRUE(conv.canSupply(0.5, 0.32));   // 1.75 * 0.32 = 0.56
    EXPECT_FALSE(conv.canSupply(0.57, 0.32));
}

TEST(Converter, EfficiencyScalesBufferDraw)
{
    SwitchedCapConverter lossy(0.5);
    EXPECT_DOUBLE_EQ(lossy.bufferEnergyFor(1e-6), 2e-6);
    SwitchedCapConverter ideal;
    EXPECT_DOUBLE_EQ(ideal.bufferEnergyFor(1e-6), 1e-6);
}

TEST(Converter, ExtendedRatiosReachHigherRails)
{
    const SwitchedCapConverter paper(1.0, paperConverterRatios());
    const SwitchedCapConverter ext(1.0, extendedConverterRatios());
    // 0.28 V from a 0.10 V buffer needs a 2.8x ratio.
    EXPECT_FALSE(paper.canSupply(0.28, 0.10));
    EXPECT_TRUE(ext.canSupply(0.28, 0.10));
    EXPECT_EQ(paper.ratios().size(), 4u);
    EXPECT_EQ(ext.ratios().size(), 6u);
}

TEST(Converter, RailCoverageOfSolvedOperatingPoints)
{
    // Section VIII claims the four ratios supply every required
    // voltage.  With our independently solved operating points this
    // holds for Modern STT and SHE; the projected-STT write (through
    // the 76 kOhm AP path) needs the extended ratio set — the
    // documented divergence of EXPERIMENTS.md.
    const SwitchedCapConverter paper(1.0, paperConverterRatios());
    const SwitchedCapConverter ext(1.0, extendedConverterRatios());

    auto all_covered = [](const GateLibrary &lib,
                          const SwitchedCapConverter &conv) {
        const Volts v_low = lib.config().capVoltageLow;
        for (GateType g : lib.feasibleGates()) {
            if (!conv.canSupply(lib.gate(g).voltage, v_low)) {
                return false;
            }
        }
        return conv.canSupply(lib.writeOp().voltage, v_low) &&
               conv.canSupply(lib.readOp().voltage, v_low);
    };

    const GateLibrary modern(makeDeviceConfig(TechConfig::ModernStt));
    const GateLibrary proj(makeDeviceConfig(TechConfig::ProjectedStt));
    const GateLibrary she(makeDeviceConfig(TechConfig::ProjectedShe));

    EXPECT_TRUE(all_covered(modern, paper));
    EXPECT_TRUE(all_covered(she, paper));
    EXPECT_FALSE(all_covered(proj, paper));  // the finding
    EXPECT_TRUE(all_covered(proj, ext));
    EXPECT_TRUE(all_covered(modern, ext));
}

} // namespace
} // namespace mouse
