/**
 * @file
 * Tests for the parallel experiment engine: grid decoding, SplitMix
 * seed derivation, the forEach/map pool primitives, and — the
 * load-bearing property — bit-identical RunStats per grid point
 * regardless of thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <vector>

#include "exp/names.hh"
#include "exp/runner.hh"

namespace mouse
{
namespace
{

exp::SweepGrid
smallGrid()
{
    exp::SweepGrid grid;
    grid.techs = {TechConfig::ProjectedStt, TechConfig::ModernStt};
    // SVM ADULT: the smallest paper workload, keeps the test fast.
    grid.benchmarks = {exp::paperBenchmarks()[3]};
    grid.powers = {exp::kContinuousPower, 60e-6, 500e-6};
    grid.checkpointPeriods = {1u, 8u};
    grid.seedsPerPoint = 2;
    grid.rootSeed = 42;
    return grid;
}

TEST(SweepGrid, SizeIsAxisProduct)
{
    const exp::SweepGrid grid = smallGrid();
    EXPECT_EQ(grid.size(), 2u * 1u * 3u * 2u * 1u * 2u);
}

TEST(SweepGrid, DecodeRoundTripsEveryIndex)
{
    const exp::SweepGrid grid = smallGrid();
    std::size_t seen_continuous = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const exp::SweepPoint p = grid.at(i);
        EXPECT_EQ(p.index, i);
        EXPECT_LT(p.benchmark, grid.benchmarks.size());
        EXPECT_LT(p.seedSlot, grid.seedsPerPoint);
        seen_continuous += p.continuous();
        // Index encodes coordinates: rebuild it from the decoded
        // axis positions.
        std::size_t tech_idx = p.tech == grid.techs[0] ? 0u : 1u;
        std::size_t power_idx = 0;
        while (grid.powers[power_idx] != p.power) {
            ++power_idx;
        }
        std::size_t cp_idx =
            p.checkpointPeriod == grid.checkpointPeriods[0] ? 0u
                                                            : 1u;
        const std::size_t rebuilt =
            (((tech_idx * grid.benchmarks.size() + p.benchmark) *
                  grid.powers.size() +
              power_idx) *
                 grid.checkpointPeriods.size() +
             cp_idx) *
                grid.seedsPerPoint +
            p.seedSlot;
        EXPECT_EQ(rebuilt, i);
    }
    // One continuous power entry x the other axes.
    EXPECT_EQ(seen_continuous, grid.size() / grid.powers.size());
}

TEST(SweepGrid, DerivedSeedsAreStableAndDistinct)
{
    // Stability: the derivation is part of the reproducibility
    // contract, so pin exact values.
    EXPECT_EQ(exp::deriveSeed(42, 0), exp::deriveSeed(42, 0));
    EXPECT_NE(exp::deriveSeed(42, 0), exp::deriveSeed(42, 1));
    EXPECT_NE(exp::deriveSeed(42, 0), exp::deriveSeed(43, 0));
    std::set<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        seeds.insert(exp::deriveSeed(7, i));
    }
    EXPECT_EQ(seeds.size(), 1000u);
}

TEST(SweepGrid, HarvestForAppliesPointAndBase)
{
    exp::SweepGrid grid = smallGrid();
    grid.harvestBase.converterEfficiency = 0.9;
    grid.harvestBase.nonTerminationLimit = 3;
    const exp::SweepPoint p = grid.at(grid.size() - 1);
    const HarvestConfig h = grid.harvestFor(p);
    EXPECT_EQ(h.source, p.source);
    EXPECT_EQ(h.checkpointPeriod, p.checkpointPeriod);
    EXPECT_EQ(h.seed, p.seed);
    EXPECT_EQ(h.converterEfficiency, 0.9);
    EXPECT_EQ(h.nonTerminationLimit, 3u);
}

// -- Scenario axes (docs/HARVESTING.md) -----------------------------

/** smallGrid with the powers axis replaced by scenario sources and a
 *  platform axis added. */
exp::SweepGrid
scenarioGrid()
{
    exp::SweepGrid grid = smallGrid();
    grid.powers.clear();
    grid.sources = {SourceSpec::constant(60e-6),
                    SourceSpec::corpusTrace("rf-bursty"),
                    SourceSpec::square(0.01, 0.3, 200e-6)};
    grid.platforms = {"mementos", "nvp"};
    return grid;
}

TEST(SweepGrid, SourcesAxisReplacesPowersInTheSizeProduct)
{
    const exp::SweepGrid grid = scenarioGrid();
    // techs x benchmarks x platforms x sources x periods x seeds.
    EXPECT_EQ(grid.size(), 2u * 1u * 2u * 3u * 2u * 1u * 2u);

    // An empty platforms axis contributes radix 1, so classic grids
    // keep their historical index -> point mapping (and seeds).
    exp::SweepGrid classic = smallGrid();
    const std::size_t before = classic.size();
    classic.platforms.clear();
    EXPECT_EQ(classic.size(), before);
}

TEST(SweepGrid, ScenarioDecodeCoversEveryCell)
{
    const exp::SweepGrid grid = scenarioGrid();
    std::set<std::string> cells;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const exp::SweepPoint p = grid.at(i);
        EXPECT_EQ(p.index, i);
        EXPECT_TRUE(p.scenario);
        EXPECT_FALSE(p.continuous());
        EXPECT_LT(p.sourceSlot, grid.sources.size());
        EXPECT_EQ(p.source, grid.sources[p.sourceSlot]);
        // The headline power is the source's duty-weighted mean.
        EXPECT_EQ(p.power, p.source.meanPower());
        cells.insert(p.source.name() + "/" + p.platform);
    }
    // Every (source, platform) pair appears.
    EXPECT_EQ(cells.size(),
              grid.sources.size() * grid.platforms.size());
}

TEST(SweepGrid, HarvestForCarriesSourceAndPlatform)
{
    const exp::SweepGrid grid = scenarioGrid();
    bool saw_platform = false;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const exp::SweepPoint p = grid.at(i);
        const HarvestConfig h = grid.harvestFor(p);
        EXPECT_EQ(h.source, p.source);
        EXPECT_EQ(h.platform, p.platform);
        saw_platform |= !h.platform.empty();
    }
    EXPECT_TRUE(saw_platform);
}

TEST(ExperimentRunner, ForEachVisitsEveryIndexOnce)
{
    const exp::ExperimentRunner runner(4);
    constexpr std::size_t kCount = 257;
    std::vector<std::atomic<int>> visits(kCount);
    runner.forEach(kCount, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(visits[i].load(), 1);
    }
}

TEST(ExperimentRunner, MapKeepsResultsIndexOrdered)
{
    const exp::ExperimentRunner runner(8);
    const auto out = runner.map(
        100, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], 3 * i + 1);
    }
}

TEST(ExperimentRunner, ZeroThreadsMeansHardwareConcurrency)
{
    const exp::ExperimentRunner runner(0);
    EXPECT_GE(runner.threads(), 1u);
}

TEST(ExperimentRunner, StatsAreIdenticalAcrossThreadCounts)
{
    const exp::SweepGrid grid = smallGrid();
    const exp::SweepResult serial =
        exp::ExperimentRunner(1).run(grid);
    const exp::SweepResult parallel =
        exp::ExperimentRunner(8).run(grid);
    ASSERT_EQ(serial.points.size(), grid.size());
    ASSERT_EQ(parallel.points.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const RunStats &a = serial.points[i].stats;
        const RunStats &b = parallel.points[i].stats;
        // Bit-identical, not approximately equal: the point's inputs
        // depend only on its grid index.
        EXPECT_EQ(a.instructionsCommitted, b.instructionsCommitted);
        EXPECT_EQ(a.instructionsDead, b.instructionsDead);
        EXPECT_EQ(a.outages, b.outages);
        EXPECT_EQ(a.activeTime, b.activeTime);
        EXPECT_EQ(a.deadTime, b.deadTime);
        EXPECT_EQ(a.restoreTime, b.restoreTime);
        EXPECT_EQ(a.chargingTime, b.chargingTime);
        EXPECT_EQ(a.computeEnergy, b.computeEnergy);
        EXPECT_EQ(a.backupEnergy, b.backupEnergy);
        EXPECT_EQ(a.deadEnergy, b.deadEnergy);
        EXPECT_EQ(a.restoreEnergy, b.restoreEnergy);
        EXPECT_EQ(a.idleEnergy, b.idleEnergy);
        // Metadata is schedule-independent too.
        EXPECT_EQ(serial.points[i].meta.tech,
                  parallel.points[i].meta.tech);
        EXPECT_EQ(serial.points[i].meta.seed,
                  parallel.points[i].meta.seed);
        EXPECT_EQ(serial.points[i].meta.index, i);
    }
    // And the JSON (minus wall clocks) diffs clean: spot-check one
    // point's stats serialization.
    EXPECT_EQ(toJson(serial.points[3].stats),
              toJson(parallel.points[3].stats));
}

TEST(ExperimentRunner, ScenarioSweepIsByteIdenticalAcrossThreads)
{
    // Corpus traces and platform presets must not break schedule
    // determinism: serialize every point of a scenario sweep (stats
    // and provenance, no wall clocks) and require identical bytes
    // from 1 and 4 worker threads — the same contract CI enforces
    // on bench_scenario_matrix.
    const exp::SweepGrid grid = scenarioGrid();
    const auto render = [&](const exp::SweepResult &res) {
        std::string doc;
        for (const RunResult &r : res.points) {
            doc += r.meta.source + "/" + r.meta.platform + "/" +
                   std::to_string(r.meta.seed) + ":" +
                   toJson(r.stats) + "\n";
        }
        return doc;
    };
    const std::string serial =
        render(exp::ExperimentRunner(1).run(grid));
    const std::string parallel =
        render(exp::ExperimentRunner(4).run(grid));
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial.find("rf-bursty/nvp"), std::string::npos);
}

TEST(ExperimentRunner, CheckpointPeriodAxisChangesBackupEnergy)
{
    exp::SweepGrid grid;
    grid.techs = {TechConfig::ModernStt};
    grid.benchmarks = {exp::paperBenchmarks()[3]};
    grid.powers = {60e-6};
    grid.checkpointPeriods = {1u, 256u};
    const exp::SweepResult res = exp::ExperimentRunner(2).run(grid);
    ASSERT_EQ(res.points.size(), 2u);
    // Wider checkpoint period amortizes the per-cycle backup cost.
    EXPECT_GT(res.points[0].stats.backupEnergy,
              res.points[1].stats.backupEnergy);
}

TEST(Names, TechKeysRoundTrip)
{
    for (TechConfig tech : names::allTechs()) {
        const auto parsed = names::parseTech(names::techName(tech));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, tech);
    }
    EXPECT_FALSE(names::parseTech("not-a-tech").has_value());
}

TEST(Names, BenchmarkKeysAlignWithPaperBenchmarks)
{
    const auto &keys = names::listBenchmarks();
    ASSERT_EQ(keys.size(), exp::paperBenchmarks().size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto idx = names::benchmarkIndex(keys[i]);
        ASSERT_TRUE(idx.has_value());
        EXPECT_EQ(*idx, i);
    }
    EXPECT_FALSE(names::benchmarkIndex("nope").has_value());
}

// -- Harvesting physics ----------------------------------------------

/** Simulated latency of SVM HAR on mementos under @p scheme, one
 *  point per source. */
std::vector<Seconds>
harLatencies(const std::string &scheme, std::vector<SourceSpec> sources)
{
    exp::SweepGrid grid;
    grid.benchmarks = {exp::paperBenchmarks()[2]};
    grid.schemes = {scheme};
    grid.sources = std::move(sources);
    grid.platforms = {"mementos"};
    std::vector<Seconds> latency;
    for (const RunResult &r : exp::ExperimentRunner(1).run(grid).points) {
        EXPECT_TRUE(r.ok()) << scheme;
        latency.push_back(r.stats.totalTime());
    }
    return latency;
}

TEST(HarvestPhysics, ManyPeriodMouseChargesSeeTheMeanPower)
{
    // Each recharge spans many 10 ms periods of a 30% duty, 200 uW
    // square wave, so the run must take what a constant source of
    // its 60 uW mean would.
    const auto t = harLatencies(
        "mouse", {SourceSpec::square(0.01, 0.3, 200e-6),
                  SourceSpec::constant(60e-6)});
    ASSERT_EQ(t.size(), 2u);
    EXPECT_NEAR(t[0] / t[1], 1.0, 0.02);
}

TEST(HarvestPhysics, ManyPeriodMcuChargesSeeTheMeanPower)
{
    const SourceSpec piezo = SourceSpec::corpusTrace("piezo-impulse");
    const auto t = harLatencies(
        "mcu:bec", {piezo, SourceSpec::constant(piezo.meanPower())});
    ASSERT_EQ(t.size(), 2u);
    EXPECT_NEAR(t[0] / t[1], 1.0, 0.10);
}

} // namespace
} // namespace mouse
