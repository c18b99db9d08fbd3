/**
 * @file
 * Tests for the parallel experiment engine: grid decoding, SplitMix
 * seed derivation, the forEach/map pool primitives, and — the
 * load-bearing property — bit-identical RunStats per grid point
 * regardless of thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
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

TEST(SweepGrid, AxisSlotsLocateTechAndMargin)
{
    // Every axis set, and a margin value repeated: the slots are the
    // axis positions, which the values alone cannot tell apart.
    exp::SweepGrid grid;
    grid.techs = {TechConfig::ProjectedStt, TechConfig::ModernStt,
                  TechConfig::ProjectedShe};
    grid.benchmarks = {exp::paperBenchmarks()[3],
                       exp::paperBenchmarks()[4]};
    grid.sources = {SourceSpec::constant(60e-6),
                    SourceSpec::constant(1e-3)};
    grid.platforms = {"mementos", "nvp"};
    grid.schemes = {"mouse", "mcu:bec"};
    grid.checkpointPeriods = {1u, 8u};
    grid.margins = {0.05, 0.03, 0.05};
    grid.seedsPerPoint = 2;
    const std::size_t per_tech = grid.size() / grid.techs.size();
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const exp::SweepPoint p = grid.at(i);
        ASSERT_EQ(p.techSlot, i / per_tech) << i;
        ASSERT_EQ(p.marginSlot,
                  (i / grid.seedsPerPoint) % grid.margins.size())
            << i;
        EXPECT_EQ(grid.techs[p.techSlot], p.tech);
        EXPECT_EQ(grid.margins[p.marginSlot], p.margin);
        seen.emplace(p.techSlot, p.marginSlot);
    }
    EXPECT_EQ(seen.size(), grid.techs.size() * grid.margins.size());
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

TEST(SweepGrid, HarvestForAppliesThePoint)
{
    exp::SweepGrid grid = smallGrid();
    grid.platforms = {"mementos", "nvp"};
    const exp::SweepPoint p = grid.at(grid.size() - 1);
    const HarvestConfig h = grid.harvestFor(p);
    EXPECT_EQ(h.source, p.source);
    EXPECT_EQ(p.platform, "nvp");
    EXPECT_EQ(h.platform, p.platform);
    EXPECT_EQ(h.checkpointPeriod, p.checkpointPeriod);
    EXPECT_EQ(h.seed, p.seed);
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

TEST(ExperimentRunnerPool, NestedForEachRunsInline)
{
    // A job that calls forEach again, on its own runner or another,
    // runs the inner call on its own thread: no worker waits for a
    // pool that is waiting for it.
    const exp::ExperimentRunner runner(4);
    const exp::ExperimentRunner other(4);
    constexpr std::size_t kOuter = 16;
    constexpr std::size_t kInner = 32;
    std::vector<std::atomic<int>> visits(kOuter * kInner);
    std::atomic<int> offThread{0};
    runner.forEach(kOuter, [&](std::size_t i) {
        const std::thread::id self = std::this_thread::get_id();
        const exp::ExperimentRunner &inner = i % 2 ? runner : other;
        inner.forEach(kInner, [&](std::size_t j) {
            visits[i * kInner + j].fetch_add(1);
            offThread += std::this_thread::get_id() != self;
        });
    });
    for (const std::atomic<int> &v : visits) {
        EXPECT_EQ(v.load(), 1);
    }
    EXPECT_EQ(offThread.load(), 0);
}

TEST(ExperimentRunnerPool, WorkerExceptionReachesCallerAndPoolSurvives)
{
    const exp::ExperimentRunner runner(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> visited{0};
    std::atomic<int> thrown{0};
    // Slow items, so the workers wake while the caller is still busy
    // and take some of them; every item a worker takes throws.
    EXPECT_THROW(runner.forEach(64,
                                [&](std::size_t) {
                                    std::this_thread::sleep_for(
                                        std::chrono::microseconds(500));
                                    ++visited;
                                    if (std::this_thread::get_id() !=
                                        caller) {
                                        ++thrown;
                                        throw std::runtime_error("worker");
                                    }
                                }),
                 std::runtime_error);
    EXPECT_EQ(visited.load(), 64) << "an exception stops no other item";
    EXPECT_GT(thrown.load(), 0);
    // The caller's own exceptions arrive the same way.
    EXPECT_THROW(runner.forEach(8,
                                [](std::size_t i) {
                                    if (i == 5) {
                                        throw std::logic_error("item 5");
                                    }
                                }),
                 std::logic_error);
    // The pool still runs jobs.
    const auto out =
        runner.map(1000, [](std::size_t i) { return 2 * i; });
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_EQ(out[i], 2 * i);
    }
}

TEST(ExperimentRunnerPool, TenThousandTinyCallsBackToBack)
{
    const exp::ExperimentRunner runner(4);
    std::atomic<std::uint64_t> sum{0};
    for (int call = 0; call < 10000; ++call) {
        runner.forEach(4, [&](std::size_t i) { sum += i + 1; });
    }
    EXPECT_EQ(sum.load(), 10000u * 10u);
}

TEST(ExperimentRunnerPool, RunnersDrivenFromTwoThreadsAtOnce)
{
    // Two runners, one per thread, and one runner shared by both
    // threads, whose calls take its pool in turn.
    const exp::ExperimentRunner shared(3);
    std::vector<std::uint64_t> totals(2, 0);
    const auto drive = [&](int t) {
        const exp::ExperimentRunner own(3);
        for (int call = 0; call < 200; ++call) {
            const exp::ExperimentRunner &r = call % 2 ? own : shared;
            const auto out = r.map(
                50, [&](std::size_t i) { return (t + 1) * (i + 1); });
            totals[t] += std::accumulate(out.begin(), out.end(),
                                         std::uint64_t{0});
        }
    };
    std::thread a(drive, 0);
    std::thread b(drive, 1);
    a.join();
    b.join();
    EXPECT_EQ(totals[0], 200u * 1275u);
    EXPECT_EQ(totals[1], 2u * 200u * 1275u);
}

TEST(ExperimentRunnerPool, DestroyedWhileParked)
{
    for (int round = 0; round < 20; ++round) {
        const exp::ExperimentRunner runner(4);
        std::atomic<int> visited{0};
        runner.forEach(16, [&](std::size_t) { ++visited; });
        ASSERT_EQ(visited.load(), 16);
        if (round % 2 == 0) {
            // Let the workers park before the runner goes.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    // A runner whose pool never started.
    const exp::ExperimentRunner idle(4);
    EXPECT_EQ(idle.threads(), 4u);
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

// -- Shared traces ---------------------------------------------------

/** The paper's three techs at gate margins 0.05 and 0.03. */
std::vector<std::unique_ptr<GateLibrary>>
paperLibraries()
{
    std::vector<std::unique_ptr<GateLibrary>> libs;
    for (TechConfig tech : {TechConfig::ModernStt,
                            TechConfig::ProjectedStt,
                            TechConfig::ProjectedShe}) {
        for (double margin : {0.05, 0.03}) {
            libs.push_back(std::make_unique<GateLibrary>(
                makeDeviceConfig(tech), margin));
        }
    }
    return libs;
}

void
expectSameTrace(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.gateQueries, b.gateQueries);
    EXPECT_EQ(a.gateAnswers, b.gateAnswers);
    ASSERT_EQ(a.blocks.size(), b.blocks.size());
    for (std::size_t i = 0; i < a.blocks.size(); ++i) {
        EXPECT_EQ(a.blocks[i].op, b.blocks[i].op) << "block " << i;
        EXPECT_EQ(a.blocks[i].touchedCols, b.blocks[i].touchedCols);
        EXPECT_EQ(a.blocks[i].activeColsAfter,
                  b.blocks[i].activeColsAfter);
        EXPECT_EQ(a.blocks[i].count, b.blocks[i].count);
    }
}

TEST(SharedTraces, PaperTracesAskOnlyAboutBufNotAndNand2)
{
    const GateMask universal = gateBit(GateType::kBuf) |
                               gateBit(GateType::kNot) |
                               gateBit(GateType::kNand2);
    for (const auto &lib : paperLibraries()) {
        for (const exp::Benchmark &bench : exp::paperBenchmarks()) {
            const Trace trace = exp::traceFor(*lib, bench);
            EXPECT_EQ(trace.gateQueries, universal) << bench.name;
            EXPECT_EQ(trace.gateAnswers, universal) << bench.name;
            EXPECT_TRUE(trace.compiledFor(*lib));
        }
    }
}

TEST(SharedTraces, SharedTraceEqualsEachContextsOwnCompile)
{
    const auto owned = paperLibraries();
    std::vector<const GateLibrary *> libs;
    for (const auto &lib : owned) {
        libs.push_back(lib.get());
    }
    const auto &benches = exp::paperBenchmarks();
    const auto traces =
        exp::ExperimentRunner(4).compileTraces(libs, benches);
    ASSERT_EQ(traces.size(), libs.size() * benches.size());
    std::set<const Trace *> distinct;
    for (std::size_t l = 0; l < libs.size(); ++l) {
        for (std::size_t b = 0; b < benches.size(); ++b) {
            const Trace &shared = *traces[l * benches.size() + b];
            SCOPED_TRACE(libs[l]->config().name() + " / " +
                         benches[b].name);
            expectSameTrace(shared, exp::traceFor(*libs[l], benches[b]));
            distinct.insert(&shared);
        }
    }
    // Every context answers BUF, NOT and NAND2 alike, so each
    // benchmark compiles once.
    EXPECT_EQ(distinct.size(), benches.size());
}

TEST(SharedTraces, SweepMatchesPerContextCompile)
{
    exp::SweepGrid grid;
    grid.techs = {TechConfig::ModernStt, TechConfig::ProjectedStt,
                  TechConfig::ProjectedShe};
    grid.benchmarks = {exp::paperBenchmarks()[3],
                       exp::paperBenchmarks()[4]};
    grid.powers = {exp::kContinuousPower, 60e-6, 1e-3};
    grid.checkpointPeriods = {1u, 8u};
    grid.margins = {0.05, 0.03};
    grid.rootSeed = 7;
    const exp::SweepResult res = exp::ExperimentRunner(4).run(grid);
    ASSERT_EQ(res.points.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const exp::SweepPoint point = grid.at(i);
        const GateLibrary lib(makeDeviceConfig(point.tech),
                              point.margin);
        const EnergyModel energy(lib);
        const Trace trace =
            exp::traceFor(lib, grid.benchmarks[point.benchmark]);
        const RunStats ref =
            point.continuous()
                ? runContinuousTrace(trace, energy)
                : runHarvestedTrace(trace, energy,
                                    grid.harvestFor(point));
        ASSERT_TRUE(res.points[i].ok()) << i;
        EXPECT_EQ(toJson(res.points[i].stats), toJson(ref)) << i;
    }
}

// -- Shared kernels --------------------------------------------------

/** Distinct kernels of all of @p benches. */
std::set<Kernel>
kernelUnion(const std::vector<exp::Benchmark> &benches)
{
    std::set<Kernel> all;
    for (const exp::Benchmark &bench : benches) {
        for (const Kernel &kernel : exp::kernelsFor(bench)) {
            all.insert(kernel);
        }
    }
    return all;
}

TEST(SharedKernels, PaperSetKernelList)
{
    const auto &benches = exp::paperBenchmarks();
    const std::vector<Kernel> mnist = exp::kernelsFor(benches[0]);
    // SVM MNIST and SVM HAR have the same widths, so the same five
    // kernels.
    const std::vector<Kernel> svm8 = {
        Kernel::svmMac(8, 24), Kernel::add(24), Kernel::add(40),
        Kernel::square(24), Kernel::mulSigned(32, 8)};
    EXPECT_EQ(std::set<Kernel>(mnist.begin(), mnist.end()),
              std::set<Kernel>(svm8.begin(), svm8.end()));
    EXPECT_EQ(mnist.size(), 5u);
    EXPECT_EQ(exp::kernelsFor(benches[2]), mnist);
    // ADULT fits a support vector in one column: no reduction add.
    const std::vector<Kernel> adult = exp::kernelsFor(benches[3]);
    EXPECT_EQ(std::set<Kernel>(adult.begin(), adult.end()),
              (std::set<Kernel>{Kernel::svmMac(8, 20), Kernel::add(36),
                                Kernel::square(20),
                                Kernel::mulSigned(28, 8)}));
    // FINN and FP-BNN share their XNOR-popcount MAC.
    const std::vector<Kernel> finn = exp::kernelsFor(benches[4]);
    const std::vector<Kernel> fpbnn = exp::kernelsFor(benches[5]);
    const Kernel bnn_mac = Kernel::xnorPopcount(320);
    EXPECT_NE(std::find(finn.begin(), finn.end(), bnn_mac), finn.end());
    EXPECT_NE(std::find(fpbnn.begin(), fpbnn.end(), bnn_mac),
              fpbnn.end());

    const std::set<Kernel> all = kernelUnion(benches);
    EXPECT_EQ(all,
              (std::set<Kernel>{
                  Kernel::svmMac(8, 20), Kernel::svmMac(8, 24),
                  Kernel::andPopcount(317), Kernel::xnorPopcount(320),
                  Kernel::add(10), Kernel::add(11), Kernel::add(12),
                  Kernel::add(13), Kernel::add(24), Kernel::add(30),
                  Kernel::add(36), Kernel::add(40), Kernel::sub(10),
                  Kernel::sub(11), Kernel::sub(12), Kernel::sub(13),
                  Kernel::square(11), Kernel::square(20),
                  Kernel::square(24), Kernel::mulSigned(22, 8),
                  Kernel::mulSigned(28, 8),
                  Kernel::mulSigned(32, 8)}));
    std::size_t listed = 0;
    for (const exp::Benchmark &bench : benches) {
        listed += exp::kernelsFor(bench).size();
    }
    EXPECT_LT(all.size(), listed);
}

TEST(SharedKernels, TraceAssembledFromKernelMixesEqualsTraceFor)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedShe));
    for (const exp::Benchmark &bench : exp::paperBenchmarks()) {
        SCOPED_TRACE(bench.name);
        KernelMixes mixes;
        for (const Kernel &kernel : exp::kernelsFor(bench)) {
            mixes.emplace(kernel, measureKernel(lib, kernel));
        }
        MappingInfo assembled_info;
        MappingInfo own_info;
        expectSameTrace(exp::assembleTrace(bench, mixes, &assembled_info),
                        exp::traceFor(lib, bench, &own_info));
        EXPECT_EQ(assembled_info.peakActiveColumns,
                  own_info.peakActiveColumns);
        EXPECT_EQ(assembled_info.instrMB, own_info.instrMB);
    }
}

TEST(SharedKernels, MixReusedOnlyWhereAnswersMatch)
{
    // Item 0 reaches orFlip, which asks about OR2: Modern STT loses
    // OR2 at margin 0.05 and keeps it at 0.03, so the libraries split
    // into two answer sets.  Item 1 (an add) asks only about gates
    // every library answers alike.
    const auto owned = paperLibraries();
    std::vector<const GateLibrary *> libs;
    for (const auto &lib : owned) {
        libs.push_back(lib.get());
    }
    ASSERT_FALSE(libs[0]->feasible(GateType::kOr2));
    ASSERT_TRUE(libs[1]->feasible(GateType::kOr2));
    const auto measure = [](const GateLibrary &lib, std::size_t item) {
        if (item == 1) {
            return measureKernel(lib, Kernel::add(8));
        }
        ArrayConfig cfg;
        KernelBuilder kb(lib, cfg, 0, 8, KernelBuilder::Mode::kCount);
        (void)kb.orFlip(kb.pinned(0), kb.pinned(2));
        KernelMix mix;
        mix.counts = kb.opcodeCounts();
        mix.gateQueries = kb.gateQueries();
        mix.gateAnswers = kb.gateAnswers();
        return mix;
    };
    std::vector<std::atomic<int>> calls(libs.size() * 2);
    const auto mixes = exp::ExperimentRunner(4).measurePerAnswerSet(
        libs, 2, [&](const GateLibrary &lib, std::size_t item) {
            const std::size_t l = static_cast<std::size_t>(
                std::find(libs.begin(), libs.end(), &lib) -
                libs.begin());
            calls[l * 2 + item].fetch_add(1);
            return measure(lib, item);
        });
    ASSERT_EQ(mixes.size(), libs.size() * 2);

    std::set<const KernelMix *> or_mixes;
    std::set<const KernelMix *> add_mixes;
    for (std::size_t l = 0; l < libs.size(); ++l) {
        SCOPED_TRACE(l);
        for (std::size_t item = 0; item < 2; ++item) {
            const KernelMix &shared = *mixes[l * 2 + item];
            const KernelMix own = measure(*libs[l], item);
            EXPECT_EQ(shared.counts, own.counts);
            EXPECT_EQ(shared.gateQueries, own.gateQueries);
            EXPECT_EQ(shared.gateAnswers, own.gateAnswers);
        }
        or_mixes.insert(mixes[l * 2].get());
        add_mixes.insert(mixes[l * 2 + 1].get());
        // A library shares the first library's OR mix exactly when it
        // answers OR2 alike.
        EXPECT_EQ(mixes[l * 2] == mixes[0],
                  libs[l]->feasible(GateType::kOr2) ==
                      libs[0]->feasible(GateType::kOr2));
        // Only the first library of each answer set measures.
        bool first_of_set = true;
        for (std::size_t m = 0; m < l; ++m) {
            first_of_set &= libs[m]->feasible(GateType::kOr2) !=
                            libs[l]->feasible(GateType::kOr2);
        }
        EXPECT_EQ(calls[l * 2].load(), first_of_set ? 1 : 0);
        EXPECT_EQ(calls[l * 2 + 1].load(), l == 0 ? 1 : 0);
    }
    EXPECT_EQ(or_mixes.size(), 2u);
    EXPECT_EQ(add_mixes.size(), 1u);
    // The two answer sets compile different code.
    EXPECT_NE(mixes[0]->counts, mixes[1 * 2]->counts);
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
