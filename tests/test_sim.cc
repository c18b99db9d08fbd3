/**
 * @file
 * Tests for the simulators: trace/functional agreement, harvesting
 * behaviour (outages, breakdown accounting, power sweeps), and the
 * headline intermittent-correctness property — a harvested run with
 * many real outages produces exactly the same memory contents as a
 * continuously powered one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "compile/builder.hh"
#include "exp/names.hh"
#include "exp/workloads.hh"
#include "sim/burst_loop.hh"
#include "sim/simulator.hh"

namespace mouse
{
namespace
{

/** Shared workload: an 8-bit multiply in 4 SIMD columns. */
class SimTest : public ::testing::Test
{
  protected:
    SimTest() : lib_(makeDeviceConfig(TechConfig::ProjectedStt))
    {
        cfg_.tileRows = 128;
        cfg_.tileCols = 8;
        cfg_.numDataTiles = 1;
        cfg_.numInstructionTiles = 512;
    }

    Program
    buildWorkload(Word &product)
    {
        KernelBuilder kb(lib_, cfg_, 0, 24);
        kb.activate(0, 3);
        const Word a = kb.pinnedWord(0, 6);
        const Word b = kb.pinnedWord(12, 6);
        product = kb.mulUnsigned(a, b);
        return kb.finish();
    }

    void
    seed(TileGrid &grid)
    {
        const std::uint64_t avals[4] = {11, 63, 0, 37};
        const std::uint64_t bvals[4] = {52, 63, 9, 1};
        for (ColAddr c = 0; c < 4; ++c) {
            for (unsigned i = 0; i < 6; ++i) {
                grid.tile(0).setBit(static_cast<RowAddr>(2 * i), c,
                                    (avals[c] >> i) & 1);
                grid.tile(0).setBit(static_cast<RowAddr>(12 + 2 * i),
                                    c, (bvals[c] >> i) & 1);
            }
        }
    }

    std::uint64_t
    readProduct(TileGrid &grid, const Word &product, ColAddr col)
    {
        std::uint64_t v = 0;
        for (std::size_t i = 0; i < product.size(); ++i) {
            v |= static_cast<std::uint64_t>(
                     grid.tile(0).bit(product[i].row, col))
                 << i;
        }
        return v;
    }

    GateLibrary lib_;
    ArrayConfig cfg_;
};

TEST_F(SimTest, ContinuousFunctionalComputesProducts)
{
    Word product;
    const Program prog = buildWorkload(product);
    TileGrid grid(cfg_, lib_);
    seed(grid);
    InstructionMemory imem(cfg_);
    imem.load(prog.encode());
    EnergyModel energy(lib_);
    Controller ctrl(grid, imem, energy);

    const RunStats stats = runContinuousFunctional(ctrl);
    EXPECT_EQ(readProduct(grid, product, 0), 11u * 52u);
    EXPECT_EQ(readProduct(grid, product, 1), 63u * 63u);
    EXPECT_EQ(readProduct(grid, product, 2), 0u);
    EXPECT_EQ(readProduct(grid, product, 3), 37u);

    EXPECT_EQ(stats.instructionsCommitted, prog.size() - 1);
    EXPECT_EQ(stats.outages, 0u);
    EXPECT_EQ(stats.deadEnergy, 0.0);
    EXPECT_EQ(stats.restoreEnergy, 0.0);
    EXPECT_EQ(stats.chargingTime, 0.0);
    EXPECT_GT(stats.computeEnergy, 0.0);
    EXPECT_GT(stats.backupEnergy, 0.0);
}

TEST_F(SimTest, TraceMatchesFunctionalCyclesAndApproxEnergy)
{
    Word product;
    const Program prog = buildWorkload(product);

    // Functional run.
    TileGrid grid(cfg_, lib_);
    seed(grid);
    InstructionMemory imem(cfg_);
    imem.load(prog.encode());
    EnergyModel energy(lib_);
    Controller ctrl(grid, imem, energy);
    const RunStats functional = runContinuousFunctional(ctrl);

    // Trace run of the same program.
    const Trace trace = Trace::fromProgram(prog, cfg_);
    const RunStats traced = runContinuousTrace(trace, energy);

    // Cycle counts are exact (the instruction stream is static)...
    EXPECT_EQ(traced.instructionsCommitted,
              functional.instructionsCommitted);
    // The functional run adds one extra fetch for HALT.
    EXPECT_NEAR(traced.activeTime,
                functional.activeTime - energy.cycleTime(),
                1e-12);
    EXPECT_DOUBLE_EQ(traced.backupEnergy, functional.backupEnergy);
    // ...and energy agrees to the data-dependence of gate currents.
    EXPECT_NEAR(traced.computeEnergy, functional.computeEnergy,
                0.3 * functional.computeEnergy);
}

TEST_F(SimTest, HarvestedFunctionalMatchesContinuousResults)
{
    // The paper's headline correctness claim, end to end: outages at
    // arbitrary micro-steps never change the computed product.
    Word product;
    const Program prog = buildWorkload(product);
    EnergyModel energy(lib_);

    for (Watts power : {3e-6, 10e-6, 60e-6}) {
        for (std::uint64_t seed_v : {1ull, 7ull, 99ull}) {
            TileGrid grid(cfg_, lib_);
            seed(grid);
            InstructionMemory imem(cfg_);
            imem.load(prog.encode());
            Controller ctrl(grid, imem, energy);

            HarvestConfig harvest;
            harvest.source = SourceSpec::constant(power);
            harvest.seed = seed_v;
            const RunStats stats =
                runHarvestedFunctional(ctrl, harvest);

            EXPECT_EQ(readProduct(grid, product, 0), 11u * 52u)
                << "power " << power << " seed " << seed_v;
            EXPECT_EQ(readProduct(grid, product, 1), 63u * 63u);
            EXPECT_EQ(readProduct(grid, product, 3), 37u);
            EXPECT_EQ(stats.instructionsCommitted, prog.size() - 1);
            EXPECT_GT(stats.chargingTime, 0.0);
        }
    }
}

TEST_F(SimTest, HarvestedTraceBreakdownAccounting)
{
    Word product;
    const Program prog = buildWorkload(product);
    const Trace trace = Trace::fromProgram(prog, cfg_);
    EnergyModel energy(lib_);

    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(60e-6);
    const RunStats stats = runHarvestedTrace(trace, energy, harvest);

    EXPECT_EQ(stats.instructionsCommitted, trace.totalInstructions());
    // Breakdown components must sum to the total exactly.
    EXPECT_NEAR(stats.totalEnergy(),
                stats.computeEnergy + stats.backupEnergy +
                    stats.deadEnergy + stats.restoreEnergy +
                    stats.idleEnergy,
                1e-18);
    EXPECT_GT(stats.computeEnergy, 0.0);
    EXPECT_GT(stats.backupEnergy, 0.0);
    // The projected-tech buffer is small enough that this workload
    // needs at least one recharge.
    EXPECT_GT(stats.chargingTime, 0.0);
}

TEST_F(SimTest, SquareRechargeWaveformRisesToTheRestartVoltage)
{
    Word product;
    const Trace trace = Trace::fromProgram(buildWorkload(product), cfg_);
    EnergyModel energy(lib_);

    // A 1 uW square wave with 70 us droughts against a buffer that
    // takes ~4 us of on-time to refill: recharges straddle droughts.
    HarvestConfig harvest;
    harvest.source = SourceSpec::square(1e-4, 0.3, 1e-6);
    harvest.capacitanceOverride = 2e-9;
    obs::Telemetry telem = obs::Telemetry::make(
        {.events = true, .waveform = true, .waveformPeriod = 1e-7});
    const RunStats stats =
        runHarvestedTrace(trace, energy, harvest, &telem);
    ASSERT_GT(stats.outages, 0u);

    // Each outage's recharge runs from its power_off to its power_on,
    // and shows up once as an `outage` span (no duplicate under
    // another name).
    std::vector<std::pair<Seconds, Seconds>> recharges;
    Seconds off = 0.0;
    std::uint64_t outageSpans = 0;
    for (const obs::TraceEvent &e : telem.sink->events()) {
        if (e.name == "power_off") {
            off = e.tsUs * 1e-6;
        } else if (e.name == "power_on") {
            recharges.emplace_back(off, e.tsUs * 1e-6);
        }
        outageSpans += e.name == "outage";
        EXPECT_NE(e.name, "outage_stall");
    }
    ASSERT_EQ(recharges.size(), stats.outages);
    EXPECT_EQ(outageSpans, stats.outages);
    const Volts vHigh = energy.config().capVoltageHigh;
    for (const auto &[from, to] : recharges) {
        std::vector<Volts> volts;
        for (const obs::WaveformSample &w : telem.sink->waveform()) {
            if (w.timeS > from && w.timeS <= to * (1.0 + 1e-12)) {
                volts.push_back(w.capVoltage);
            }
        }
        ASSERT_FALSE(volts.empty()) << "no samples in " << from;
        EXPECT_TRUE(std::is_sorted(volts.begin(), volts.end()))
            << "voltage fell during the recharge at " << from;
        EXPECT_NEAR(volts.back(), vHigh, 1e-12) << from;
    }
}

TEST_F(SimTest, LatencyFallsAsPowerRises)
{
    Word product;
    const Program prog = buildWorkload(product);
    const Trace trace = Trace::fromProgram(prog, cfg_);
    EnergyModel energy(lib_);

    Seconds prev = 1e18;
    for (Watts power : {1e-6, 10e-6, 100e-6, 1e-3}) {
        HarvestConfig harvest;
        harvest.source = SourceSpec::constant(power);
        const RunStats stats =
            runHarvestedTrace(trace, energy, harvest);
        EXPECT_LT(stats.totalTime(), prev) << "power " << power;
        prev = stats.totalTime();
    }
}

TEST_F(SimTest, EnergyNearlyIndependentOfPower)
{
    // Section IX: MOUSE spends negligible energy while off, so total
    // energy barely moves across the power sweep.
    Word product;
    const Program prog = buildWorkload(product);
    const Trace trace = Trace::fromProgram(prog, cfg_);
    EnergyModel energy(lib_);

    HarvestConfig lo;
    lo.source = SourceSpec::constant(1e-6);
    HarvestConfig hi;
    hi.source = SourceSpec::constant(1e-3);
    const RunStats slow = runHarvestedTrace(trace, energy, lo);
    const RunStats fast = runHarvestedTrace(trace, energy, hi);
    EXPECT_NEAR(slow.totalEnergy(), fast.totalEnergy(),
                0.1 * fast.totalEnergy());
    EXPECT_GE(slow.totalEnergy(), fast.totalEnergy());
}

TEST_F(SimTest, MoreOutagesAtLowerPowerAndDeadEnergyOrdering)
{
    Word product;
    const Program prog = buildWorkload(product);
    EnergyModel energy(lib_);

    std::uint64_t prev_outages = ~0ull;
    for (Watts power : {1e-6, 60e-6}) {
        TileGrid grid(cfg_, lib_);
        seed(grid);
        InstructionMemory imem(cfg_);
        imem.load(prog.encode());
        Controller ctrl(grid, imem, energy);
        HarvestConfig harvest;
        harvest.source = SourceSpec::constant(power);
        const RunStats stats = runHarvestedFunctional(ctrl, harvest);
        EXPECT_LE(stats.outages, prev_outages);
        EXPECT_EQ(stats.instructionsDead, stats.outages);
        prev_outages = stats.outages;
    }
}

TEST_F(SimTest, ContinuousTraceHasNoIntermittentCosts)
{
    Word product;
    const Program prog = buildWorkload(product);
    const Trace trace = Trace::fromProgram(prog, cfg_);
    EnergyModel energy(lib_);
    const RunStats stats = runContinuousTrace(trace, energy);
    // Restore and Dead are zero under continuous power (Section IX).
    EXPECT_EQ(stats.deadEnergy, 0.0);
    EXPECT_EQ(stats.restoreEnergy, 0.0);
    EXPECT_EQ(stats.deadTime, 0.0);
    EXPECT_EQ(stats.restoreTime, 0.0);
    EXPECT_EQ(stats.chargingTime, 0.0);
    EXPECT_EQ(stats.outages, 0u);
}

TEST_F(SimTest, CheckpointPeriodTradeoff)
{
    Word product;
    const Program prog = buildWorkload(product);
    const Trace trace = Trace::fromProgram(prog, cfg_);
    EnergyModel energy(lib_);

    HarvestConfig base;
    base.source = SourceSpec::constant(1e-6);
    base.capacitanceOverride = 2e-9;  // force outages
    const RunStats p1 = runHarvestedTrace(trace, energy, base);
    ASSERT_GT(p1.outages, 0u);

    HarvestConfig wide = base;
    wide.checkpointPeriod = 32;
    const RunStats p32 = runHarvestedTrace(trace, energy, wide);

    // Wider period: strictly less backup, strictly more dead work.
    EXPECT_LT(p32.backupEnergy, p1.backupEnergy / 8);
    EXPECT_GT(p32.deadEnergy, p1.deadEnergy);
    // Committed work is unchanged.
    EXPECT_EQ(p32.instructionsCommitted, p1.instructionsCommitted);
}

TEST_F(SimTest, CheckpointPeriodOneIsDefaultBehaviour)
{
    Word product;
    const Program prog = buildWorkload(product);
    const Trace trace = Trace::fromProgram(prog, cfg_);
    EnergyModel energy(lib_);
    HarvestConfig a;
    a.source = SourceSpec::constant(10e-6);
    HarvestConfig b = a;
    b.checkpointPeriod = 1;
    const RunStats ra = runHarvestedTrace(trace, energy, a);
    const RunStats rb = runHarvestedTrace(trace, energy, b);
    EXPECT_DOUBLE_EQ(ra.totalEnergy(), rb.totalEnergy());
    EXPECT_DOUBLE_EQ(ra.totalTime(), rb.totalTime());
}

/** Every RunStats field, floats in hex: equal strings are equal
 *  bits. */
std::vector<std::pair<const char *, std::string>>
hexFields(const RunStats &s)
{
    const auto hex = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%a", v);
        return std::string(buf);
    };
    return {{"committed", std::to_string(s.instructionsCommitted)},
            {"dead", std::to_string(s.instructionsDead)},
            {"outages", std::to_string(s.outages)},
            {"active", hex(s.activeTime)},
            {"deadT", hex(s.deadTime)},
            {"restoreT", hex(s.restoreTime)},
            {"charging", hex(s.chargingTime)},
            {"compute", hex(s.computeEnergy)},
            {"backup", hex(s.backupEnergy)},
            {"deadE", hex(s.deadEnergy)},
            {"restoreE", hex(s.restoreEnergy)},
            {"idle", hex(s.idleEnergy)}};
}

/**
 * A plain harvested trace run, which may skip repeated bursts, must
 * be bit-identical to one with stats telemetry, which runs every
 * burst.  Returns the outage count.
 */
std::uint64_t
expectFullLoopStats(const Trace &trace, const EnergyModel &energy,
                    const HarvestConfig &h, const std::string &label)
{
    const RunStats plain = runHarvestedTrace(trace, energy, h);
    obs::Telemetry telem = obs::Telemetry::make({.stats = true});
    const RunStats full = runHarvestedTrace(trace, energy, h, &telem);
    const auto a = hexFields(plain);
    const auto b = hexFields(full);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].second, b[i].second) << label << ' ' << a[i].first;
    }
    return full.outages;
}

/** Paper benchmark index; the suite covers the three techs, the
 *  paper's power range and two buffers for each. */
class BurstSkip : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(BurstSkip, MatchesTheFullLoopOnThePaperGrid)
{
    const exp::Benchmark &bench = exp::paperBenchmarks()[GetParam()];
    for (const TechConfig tech : names::allTechs()) {
        const GateLibrary lib(makeDeviceConfig(tech));
        const EnergyModel energy(lib);
        const Trace trace = exp::traceFor(lib, bench);
        for (const unsigned period : {1u, 2u, 8u, 64u, 256u}) {
            for (const Watts power : {60e-6, 1e-3, 5e-3}) {
                for (const char *platform : {"", "mementos"}) {
                    HarvestConfig h;
                    h.source = SourceSpec::constant(power);
                    h.checkpointPeriod = period;
                    h.platform = platform;
                    expectFullLoopStats(
                        trace, energy, h,
                        std::string(names::techName(tech)) + " p" +
                            std::to_string(period) + " " +
                            std::to_string(power) + " W '" + platform +
                            "'");
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperBenchmarks, BurstSkip,
    ::testing::Range<std::size_t>(0, exp::paperBenchmarks().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        std::string key = names::listBenchmarks()[info.param];
        std::replace(key.begin(), key.end(), '-', '_');
        return key;
    });

TEST_F(SimTest, BurstSkipEndsABurstExactlyAtABlockEnd)
{
    // Repeated bursts commit 305 NANDs each, so among 400
    // consecutive block lengths one leaves exactly one burst's worth
    // after the skip: that burst ends at the block's end, and the
    // next block starts mid-burst.
    EnergyModel energy(lib_);
    HarvestConfig h;
    h.source = SourceSpec::constant(1e-6);
    h.capacitanceOverride = 2e-9;
    for (std::uint64_t len = 2000; len < 2400; ++len) {
        Trace trace;
        trace.append(Opcode::kGateNand2, 4, 4, len);
        trace.append(Opcode::kGateNor2, 4, 4, 1000);
        EXPECT_GT(expectFullLoopStats(trace, energy, h,
                                      "len " + std::to_string(len)),
                  8u);
    }
}

TEST(BurstSkipCycles, PeriodEightAlternatesTwoBursts)
{
    // At period 8 the replay an outage costs is n % 8, so SVM MNIST
    // on Modern STT alternates two burst lengths: the cycle is two
    // bursts long.
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    const Trace trace = exp::traceFor(lib, exp::paperBenchmarks()[0]);
    HarvestConfig h;
    h.source = SourceSpec::constant(60e-6);
    h.checkpointPeriod = 8;
    EXPECT_GT(expectFullLoopStats(trace, energy, h, "mnist p8"), 1000u);
}

TEST(BurstSkipCycles, BurstsThatNeverRepeatRunInFull)
{
    // At period 256 SVM MNIST's bursts on SHE at 60 uW never return
    // to an earlier state, so the search runs over every burst and
    // finds nothing to skip.
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedShe));
    const EnergyModel energy(lib);
    const Trace trace = exp::traceFor(lib, exp::paperBenchmarks()[0]);
    HarvestConfig h;
    h.source = SourceSpec::constant(60e-6);
    h.checkpointPeriod = 256;
    EXPECT_GT(expectFullLoopStats(trace, energy, h, "mnist p256"),
              1000u);
}

/** What repeatAdd must reproduce: @p k plain passes. */
double
passes(double x, const std::vector<double> &addends, std::uint64_t k)
{
    for (; k > 0; --k) {
        for (const double a : addends) {
            x += a;
        }
    }
    return x;
}

/** repeatAdd gives the bits of the plain passes. */
void
expectRepeatAdd(double x, const std::vector<double> &addends,
                std::uint64_t k, const std::string &label)
{
    const double want = passes(x, addends, k);
    const double got = sim::repeatAdd(x, addends, k);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "want %a got %a", want, got);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << label << ": " << buf;
}

/** One ulp of 1.0. */
constexpr double kUlp1 = std::numeric_limits<double>::epsilon();

TEST(RepeatAdd, MatchesPlainPassesOnRandomAddendLists)
{
    std::mt19937_64 rng(20261019);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> scale(-40, 8);
    for (int trial = 0; trial < 400; ++trial) {
        const double x = std::ldexp(0.5 + unit(rng), scale(rng));
        std::vector<double> addends(1 + rng() % 8);
        for (double &a : addends) {
            // Addends from far below x's ulp to far above x.
            a = x * std::ldexp(unit(rng), -(static_cast<int>(rng() % 64)));
        }
        const std::uint64_t k = rng() % 5000;
        expectRepeatAdd(x, addends, k, "trial " + std::to_string(trial));
        expectRepeatAdd(x, addends, k % 16,
                        "short trial " + std::to_string(trial));
    }
}

TEST(RepeatAdd, HalfUlpTiesWithAnOddAndAnEvenStep)
{
    // 2.5 ulp ties to the even neighbour, then +1 ulp: from an even
    // mantissa a pass moves 3 ulp (odd, so the parity flips), from an
    // odd one 4 ulp.  The first two passes differ, and only the
    // passes after them may jump.
    const std::vector<double> tieThenOne = {2.5 * kUlp1, kUlp1};
    const std::vector<double> tieOnly = {2.5 * kUlp1};
    const double even = 1.0;
    const double odd = 1.0 + kUlp1;
    for (const double x : {even, odd}) {
        for (const std::uint64_t k : {4u, 5u, 64u, 65u, 1000u, 100000u}) {
            const std::string at =
                (x == even ? "even" : "odd") + std::string(" k ") +
                std::to_string(k);
            expectRepeatAdd(x, tieThenOne, k, "tie then one, " + at);
            expectRepeatAdd(x, tieOnly, k, "tie only, " + at);
        }
    }
    // Passes that run into the binade top and across it.
    expectRepeatAdd(2.0 - 1001 * kUlp1, tieThenOne, 400, "at the top");
    expectRepeatAdd(1.0 + 3 * kUlp1, {1.5 * kUlp1}, 1u << 20,
                    "odd start, 1.5 ulp");
}

TEST(RepeatAdd, ZeroAndSubnormalStartsTakePlainPasses)
{
    const double tiny = std::numeric_limits<double>::denorm_min();
    expectRepeatAdd(0.0, {1e-9, 3e-12}, 100000, "zero");
    expectRepeatAdd(0.0, {0.0}, 100000, "zero, zero addend");
    expectRepeatAdd(0.0, {tiny}, 10000, "zero, denormal steps");
    expectRepeatAdd(tiny * 7, {tiny, tiny * 3}, 100000, "subnormal");
    expectRepeatAdd(std::numeric_limits<double>::min() - tiny * 100,
                    {tiny * 3}, 1000, "subnormal into normal");
}

TEST(RepeatAdd, AddendsLargerThanX)
{
    expectRepeatAdd(1e-12, {1.0, 3e-3}, 100000, "one addend");
    expectRepeatAdd(3.0, {1e6, 7.25, 1e-3}, 100000, "first addend");
}

TEST(RepeatAdd, AddendsBelowHalfAnUlpStall)
{
    // A quarter ulp is lost every time: the sum never moves.
    expectRepeatAdd(1.0, {0.25 * kUlp1}, 1000000, "stall");
    expectRepeatAdd(1.5, {0.25 * kUlp1, 0.25 * kUlp1}, 1000000,
                    "stall twice");
    // It is lost before the ulp step lands, and again after it.
    expectRepeatAdd(1.0, {0.25 * kUlp1, kUlp1, 0.4 * kUlp1}, 1000000,
                    "lost around a step");
}

TEST(RepeatAdd, MillionsOfPassesAcrossManyBinades)
{
    // From 1e-3 with a step of 3.7e-4 plus change, a million passes
    // cross about 18 binades.
    expectRepeatAdd(1e-3, {3.7e-4, 1e-9}, 1000000, "steady");
    expectRepeatAdd(1e-12, {2.3e-9, 1e-20, 6.1e-13}, 1000000, "from tiny");
    expectRepeatAdd(0.1, {std::ldexp(1.0, -40)}, 1000000, "power of two");
    for (std::uint64_t k = 0; k < 70; ++k) {
        expectRepeatAdd(1.0, {0.3, 0.0001}, k, "short run");
    }
}

TEST(RepeatAdd, FallsBackOnNegativeAndNonFiniteAddends)
{
    expectRepeatAdd(1.0, {1e-3, -2.5e-4}, 100000, "negative");
    expectRepeatAdd(-5.0, {1e-3}, 100000, "negative x");
    expectRepeatAdd(1.0, {1e-3, std::numeric_limits<double>::infinity()},
                    1000, "infinite");
    expectRepeatAdd(1.0, {std::numeric_limits<double>::quiet_NaN()}, 1000,
                    "nan");
    expectRepeatAdd(std::numeric_limits<double>::max() * 0.75,
                    {std::numeric_limits<double>::max() * 0.125}, 1000,
                    "overflow");
    expectRepeatAdd(2.0, {}, 1000, "no addends");
}

TEST(RunStatsDerived, SharesAreZeroWhenTotalsAreZero)
{
    // A default-constructed RunStats has zero totals; every derived
    // share must return 0, not NaN, so JSON dumps stay parseable and
    // comparisons stay meaningful.
    const RunStats zero;
    EXPECT_DOUBLE_EQ(zero.totalTime(), 0.0);
    EXPECT_DOUBLE_EQ(zero.totalEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(zero.deadEnergyShare(), 0.0);
    EXPECT_DOUBLE_EQ(zero.backupEnergyShare(), 0.0);
    EXPECT_DOUBLE_EQ(zero.restoreEnergyShare(), 0.0);
    EXPECT_DOUBLE_EQ(zero.deadTimeShare(), 0.0);
    EXPECT_DOUBLE_EQ(zero.restoreTimeShare(), 0.0);
}

TEST(RunStatsDerived, SharesPartitionTheTotals)
{
    RunStats s;
    s.activeTime = 3.0;
    s.deadTime = 1.0;
    s.restoreTime = 0.5;
    s.chargingTime = 0.5;
    s.computeEnergy = 6.0;
    s.backupEnergy = 2.0;
    s.deadEnergy = 1.0;
    s.restoreEnergy = 0.5;
    s.idleEnergy = 0.5;
    EXPECT_DOUBLE_EQ(s.totalTime(), 5.0);
    EXPECT_DOUBLE_EQ(s.totalEnergy(), 10.0);
    EXPECT_DOUBLE_EQ(s.deadEnergyShare(), 0.1);
    EXPECT_DOUBLE_EQ(s.backupEnergyShare(), 0.2);
    EXPECT_DOUBLE_EQ(s.restoreEnergyShare(), 0.05);
    EXPECT_DOUBLE_EQ(s.deadTimeShare(), 0.2);
    EXPECT_DOUBLE_EQ(s.restoreTimeShare(), 0.1);
}

TEST(RunStatsDerived, SummaryIsCompleteForZeroAndPopulatedStats)
{
    // summary() on all-zero stats must not emit nan/inf anywhere.
    const std::string zero = RunStats{}.summary();
    EXPECT_EQ(zero.find("nan"), std::string::npos) << zero;
    EXPECT_EQ(zero.find("inf"), std::string::npos) << zero;
    EXPECT_NE(zero.find("instructions: 0 committed"),
              std::string::npos)
        << zero;

    RunStats s;
    s.instructionsCommitted = 12;
    s.instructionsDead = 3;
    s.outages = 2;
    s.activeTime = 1e-6;
    s.computeEnergy = 4e-6;
    const std::string text = s.summary();
    EXPECT_NE(text.find("12 committed"), std::string::npos) << text;
    EXPECT_NE(text.find("3 dead"), std::string::npos) << text;
    EXPECT_NE(text.find("2 outages"), std::string::npos) << text;
    EXPECT_NE(text.find("latency [us]"), std::string::npos) << text;
    EXPECT_NE(text.find("energy [uJ]"), std::string::npos) << text;
}

TEST(SimNonTermination, DetectedAndFatal)
{
    // A giant per-instruction cost (4096-wide activation on modern
    // tech with a microscopic buffer) can never fit in one burst.
    GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    EnergyModel energy(lib);
    Trace trace;
    trace.append(Opcode::kGateNand2, 1024, 1024, 10);

    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(60e-6);
    EXPECT_EXIT(
        {
            // Shrink the buffer via a custom config: reuse modern
            // voltages but a 1 nF capacitor.
            DeviceConfig tiny = makeDeviceConfig(TechConfig::ModernStt);
            tiny.bufferCapacitance = 1e-9;
            GateLibrary tiny_lib(tiny);
            EnergyModel tiny_energy(tiny_lib);
            runHarvestedTrace(trace, tiny_energy, harvest);
        },
        ::testing::ExitedWithCode(1), "non-termination");
}

TEST_F(SimTest, HarvestedFunctionalNonTerminationIsFatal)
{
    // Same verdict through the controller machine: a 0.1 pF buffer
    // holds far less than one instruction plus its restore.
    Word product;
    const Program prog = buildWorkload(product);
    EnergyModel energy(lib_);
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(60e-6);
    harvest.capacitanceOverride = 1e-13;
    EXPECT_EXIT(
        {
            TileGrid grid(cfg_, lib_);
            seed(grid);
            InstructionMemory imem(cfg_);
            imem.load(prog.encode());
            Controller ctrl(grid, imem, energy);
            runHarvestedFunctional(ctrl, harvest);
        },
        ::testing::ExitedWithCode(1), "non-termination");
}

} // namespace
} // namespace mouse
