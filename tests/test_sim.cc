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
#include <utility>
#include <vector>

#include "compile/builder.hh"
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

    // Each outage's recharge runs from its power_off to its power_on.
    std::vector<std::pair<Seconds, Seconds>> recharges;
    Seconds off = 0.0;
    for (const obs::TraceEvent &e : telem.sink->events()) {
        if (e.name == "power_off") {
            off = e.tsUs * 1e-6;
        } else if (e.name == "power_on") {
            recharges.emplace_back(off, e.tsUs * 1e-6);
        }
    }
    ASSERT_EQ(recharges.size(), stats.outages);
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
