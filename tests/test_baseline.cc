/**
 * @file
 * Tests for the comparison baselines: the SONIC model behind its
 * scheme entry points (baseline/sonic_scheme.hh) and the CPU
 * reference rows, including the cross-system orderings the paper's
 * Table IV and Figure 9 report.  Direct SonicModel construction is
 * confined to the differential test that pins the entry points to the
 * model (the mouse_lint sonic-model rule bans it elsewhere).
 */

#include <gtest/gtest.h>

#include "baseline/cpu.hh"
#include "baseline/sonic_scheme.hh"
#include "ml/mapping.hh"
#include "sim/simulator.hh"

namespace mouse
{
namespace
{

TEST(Sonic, ContinuousMatchesTableFour)
{
    const RunStats run = sonicRunContinuous(sonicMnist());
    EXPECT_DOUBLE_EQ(run.totalTime(), 2.74);
    EXPECT_DOUBLE_EQ(run.totalEnergy(), 27000e-6);

    EXPECT_DOUBLE_EQ(sonicRunContinuous(sonicHar()).totalTime(),
                     1.10);
}

TEST(Sonic, HarvestedLatencyFallsWithPower)
{
    const SonicBenchmark mnist = sonicMnist();
    Seconds prev = 1e18;
    for (Watts p : {60e-6, 500e-6, 5e-3}) {
        const RunStats run = sonicRunHarvested(mnist, p);
        EXPECT_LT(run.totalTime(), prev);
        prev = run.totalTime();
    }
}

TEST(Sonic, StrongSourceSustainsContinuousOperation)
{
    // The MNIST active power is ~9.9 mW; a 20 mW source never cuts.
    const RunStats run = sonicRunHarvested(sonicMnist(), 20e-3);
    EXPECT_EQ(run.outages, 0u);
    EXPECT_DOUBLE_EQ(run.totalTime(), 2.74);
}

TEST(Sonic, WeakSourceIsChargingDominated)
{
    const RunStats run = sonicRunHarvested(sonicMnist(), 60e-6);
    EXPECT_GT(run.chargingTime, 100.0);  // ~27 mJ / 60 uW ~ 450 s
    EXPECT_GT(run.chargingTime, run.activeTime * 10);
    EXPECT_GT(run.outages, 0u);
    EXPECT_GT(run.deadEnergy, 0.0);
}

TEST(SonicScheme, BenchmarkLookupMatchesPaperSpellings)
{
    ASSERT_TRUE(sonicBenchmarkFor("SVM MNIST").has_value());
    EXPECT_EQ(sonicBenchmarkFor("SVM MNIST")->name,
              sonicMnist().name);
    ASSERT_TRUE(sonicBenchmarkFor("SVM HAR").has_value());
    EXPECT_EQ(sonicBenchmarkFor("SVM HAR")->name, sonicHar().name);
    EXPECT_FALSE(sonicBenchmarkFor("SVM ADULT").has_value());
    EXPECT_FALSE(sonicBenchmarkFor("no such benchmark").has_value());
}

TEST(SonicScheme, BitIdenticalToDirectModel)
{
    // The differential pin: the scheme entry points must reproduce
    // the direct model exactly, or retiring the free-floating call
    // sites silently changed published numbers.
    for (const auto &sb : {sonicMnist(), sonicHar()}) {
        // mouse-lint: allow(sonic-model) -- the differential test
        // needs the direct model as its reference.
        const SonicModel model(sb);
        const RunStats direct_c = model.runContinuous();
        const RunStats scheme_c = sonicRunContinuous(sb);
        EXPECT_DOUBLE_EQ(scheme_c.totalTime(), direct_c.totalTime());
        EXPECT_DOUBLE_EQ(scheme_c.totalEnergy(),
                         direct_c.totalEnergy());
        EXPECT_EQ(scheme_c.instructionsCommitted,
                  direct_c.instructionsCommitted);

        for (Watts p : {60e-6, 500e-6, 5e-3}) {
            const RunStats direct_h = model.runHarvested(p);
            const RunStats scheme_h = sonicRunHarvested(sb, p);
            EXPECT_DOUBLE_EQ(scheme_h.totalTime(),
                             direct_h.totalTime());
            EXPECT_DOUBLE_EQ(scheme_h.totalEnergy(),
                             direct_h.totalEnergy());
            EXPECT_EQ(scheme_h.outages, direct_h.outages);
            EXPECT_DOUBLE_EQ(scheme_h.chargingTime,
                             direct_h.chargingTime);
            EXPECT_DOUBLE_EQ(scheme_h.deadEnergy,
                             direct_h.deadEnergy);
        }
    }

    // The model's active power identity rides along (Table IV).
    // mouse-lint: allow(sonic-model) -- activePower() is a model
    // member the entry points deliberately do not re-export.
    const SonicModel mnist(sonicMnist());
    EXPECT_NEAR(mnist.activePower(), 27000e-6 / 2.74, 1e-9);
}

TEST(Cpu, PaperRowsPresent)
{
    const auto rows = cpuSvmRows();
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[0].name, "MNIST");
    EXPECT_NEAR(rows[0].latency, 169824e-6, 1e-9);
    EXPECT_NEAR(rows[0].energy, 5094702e-6, 1e-9);
    EXPECT_EQ(rows[0].supportVectors, 11813u);

    const auto lib_rows = libSvmRows();
    ASSERT_EQ(lib_rows.size(), 4u);
    EXPECT_EQ(lib_rows[3].name, "ADULT");
    EXPECT_EQ(lib_rows[3].supportVectors, 15792u);
}

TEST(CrossSystem, MouseBeatsSonicOnEnergyAndLatency)
{
    // The paper's headline: orders-of-magnitude energy advantage and
    // lower latency even under much weaker power sources.
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    SvmWorkload work;
    work.name = "mnist";
    work.numSupportVectors = 11813;
    work.dim = 784;
    work.inputBits = 8;
    work.numClasses = 10;
    MouseShape shape;
    shape.numDataTiles = 448;
    const Trace trace = buildSvmTrace(lib, work, shape);
    const RunStats mouse_run = runContinuousTrace(trace, energy);

    const RunStats sonic_run = sonicRunContinuous(sonicMnist());

    EXPECT_LT(mouse_run.totalTime(), sonic_run.totalTime() / 10);
    EXPECT_LT(mouse_run.totalEnergy(), sonic_run.totalEnergy() / 5);

    // Under harvesting at 60 uW, MOUSE still finishes faster than
    // SONIC does at the same source (Figure 9).
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(60e-6);
    const RunStats mouse_h = runHarvestedTrace(trace, energy, harvest);
    const RunStats sonic_h = sonicRunHarvested(sonicMnist(), 60e-6);
    EXPECT_LT(mouse_h.totalTime(), sonic_h.totalTime());
}

TEST(CrossSystem, MouseBeatsCpuOnEnergy)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    SvmWorkload work;
    work.name = "adult";
    work.numSupportVectors = 1909;
    work.dim = 15;
    work.inputBits = 8;
    work.numClasses = 2;
    MouseShape shape;
    shape.numDataTiles = 7;
    const Trace trace = buildSvmTrace(lib, work, shape);
    const RunStats mouse_run = runContinuousTrace(trace, energy);
    // Table IV ADULT: CPU burns 131 mJ; MOUSE about 7 uJ.
    EXPECT_LT(mouse_run.totalEnergy(), 131052e-6 / 100);
}

} // namespace
} // namespace mouse
