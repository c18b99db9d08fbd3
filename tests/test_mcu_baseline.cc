/**
 * @file
 * Tests for the intermittent-MCU baseline (docs/BASELINES.md): the
 * EhScheme policies and their factory, the op-stream construction,
 * the harvested runner (including the Clank watchdog path), the
 * fault-injection conformance campaigns, the SweepGrid `schemes`
 * axis (decode order and radix-1 back-compat), the runner's
 * system dispatch with thread-count byte-identity, telemetry parity
 * with the MOUSE runners, and the typed errors through the run API.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "baseline/mcu/datasheet.hh"
#include "baseline/mcu/eh_scheme.hh"
#include "baseline/mcu/mcu_model.hh"
#include "baseline/selector.hh"
#include "exp/names.hh"
#include "exp/runner.hh"
#include "inject/mcu_campaign.hh"

namespace mouse
{
namespace
{

// -- Schemes and their factory --------------------------------------

TEST(EhScheme, FactoryCoversEveryListedName)
{
    const auto &names = mcu::ehSchemeNames();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "bec");
    EXPECT_EQ(names[3], "oracle");
    for (const std::string &n : names) {
        const auto scheme = mcu::makeEhScheme(n);
        ASSERT_NE(scheme, nullptr) << n;
        EXPECT_EQ(scheme->name(), n);
    }
    EXPECT_EQ(mcu::makeEhScheme("mementos"), nullptr);
    EXPECT_EQ(mcu::makeEhScheme(""), nullptr);
}

TEST(EhScheme, CostStructureMatchesTheDatasheet)
{
    const auto oracle = mcu::makeEhScheme("oracle");
    const auto bec = mcu::makeEhScheme("bec");
    const auto odab = mcu::makeEhScheme("odab");
    const auto clank = mcu::makeEhScheme("clank");
    // Oracle: free and perfect.
    EXPECT_EQ(oracle->perOpEnergy(), 0.0);
    EXPECT_EQ(oracle->backupEnergy(), 0.0);
    EXPECT_EQ(oracle->restoreEnergy(), 0.0);
    // BEC pays on every op, nothing at the outage.
    EXPECT_DOUBLE_EQ(bec->perOpEnergy(), mcu::kBecBackupEnergy);
    EXPECT_EQ(bec->backupEnergy(), 0.0);
    // ODAB pays just-in-time at the outage (the reserved headroom).
    EXPECT_EQ(odab->perOpEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(odab->backupEnergy(), mcu::kOdabBackupEnergy);
    // Clank monitors every op and checkpoints region boundaries.
    EXPECT_GT(clank->perOpEnergy(), 0.0);
    EXPECT_DOUBLE_EQ(clank->checkpointEnergy(),
                     mcu::kClankCheckpointEnergy);
}

TEST(EhScheme, ResumeSemanticsSplitCycleVsRegionSchemes)
{
    const auto w = inject::makeCampaignWorkload("gates");
    ASSERT_TRUE(w.has_value());
    const mcu::McuProgram prog =
        mcu::mcuProgramFromProgram(w->program, 8);
    ASSERT_GT(prog.totalOps, 16u);
    const std::uint64_t cut = prog.totalOps - 1;
    for (const char *exact : {"bec", "odab", "oracle"}) {
        EXPECT_EQ(mcu::makeEhScheme(exact)->resumeOp(prog, cut), cut)
            << exact;
    }
    // Clank rolls back to the enclosing region boundary.
    const std::uint64_t resumed =
        mcu::makeEhScheme("clank")->resumeOp(prog, cut);
    EXPECT_LE(resumed, cut);
    EXPECT_EQ(resumed, prog.regionStart(cut - 1));
}

// -- Op streams -----------------------------------------------------

TEST(McuOpStream, ProgramStreamKeepsInstructionCoordinates)
{
    const auto w = inject::makeCampaignWorkload("gates");
    ASSERT_TRUE(w.has_value());
    const mcu::McuProgram prog = mcu::mcuProgramFromProgram(w->program);
    EXPECT_EQ(prog.totalOps, w->program.instructions.size());
    ASSERT_FALSE(prog.blockStart.empty());
    EXPECT_EQ(prog.blockStart.front(), 0u);
    EXPECT_EQ(prog.blockStart.back(), prog.totalOps);
    EXPECT_GT(prog.totalEnergy, 0.0);
    EXPECT_GT(prog.totalSeconds, 0.0);
    // Default Clank placement: uniform regions from op 0.
    ASSERT_FALSE(prog.checkpoints.empty());
    EXPECT_EQ(prog.checkpoints.front(), 0u);
    EXPECT_EQ(prog.regionStart(0), 0u);
    for (std::uint64_t op = 1; op < prog.totalOps; ++op) {
        EXPECT_GE(prog.regionStart(op), prog.regionStart(op - 1));
        EXPECT_LE(prog.regionStart(op), op);
    }
}

TEST(McuOpStream, BundleCostsScaleWithTheWordSerialLoop)
{
    // Every bundle prices ops * (per-instruction energy, cycles).
    const mcu::McuCost one = mcu::mcuCostFor(1);
    EXPECT_DOUBLE_EQ(one.energy, mcu::kInstructionEnergy);
    const mcu::McuCost ten = mcu::mcuCostFor(10);
    EXPECT_DOUBLE_EQ(ten.energy, 10.0 * one.energy);
    EXPECT_DOUBLE_EQ(ten.seconds, 10.0 * one.seconds);
}

// -- The model ------------------------------------------------------

mcu::McuProgram
gatesProgram(unsigned clankRegionOps = 0)
{
    const auto w = inject::makeCampaignWorkload("gates");
    return mcu::mcuProgramFromProgram(w->program, clankRegionOps);
}

TEST(McuModel, ContinuousOverheadOrdering)
{
    const mcu::McuProgram prog = gatesProgram();
    const double oracle =
        mcu::mcuRunContinuous(prog, *mcu::makeEhScheme("oracle"))
            .totalEnergy();
    const double odab =
        mcu::mcuRunContinuous(prog, *mcu::makeEhScheme("odab"))
            .totalEnergy();
    const double bec =
        mcu::mcuRunContinuous(prog, *mcu::makeEhScheme("bec"))
            .totalEnergy();
    const double clank =
        mcu::mcuRunContinuous(prog, *mcu::makeEhScheme("clank"))
            .totalEnergy();
    // On wall power ODAB never backs up: it matches the oracle.
    EXPECT_DOUBLE_EQ(odab, oracle);
    // Continuous-backup and region schemes pay on every op.
    EXPECT_GT(bec, oracle);
    EXPECT_GT(clank, oracle);
    EXPECT_DOUBLE_EQ(prog.totalEnergy, oracle);
}

TEST(McuModel, HarvestedOracleIsTheLowerBound)
{
    const mcu::McuProgram prog = gatesProgram();
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(100e-6);
    harvest.capacitanceOverride = 10e-9;  // tiny buffer: outages
    const RunStats oracle = mcu::mcuRunHarvested(
        prog, *mcu::makeEhScheme("oracle"), harvest);
    EXPECT_EQ(oracle.instructionsCommitted, prog.totalOps);
    EXPECT_GT(oracle.outages, 0u);
    for (const char *name : {"bec", "odab", "clank"}) {
        const RunStats run = mcu::mcuRunHarvested(
            prog, *mcu::makeEhScheme(name), harvest);
        EXPECT_EQ(run.instructionsCommitted, prog.totalOps) << name;
        EXPECT_GE(run.totalEnergy(), oracle.totalEnergy()) << name;
    }
}

TEST(McuModel, HarvestedRunsAreBitwiseRepeatable)
{
    const mcu::McuProgram prog = gatesProgram();
    for (const SourceSpec &src :
         {SourceSpec::constant(100e-6),
          SourceSpec::square(0.01, 0.3, 200e-6)}) {
        HarvestConfig harvest;
        harvest.source = src;
        harvest.capacitanceOverride = 100e-9;
        const auto scheme = mcu::makeEhScheme("bec");
        const RunStats a =
            mcu::mcuRunHarvested(prog, *scheme, harvest);
        const RunStats b =
            mcu::mcuRunHarvested(prog, *scheme, harvest);
        EXPECT_EQ(toJson(a), toJson(b)) << src.name();
    }
}

TEST(McuModel, WatchdogBreaksRegionsLongerThanOneBurst)
{
    // One region costs far more than a full buffer delivers: without
    // the watchdog checkpoint Clank would replay the region head
    // forever.  100 ops at 10 uJ against a ~23 uJ window.
    mcu::McuProgram prog;
    mcu::McuBlock block;
    block.count = 100;
    block.per.energy = 10e-6;
    block.per.seconds = 1e-4;
    prog.blocks = {block};
    prog.blockStart = {0, 100};
    prog.totalOps = 100;
    prog.totalEnergy = 100 * block.per.energy;
    prog.totalSeconds = 100 * block.per.seconds;
    mcu::setCheckpoints(prog, {0, 32, 64, 96});

    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(1e-3);
    const auto clank = mcu::makeEhScheme("clank");
    const RunStats run = mcu::mcuRunHarvested(prog, *clank, harvest);
    EXPECT_EQ(run.instructionsCommitted, 100u);
    // The replayed region heads are Dead work; the forced
    // checkpoints are charged as backup energy.
    EXPECT_GT(run.instructionsDead, 0u);
    EXPECT_GT(run.backupEnergy, 0.0);
}

TEST(McuModel, BundleLargerThanTheBufferIsNonTerminating)
{
    // One 100 uJ bundle against the ~23 uJ default window: no burst
    // can commit it, and the run dies at the burst loop's one
    // non-termination check.
    mcu::McuProgram prog;
    mcu::McuBlock block;
    block.count = 3;
    block.per.energy = 100e-6;
    block.per.seconds = 1e-3;
    prog.blocks = {block};
    prog.blockStart = {0, 3};
    prog.totalOps = 3;
    prog.totalEnergy = 3 * block.per.energy;
    prog.totalSeconds = 3 * block.per.seconds;
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(60e-6);
    const auto bec = mcu::makeEhScheme("bec");
    EXPECT_EXIT(mcu::mcuRunHarvested(prog, *bec, harvest),
                ::testing::ExitedWithCode(1), "non-termination");
}

TEST(McuModel, TelemetryNeverChangesRunStats)
{
    const mcu::McuProgram prog = gatesProgram();
    HarvestConfig harvest;
    harvest.source = SourceSpec::square(1e-4, 0.3, 1e-6);
    harvest.capacitanceOverride = 10e-9;
    for (const std::string &name : mcu::ehSchemeNames()) {
        const auto scheme = mcu::makeEhScheme(name);
        obs::Telemetry on = obs::Telemetry::make(
            {.stats = true, .events = true, .waveform = true});
        const RunStats plain =
            mcu::mcuRunHarvested(prog, *scheme, harvest);
        const RunStats traced =
            mcu::mcuRunHarvested(prog, *scheme, harvest, &on);
        EXPECT_GT(plain.outages, 0u) << name;
        EXPECT_EQ(toJson(traced), toJson(plain)) << name;
        EXPECT_EQ(on.stats->findCounter("sim.outage.count")->value(),
                  plain.outages)
            << name;
        EXPECT_FALSE(on.sink->events().empty()) << name;

        obs::Telemetry cont = obs::Telemetry::make({.stats = true});
        EXPECT_EQ(toJson(mcu::mcuRunContinuous(prog, *scheme, &cont)),
                  toJson(mcu::mcuRunContinuous(prog, *scheme)))
            << name;
    }
}

// -- Fault-injection conformance ------------------------------------

TEST(McuCampaign, ExactResumeSchemesNeverReplay)
{
    const auto w = inject::makeCampaignWorkload("gates");
    ASSERT_TRUE(w.has_value());
    for (const char *name : {"bec", "odab", "oracle"}) {
        const inject::McuCampaignReport rep =
            inject::runMcuCampaign(*w, *mcu::makeEhScheme(name));
        EXPECT_TRUE(rep.clean()) << name;
        EXPECT_EQ(rep.replays, 0u) << name;
        // One single cut per op plus the 32 random schedules.
        EXPECT_EQ(rep.points, rep.totalOps + 32) << name;
        const auto match = static_cast<std::size_t>(
            inject::Verdict::kMatch);
        EXPECT_EQ(rep.verdicts[match], rep.points) << name;
    }
}

TEST(McuCampaign, ClankReexecutesButNeverCorrupts)
{
    const auto w = inject::makeCampaignWorkload("gates");
    ASSERT_TRUE(w.has_value());
    const inject::McuCampaignReport rep =
        inject::runMcuCampaign(*w, *mcu::makeEhScheme("clank"));
    EXPECT_TRUE(rep.clean());
    EXPECT_EQ(rep.points, rep.totalOps + 32);
    EXPECT_GT(rep.replays, 0u);
    const auto reex = static_cast<std::size_t>(
        inject::Verdict::kReexecuted);
    const auto corr = static_cast<std::size_t>(
        inject::Verdict::kCorrupted);
    EXPECT_GT(rep.verdicts[reex], 0u);
    EXPECT_EQ(rep.verdicts[corr], 0u);
    // The JSON is the deterministic campaign document.
    const std::string j = rep.toJson();
    EXPECT_NE(j.find("\"report\":\"mcu_campaign\""),
              std::string::npos);
    EXPECT_NE(j.find("\"clean\":true"), std::string::npos);
}

// -- Selector parsing -----------------------------------------------

TEST(BaselineSelector, SpellingsAndRejections)
{
    BaselineSelector sel;
    EXPECT_TRUE(parseBaselineSelector("", &sel));
    EXPECT_EQ(sel.system, BaselineSystem::kMouse);
    EXPECT_TRUE(parseBaselineSelector("mouse", &sel));
    EXPECT_EQ(sel.system, BaselineSystem::kMouse);
    EXPECT_TRUE(parseBaselineSelector("mcu:clank", &sel));
    EXPECT_EQ(sel.system, BaselineSystem::kMcu);
    EXPECT_EQ(sel.scheme, "clank");
    EXPECT_TRUE(parseBaselineSelector("sonic", &sel));
    EXPECT_EQ(sel.system, BaselineSystem::kSonic);

    std::string why;
    EXPECT_FALSE(parseBaselineSelector("mcu:mementos", &sel, &why));
    EXPECT_FALSE(why.empty());
    EXPECT_FALSE(parseBaselineSelector("mcu", &sel));
    EXPECT_FALSE(parseBaselineSelector("MOUSE", &sel));

    const auto names = baselineSelectorNames();
    ASSERT_EQ(names.size(), 6u);
    EXPECT_EQ(names.front(), "mouse");
    EXPECT_EQ(names.back(), "sonic");
    for (const std::string &n : names) {
        EXPECT_TRUE(parseBaselineSelector(n, &sel)) << n;
    }
}

// -- The SweepGrid schemes axis -------------------------------------

exp::SweepGrid
schemeGrid()
{
    exp::SweepGrid grid;
    grid.techs = {TechConfig::ModernStt};
    grid.benchmarks = {exp::paperBenchmarks()[3]};  // SVM ADULT
    grid.powers = {60e-6};
    grid.seedsPerPoint = 2;
    grid.schemes = {"mouse", "mcu:bec", "sonic"};
    return grid;
}

TEST(SweepGrid, SchemesAxisMultipliesTheSizeProduct)
{
    exp::SweepGrid grid = schemeGrid();
    EXPECT_EQ(grid.size(), 1u * 1u * 1u * 1u * 2u * 3u);
    grid.schemes.clear();
    EXPECT_EQ(grid.size(), 2u);
}

TEST(SweepGrid, SchemesDecodeBetweenPlatformAndBenchmark)
{
    const exp::SweepGrid grid = schemeGrid();
    // seedSlot is the fastest axis (radix 2 here), so the scheme
    // flips every two indices: 0,1 -> mouse; 2,3 -> mcu:bec; ...
    for (std::size_t i = 0; i < grid.size(); ++i) {
        const exp::SweepPoint p = grid.at(i);
        EXPECT_EQ(p.scheme, grid.schemes[(i / 2) % 3]) << i;
        EXPECT_EQ(p.seedSlot, i % 2) << i;
    }
}

TEST(SweepGrid, EmptySchemesAxisKeepsHistoricalPoints)
{
    // Radix-1 back-compat: a grid that never names schemes decodes
    // exactly as before the axis existed — same coordinates, same
    // derived seeds, scheme empty (= MOUSE).
    exp::SweepGrid with = schemeGrid();
    with.schemes = {"mouse"};
    exp::SweepGrid without = schemeGrid();
    without.schemes.clear();
    ASSERT_EQ(with.size(), without.size());
    for (std::size_t i = 0; i < without.size(); ++i) {
        const exp::SweepPoint a = with.at(i);
        const exp::SweepPoint b = without.at(i);
        EXPECT_TRUE(b.scheme.empty());
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.benchmark, b.benchmark);
        EXPECT_EQ(a.seedSlot, b.seedSlot);
    }
}

// -- Runner dispatch ------------------------------------------------

TEST(Runner, UnknownSchemeIsATypedPointError)
{
    exp::SweepGrid grid = schemeGrid();
    grid.seedsPerPoint = 1;
    grid.schemes = {"mcu:bogus"};
    const exp::ExperimentRunner runner(1);
    const exp::SweepResult res = runner.run(grid);
    ASSERT_EQ(res.points.size(), 1u);
    EXPECT_FALSE(res.points[0].ok());
    EXPECT_EQ(res.points[0].error, RunError::kBaselineSchemeUnknown);
}

TEST(Runner, SonicWithoutCalibrationIsATypedPointError)
{
    // SONIC's calibration covers SVM MNIST and SVM HAR; asking for
    // it on ADULT must fail the point, not the process.
    exp::SweepGrid grid = schemeGrid();
    grid.seedsPerPoint = 1;
    grid.schemes = {"sonic"};
    const exp::ExperimentRunner runner(1);
    const exp::SweepResult res = runner.run(grid);
    ASSERT_EQ(res.points.size(), 1u);
    EXPECT_EQ(res.points[0].error, RunError::kBaselineSchemeUnknown);
}

TEST(Runner, SystemDispatchIsByteIdenticalAcrossThreadCounts)
{
    exp::SweepGrid grid = schemeGrid();
    grid.seedsPerPoint = 1;
    grid.schemes = {"mouse", "mcu:bec", "mcu:clank", "mcu:oracle"};
    grid.sources = {SourceSpec::constant(60e-6)};
    grid.powers.clear();
    grid.platforms = {"mementos"};

    const exp::SweepResult one = exp::ExperimentRunner(1).run(grid);
    const exp::SweepResult four = exp::ExperimentRunner(4).run(grid);
    ASSERT_EQ(one.points.size(), grid.size());
    ASSERT_EQ(four.points.size(), one.points.size());
    for (std::size_t i = 0; i < one.points.size(); ++i) {
        const RunResult &a = one.points[i];
        const RunResult &b = four.points[i];
        ASSERT_TRUE(a.ok()) << i;
        EXPECT_EQ(toJson(a.stats), toJson(b.stats)) << i;
        EXPECT_EQ(a.meta.system, b.meta.system);
        EXPECT_EQ(a.meta.scheme, b.meta.scheme);
        EXPECT_EQ(a.meta.seed, b.meta.seed);
    }
    // The metadata names the dispatched system.
    EXPECT_EQ(one.points[0].meta.system, "mouse");
    EXPECT_EQ(one.points[1].meta.system, "mcu");
    EXPECT_EQ(one.points[1].meta.scheme, "bec");
    // The MCU pays orders of magnitude more energy than MOUSE for
    // the same workload (the Figure-9 headline).
    EXPECT_GT(one.points[1].stats.totalEnergy(),
              one.points[0].stats.totalEnergy() * 10);
}

TEST(Runner, McuSweepTelemetryFoldsIdenticallyAtAnyThreadCount)
{
    exp::SweepGrid grid = schemeGrid();
    grid.seedsPerPoint = 1;
    grid.schemes = {"mcu:bec", "mcu:odab", "mcu:clank", "mcu:oracle"};
    grid.sources = {SourceSpec::constant(60e-6),
                    SourceSpec::square(0.01, 0.3, 200e-6)};
    grid.powers.clear();
    grid.platforms = {"mementos"};
    grid.telemetry.stats = true;

    const exp::SweepResult one = exp::ExperimentRunner(1).run(grid);
    const exp::SweepResult four = exp::ExperimentRunner(4).run(grid);
    ASSERT_TRUE(one.stats && four.stats);
    EXPECT_EQ(one.stats->toJson(), four.stats->toJson());
    std::uint64_t outages = 0;
    for (const RunResult &r : one.points) {
        ASSERT_TRUE(r.ok());
        ASSERT_TRUE(r.statsTree) << r.meta.scheme;
        outages += r.stats.outages;
    }
    EXPECT_GT(outages, 0u);
    EXPECT_EQ(one.stats->findCounter("sim.outage.count")->value(),
              outages);
}

// -- The run API path -----------------------------------------------

MouseConfig
smallConfig()
{
    MouseConfig cfg;
    cfg.tech = TechConfig::ProjectedStt;
    cfg.array.tileRows = 128;
    cfg.array.tileCols = 8;
    cfg.array.numDataTiles = 2;
    cfg.array.numInstructionTiles = 512;
    return cfg;
}

Program
adderProgram(const Accelerator &acc)
{
    KernelBuilder kb(acc.gateLibrary(), acc.config().array, 0, 16);
    kb.activate(0, 3);
    const Word a = kb.pinnedWord(0, 4);
    const Word b = kb.pinnedWord(8, 4);
    (void)kb.add(a, b);
    return kb.finish();
}

TEST(RunApi, UnknownBaselineSchemeIsRejected)
{
    RunRequest req;
    req.baseline = "mcu:mementos";
    EXPECT_EQ(validateRunRequest(req),
              RunError::kBaselineSchemeUnknown);
    // SONIC has no benchmark identity at this layer.
    req.baseline = "sonic";
    EXPECT_EQ(validateRunRequest(req),
              RunError::kBaselineSchemeUnknown);
    req.baseline = "mouse";
    EXPECT_EQ(validateRunRequest(req), RunError::kNone);
}

TEST(RunApi, McuBaselineExecutesTheLoadedProgram)
{
    Accelerator acc(smallConfig());
    const Program prog = adderProgram(acc);
    acc.loadProgram(prog);
    const RunRequest req =
        RunRequestBuilder().baselineScheme("mcu:bec").build();
    const RunResult res = acc.execute(req);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.meta.system, "mcu");
    EXPECT_EQ(res.meta.scheme, "bec");
    EXPECT_EQ(res.stats.instructionsCommitted,
              prog.instructions.size());
    const std::string j = res.toJson();
    EXPECT_NE(j.find("\"system\":\"mcu\""), std::string::npos);
    EXPECT_NE(j.find("\"scheme\":\"bec\""), std::string::npos);
}

TEST(RunApi, DefaultRequestsReportTheMouseSystem)
{
    Accelerator acc(smallConfig());
    acc.loadProgram(adderProgram(acc));
    const RunResult res = acc.execute(RunRequest{});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.meta.system, "mouse");
    EXPECT_TRUE(res.meta.scheme.empty());
    EXPECT_NE(res.toJson().find("\"system\":\"mouse\""),
              std::string::npos);
}

TEST(RunApi, McuTelemetryTreeMatchesItsRunStats)
{
    Accelerator acc(smallConfig());
    acc.loadProgram(adderProgram(acc));
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(100e-6);
    harvest.capacitanceOverride = 10e-9;
    const RunRequest req = RunRequestBuilder()
                               .harvested(harvest)
                               .baselineScheme("mcu:bec")
                               .telemetry({.stats = true})
                               .build();
    const RunResult res = acc.execute(req);
    ASSERT_TRUE(res.ok());
    ASSERT_TRUE(res.statsTree);
    EXPECT_GT(res.stats.outages, 0u);
    EXPECT_EQ(res.statsTree->findCounter("sim.outage.count")->value(),
              res.stats.outages);
    EXPECT_EQ(res.statsTree->findCounter("sim.instr.dead")->value(),
              res.stats.instructionsDead);
    EXPECT_EQ(res.statsTree->findCounter("sim.instr.committed")->value(),
              res.stats.instructionsCommitted);
}

TEST(RunApi, FunctionalRunWithoutAProgramIsATypedErrorOnBothSystems)
{
    Accelerator acc(smallConfig());
    for (const char *system : {"mouse", "mcu:bec"}) {
        const RunResult res =
            acc.execute(RunRequestBuilder().baselineScheme(system).build());
        EXPECT_EQ(res.error, RunError::kProgramMissing) << system;
        EXPECT_FALSE(res.meta.tech.empty());
    }
    EXPECT_STREQ(runErrorName(RunError::kProgramMissing),
                 "program_missing");
    // Loading a program clears the verdict.
    acc.loadProgram(adderProgram(acc));
    EXPECT_TRUE(acc.execute(RunRequest{}).ok());
}

} // namespace
} // namespace mouse
