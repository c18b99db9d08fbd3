/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: gate
 * operating-point solving, tile-level functional execution (gates
 * and presets), the controller step loop of a serving program,
 * trace compilation (traceFor) of the paper benchmarks and of a
 * whole sweep round (compileTraces),
 * trace-level simulation throughput, and the parallel experiment
 * engine's points/sec on the full Figure-9 grid (serial vs N
 * threads), and the serving layer's per-batch pack and weight
 * deploy.  These guard against performance regressions that would
 * make the Figure 9 sweeps impractical.
 */

#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.hh"
#include "compile/builder.hh"
#include "controller/controller.hh"
#include "serve/demo.hh"
#include "serve/models.hh"
#include "sim/simulator.hh"
#include "workloads.hh"

using namespace mouse;

namespace
{

void
BM_SolveGateLibrary(benchmark::State &state)
{
    const DeviceConfig cfg = makeDeviceConfig(TechConfig::ModernStt);
    for (auto _ : state) {
        GateLibrary lib(cfg);
        benchmark::DoNotOptimize(&lib);
    }
}
BENCHMARK(BM_SolveGateLibrary);

/**
 * A 1024x1024 tile whose first eight rows hold seeded random bits, so
 * the gate rows below see every input combination and both output
 * states.
 */
Tile
benchTile()
{
    Tile tile(1024, 1024);
    Rng rng(1);
    for (RowAddr r = 0; r < 8; ++r) {
        for (ColAddr c = 0; c < 1024; ++c) {
            tile.setBit(r, c, static_cast<Bit>(rng.below(2)));
        }
    }
    return tile;
}

/** Gate @p g of @p tech in the first state.range(0) columns; its
 *  inputs sit on the even rows 0, 2, 4 and its output on row 1. */
void
runTileGate(benchmark::State &state, GateType g,
            TechConfig tech = TechConfig::ProjectedStt)
{
    const GateLibrary lib(makeDeviceConfig(tech));
    Tile tile = benchTile();
    ColumnSet cols(1024);
    cols.addRange(0, static_cast<ColAddr>(state.range(0) - 1));
    for (auto _ : state) {
        auto r = tile.executeGate(lib, g, {0, 2, 4}, 1, cols);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["columns_per_gate"] =
        static_cast<double>(state.range(0));
}

/** Tile gate cost by width: 4 columns is the paper's 60 µW operating
 *  point, where the fixed per-call cost dominates; 1024 is a full
 *  row. */
void
BM_TileGateExecution(benchmark::State &state)
{
    runTileGate(state, GateType::kNand2);
}
BENCHMARK(BM_TileGateExecution)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024);

/** The same at the largest arity: 8 input combos per word.  MAJ3 is
 *  feasible on the SHE technology only. */
void
BM_TileGateExecutionMaj3(benchmark::State &state)
{
    runTileGate(state, GateType::kMaj3, TechConfig::ProjectedShe);
}
BENCHMARK(BM_TileGateExecutionMaj3)->Arg(4)->Arg(64)->Arg(1024);

/**
 * The retained per-column scalar model (the differential-test
 * oracle) on the identical workload.  The items/sec ratio against
 * BM_TileGateExecution is the word-parallel speedup; CI checks it
 * stays machine-independently large (tools/check_bench_regression.py).
 */
void
BM_TileGateExecutionScalar(benchmark::State &state)
{
    Tile::setScalarOracle(true);
    runTileGate(state, GateType::kNand2);
    Tile::setScalarOracle(false);
}
BENCHMARK(BM_TileGateExecutionScalar)->Arg(16)->Arg(256)->Arg(1024);

/** Row preset (the write pulse ahead of every gate) by width. */
void
BM_TilePresetRow(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    Tile tile = benchTile();
    ColumnSet cols(1024);
    cols.addRange(0, static_cast<ColAddr>(state.range(0) - 1));
    Bit value = 0;
    for (auto _ : state) {
        Joules e = tile.presetRow(lib, 1, value, cols);
        benchmark::DoNotOptimize(e);
        value ^= 1;
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["columns_per_gate"] =
        static_cast<double>(state.range(0));
}
BENCHMARK(BM_TilePresetRow)->Arg(4)->Arg(1024);

/** The serve engine geometry of bench_serve_saturation. */
ArrayConfig
serveArray()
{
    ArrayConfig cfg;
    cfg.tileRows = 512;
    cfg.tileCols = 1024;
    cfg.numDataTiles = 1;
    cfg.numInstructionTiles = 4096;
    return cfg;
}

/** The demo BNN (@p bnn) or SVM compiled for serveArray(). */
serve::PackedModel
demoModel(const GateLibrary &lib, bool bnn)
{
    return bnn ? serve::PackedModel::compileBnn(lib, serveArray(), 0,
                                                serve::demoBnn(1))
               : serve::PackedModel::compileSvm(lib, serveArray(), 0,
                                                serve::demoSvm(2));
}

/** Pack a full batch of the demo model: a seeded random request in
 *  every slot.  Items are packed requests. */
void
BM_ServePack(benchmark::State &state, bool bnn)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    const serve::PackedModel model = demoModel(lib, bnn);
    TileGrid grid(serveArray(), lib);
    model.deployWeights(grid);
    Rng rng(1);
    std::vector<serve::Input> inputs;
    for (unsigned s = 0; s < model.slots(); ++s) {
        inputs.push_back(serve::randomInput(rng, model));
    }
    for (auto _ : state) {
        for (unsigned s = 0; s < model.slots(); ++s) {
            model.packInput(grid, s, inputs[s]);
        }
        benchmark::DoNotOptimize(&grid);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * model.slots());
}
BENCHMARK_CAPTURE(BM_ServePack, bnn, true)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ServePack, svm, false)->Unit(benchmark::kMicrosecond);

/** Deploy the demo model's weights into every slot, as an engine
 *  does on a model switch.  Items are deploys. */
void
BM_ServeDeploy(benchmark::State &state, bool bnn)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    const serve::PackedModel model = demoModel(lib, bnn);
    TileGrid grid(serveArray(), lib);
    for (auto _ : state) {
        model.deployWeights(grid);
        benchmark::DoNotOptimize(&grid);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ServeDeploy, bnn, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ServeDeploy, svm, false)
    ->Unit(benchmark::kMicrosecond);

/**
 * The controller step loop over the demo SVM serving program,
 * compiled and deployed as the serving layer does it, with every
 * slot holding a seeded random request.  Items are controller steps.
 */
void
BM_ControllerStepServeSvm(benchmark::State &state)
{
    const ArrayConfig cfg = serveArray();
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    const serve::PackedModel model = demoModel(lib, false);
    const EnergyModel energy(lib);
    TileGrid grid(cfg, lib);
    InstructionMemory imem(cfg);
    imem.load(model.program().encode());
    model.deployWeights(grid);
    Rng rng(1);
    for (unsigned s = 0; s < model.slots(); ++s) {
        model.packInput(grid, s, serve::randomInput(rng, model));
    }
    Controller ctrl(grid, imem, energy);
    std::int64_t steps = 0;
    for (auto _ : state) {
        ctrl.reset();
        while (!ctrl.halted()) {
            StepResult r = ctrl.step();
            benchmark::DoNotOptimize(r);
            ++steps;
        }
    }
    state.SetItemsProcessed(steps);
    state.counters["steps_per_run"] = static_cast<double>(
        steps / std::max<std::int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_ControllerStepServeSvm)->Unit(benchmark::kMicrosecond);

void
BM_FunctionalAdder(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    ArrayConfig cfg;
    cfg.tileRows = 128;
    cfg.tileCols = 8;
    cfg.numDataTiles = 1;
    cfg.numInstructionTiles = 64;
    KernelBuilder kb(lib, cfg, 0, 20);
    kb.activate(0, 7);
    Word s = kb.add(kb.pinnedWord(0, 4), kb.pinnedWord(8, 4));
    (void)s;
    const Program prog = kb.finish();
    const EnergyModel energy(lib);
    for (auto _ : state) {
        TileGrid grid(cfg, lib);
        InstructionMemory imem(cfg);
        imem.load(prog.encode());
        Controller ctrl(grid, imem, energy);
        while (!ctrl.halted()) {
            ctrl.step();
        }
        benchmark::DoNotOptimize(&grid);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(prog.size()));
}
BENCHMARK(BM_FunctionalAdder);

/**
 * TracePowerSource::power() lookup cost as the segment count grows.
 * The lookup is an O(log n) upper_bound over precomputed segment
 * start times; this point keeps it from regressing back to O(n).
 */
void
BM_TracePowerSourceQuery(benchmark::State &state)
{
    std::vector<TracePowerSource::Segment> segs;
    for (std::int64_t i = 0; i < state.range(0); ++i) {
        segs.push_back(
            {1e-3 + 1e-5 * static_cast<double>(i % 7),
             static_cast<double>(i % 3) * 1e-4});
    }
    const TracePowerSource src(segs);
    Seconds t = 0.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(src.power(t));
        t += 1.7e-4;
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["segments"] =
        static_cast<double>(state.range(0));
}
BENCHMARK(BM_TracePowerSourceQuery)->Arg(2)->Arg(16)->Arg(128);

/**
 * Compile layer: one traceFor() of a paper benchmark on Modern STT,
 * i.e. every measured kernel mix compiled plus the trace assembly.
 * Each capture names a benchmark and passes its paperBenchmarks()
 * index; items/s is traces compiled per second.
 */
void
BM_TraceFor(benchmark::State &state, std::size_t bench_index)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const bench::Benchmark &b = bench::paperBenchmarks()[bench_index];
    for (auto _ : state) {
        const Trace trace = bench::traceFor(lib, b);
        benchmark::DoNotOptimize(trace.blocks.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TraceFor, svm_mnist, 0)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_TraceFor, svm_adult, 3)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_TraceFor, bnn_finn, 4)
    ->Unit(benchmark::kMicrosecond);

/**
 * The compile phase of a paper sweep round on its own:
 * ExperimentRunner::compileTraces of the six paper benchmarks over
 * the six paper libraries (3 techs x margins {0.05, 0.03}), which
 * measures each distinct kernel once and assembles the traces.
 * Arg = worker threads; items/s is rounds per second.
 */
void
BM_CompileTraces(benchmark::State &state)
{
    std::vector<std::unique_ptr<GateLibrary>> owned;
    std::vector<const GateLibrary *> libs;
    for (TechConfig tech : names::allTechs()) {
        for (double margin : {0.05, 0.03}) {
            owned.push_back(std::make_unique<GateLibrary>(
                makeDeviceConfig(tech), margin));
            libs.push_back(owned.back().get());
        }
    }
    const std::vector<bench::Benchmark> &benchmarks =
        bench::paperBenchmarks();
    const exp::ExperimentRunner runner(
        static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const auto traces = runner.compileTraces(libs, benchmarks);
        benchmark::DoNotOptimize(traces.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompileTraces)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void
BM_HarvestedTraceSvmMnist(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    const auto benchmarks = bench::paperBenchmarks();
    const Trace trace = bench::traceFor(lib, benchmarks[0]);
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(60e-6);
    for (auto _ : state) {
        const RunStats s = runHarvestedTrace(trace, energy, harvest);
        benchmark::DoNotOptimize(s);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(trace.totalInstructions()));
}
BENCHMARK(BM_HarvestedTraceSvmMnist);

/**
 * The same harvested run with every telemetry channel recording
 * (stats + events + waveform).  An observed run runs every burst,
 * while the untraced run above skips the repeated bursts of the
 * constant source, so the delta is the telemetry plus the skipped
 * bursts, not the telemetry alone.  CI gates the ratio of the two:
 * a change that silently loses the skip fails it.
 */
void
BM_HarvestedTraceSvmMnistTraced(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);
    const auto benchmarks = bench::paperBenchmarks();
    const Trace trace = bench::traceFor(lib, benchmarks[0]);
    HarvestConfig harvest;
    harvest.source = SourceSpec::constant(60e-6);
    obs::TraceConfig cfg;
    cfg.stats = true;
    cfg.events = true;
    cfg.waveform = true;
    for (auto _ : state) {
        obs::Telemetry telem = obs::Telemetry::make(cfg);
        const RunStats s =
            runHarvestedTrace(trace, energy, harvest, &telem);
        benchmark::DoNotOptimize(s);
        benchmark::DoNotOptimize(telem.stats.get());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(trace.totalInstructions()));
}
BENCHMARK(BM_HarvestedTraceSvmMnistTraced);

/**
 * The full Figure-9 grid (3 techs x 6 benchmarks x 7 powers = 126
 * points) through the ExperimentRunner.  Arg = worker threads;
 * Arg(1) is the serial baseline, so the ratio of the points_per_s
 * counters is the parallel speedup that lands in BENCH_*.json.
 */
void
BM_Fig9GridPoints(benchmark::State &state)
{
    exp::SweepGrid grid;
    grid.techs = names::allTechs();
    grid.benchmarks = exp::paperBenchmarks();
    grid.powers = exp::powerSweep();
    const exp::ExperimentRunner runner(
        static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        const exp::SweepResult res = runner.run(grid);
        benchmark::DoNotOptimize(res.points.data());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(grid.size()));
    state.counters["points_per_s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * grid.size()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fig9GridPoints)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    // The report's library_build_type is libbenchmark's own; record
    // the build type of the code under test beside it, so a baseline
    // says whether it came from an optimised build.
    benchmark::AddCustomContext("mouse_build_type", MOUSE_BUILD_TYPE);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
