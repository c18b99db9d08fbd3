/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: gate
 * operating-point solving, tile-level functional execution,
 * trace-level simulation throughput, and the parallel experiment
 * engine's points/sec on the full Figure-9 grid (serial vs N
 * threads).  These guard against performance regressions that would
 * make the Figure 9 sweeps impractical.
 */

#include <benchmark/benchmark.h>

#include "compile/builder.hh"
#include "controller/controller.hh"
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

void
BM_TileGateExecution(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    Tile tile(1024, 1024);
    ColumnSet cols(1024);
    cols.addRange(0, static_cast<ColAddr>(state.range(0) - 1));
    for (auto _ : state) {
        auto r = tile.executeGate(lib, GateType::kNand2, {0, 2, 0},
                                  1, cols);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["columns_per_gate"] =
        static_cast<double>(state.range(0));
}
BENCHMARK(BM_TileGateExecution)->Arg(16)->Arg(256)->Arg(1024);

/**
 * The retained per-column scalar model (the differential-test
 * oracle) on the identical workload.  The items/sec ratio against
 * BM_TileGateExecution is the word-parallel speedup; CI checks it
 * stays machine-independently large (tools/check_bench_regression.py).
 */
void
BM_TileGateExecutionScalar(benchmark::State &state)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    Tile tile(1024, 1024);
    ColumnSet cols(1024);
    cols.addRange(0, static_cast<ColAddr>(state.range(0) - 1));
    Tile::setScalarOracle(true);
    for (auto _ : state) {
        auto r = tile.executeGate(lib, GateType::kNand2, {0, 2, 0},
                                  1, cols);
        benchmark::DoNotOptimize(r);
    }
    Tile::setScalarOracle(false);
    state.SetItemsProcessed(state.iterations() * state.range(0));
    state.counters["columns_per_gate"] =
        static_cast<double>(state.range(0));
}
BENCHMARK(BM_TileGateExecutionScalar)->Arg(16)->Arg(256)->Arg(1024);

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
 * (stats + events + waveform).  The delta against
 * BM_HarvestedTraceSvmMnist is the full observability overhead; the
 * tracing-off run above must stay within noise of historical numbers
 * (telemetry is a null pointer there, so the hooks cost one
 * never-taken branch).
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

BENCHMARK_MAIN();
