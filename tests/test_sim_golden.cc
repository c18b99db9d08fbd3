/**
 * @file
 * Golden characterisation of the five simulator entry points and of
 * the compiled paper traces they run.
 *
 * Every case pins its RunStats bit-exactly (hex floats) and the
 * stats-tree JSON of a rerun with every telemetry channel on, which
 * must also reproduce the plain run's RunStats.  The harvested paper
 * grid is pinned by one digest of every RunStats field per
 * benchmark.  Every paper trace is pinned by a digest of its blocks,
 * gate queries/answers and mapping facts.  The expected values
 * live in tests/golden/sim_golden.txt, one "<case> <kind> <value>"
 * line each.  To re-pin an intended change, run the binary directly
 * (one process) with MOUSE_GOLDEN_OUT=<file> set; it appends every
 * computed line there, ready to replace the golden file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>

#include "compile/builder.hh"
#include "compile/fft.hh"
#include "exp/names.hh"
#include "exp/workloads.hh"
#include "sim/simulator.hh"

namespace mouse
{
namespace
{

std::string
hexStats(const RunStats &s)
{
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "committed=%llu dead=%llu outages=%llu active=%a deadT=%a "
        "restoreT=%a charging=%a compute=%a backup=%a deadE=%a "
        "restoreE=%a idle=%a",
        static_cast<unsigned long long>(s.instructionsCommitted),
        static_cast<unsigned long long>(s.instructionsDead),
        static_cast<unsigned long long>(s.outages), s.activeTime,
        s.deadTime, s.restoreTime, s.chargingTime, s.computeEnergy,
        s.backupEnergy, s.deadEnergy, s.restoreEnergy, s.idleEnergy);
    return buf;
}

/** FNV-1a over 64-bit words: a stable digest across hosts. */
class Digest
{
  public:
    Digest &
    add(std::uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xFF;
            hash_ *= 0x100000001b3ull;
        }
        return *this;
    }

    Digest &
    add(double value)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof(bits));
        return add(bits);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** "blocks=<n> instr=<n> digest=<hex>" over every block of @p trace,
 *  its gate queries and answers, then @p extra's words. */
std::string
traceLine(const Trace &trace, const Digest &extra)
{
    Digest d;
    for (const TraceBlock &b : trace.blocks) {
        d.add(static_cast<std::uint64_t>(b.op))
            .add(static_cast<std::uint64_t>(b.touchedCols))
            .add(static_cast<std::uint64_t>(b.activeColsAfter))
            .add(b.count);
    }
    d.add(static_cast<std::uint64_t>(trace.gateQueries))
        .add(static_cast<std::uint64_t>(trace.gateAnswers))
        .add(extra.value());
    char buf[96];
    std::snprintf(buf, sizeof(buf), "blocks=%zu instr=%llu digest=%016llx",
                  trace.blocks.size(),
                  static_cast<unsigned long long>(
                      trace.totalInstructions()),
                  static_cast<unsigned long long>(d.value()));
    return buf;
}

/** A paper benchmark's trace line, mapping facts included. */
std::string
paperTraceLine(const GateLibrary &lib, const exp::Benchmark &bench)
{
    MappingInfo info;
    const Trace trace = exp::traceFor(lib, bench, &info);
    Digest facts;
    facts.add(static_cast<std::uint64_t>(info.elementsPerColumn))
        .add(static_cast<std::uint64_t>(info.colsPerUnit))
        .add(info.unitsPerBatch)
        .add(static_cast<std::uint64_t>(info.batches))
        .add(info.peakActiveColumns)
        .add(info.dataMB)
        .add(info.instrMB);
    return traceLine(trace, facts);
}

/** The pinned lines, keyed by "<case> <kind>". */
const std::map<std::string, std::string> &
golden()
{
    static const std::map<std::string, std::string> lines = [] {
        std::map<std::string, std::string> m;
        std::ifstream in(MOUSE_GOLDEN_DIR "/sim_golden.txt");
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t kind = line.find(' ');
            const std::size_t value = line.find(' ', kind + 1);
            if (kind != std::string::npos &&
                value != std::string::npos) {
                m[line.substr(0, value)] = line.substr(value + 1);
            }
        }
        return m;
    }();
    return lines;
}

void
expectGolden(const std::string &key, const std::string &actual)
{
    const auto it = golden().find(key);
    EXPECT_TRUE(it != golden().end()) << "no golden line for " << key;
    if (it != golden().end()) {
        EXPECT_EQ(actual, it->second) << key;
    }
    if (const char *out = std::getenv("MOUSE_GOLDEN_OUT")) {
        std::ofstream(out, std::ios::app) << key << ' ' << actual
                                          << '\n';
    }
}

/** Shared workload: the 8-bit multiply in 4 SIMD columns. */
class SimGolden : public ::testing::Test
{
  protected:
    SimGolden()
        : lib_(makeDeviceConfig(TechConfig::ProjectedStt)),
          energy_(lib_)
    {
        cfg_.tileRows = 128;
        cfg_.tileCols = 8;
        cfg_.numDataTiles = 1;
        cfg_.numInstructionTiles = 512;
        KernelBuilder kb(lib_, cfg_, 0, 24);
        kb.activate(0, 3);
        const Word a = kb.pinnedWord(0, 6);
        const Word b = kb.pinnedWord(12, 6);
        kb.mulUnsigned(a, b);
        prog_ = kb.finish();
        trace_ = Trace::fromProgram(prog_, cfg_);
        // A long run-length block so harvested bursts span many
        // identical instructions.
        trace_.append(Opcode::kGateNand2, 4, 4, 2000);
        // Wide gates for tens of milliseconds, long enough to reach
        // the weak phases of the time-varying sources, in blocks short
        // enough that each burst re-samples the source.
        Trace wide;
        wide.append(Opcode::kGateNand2, 128, 128, 1000);
        wide.append(Opcode::kGateNor2, 1024, 128, 1000);
        long_ = trace_;
        long_.appendTrace(wide, 915);
    }

    /** Run @p fn on a freshly loaded and seeded machine. */
    RunStats
    onMachine(const std::function<RunStats(Controller &)> &fn,
              bool *halted = nullptr)
    {
        TileGrid grid(cfg_, lib_);
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
        InstructionMemory imem(cfg_);
        imem.load(prog_.encode());
        Controller ctrl(grid, imem, energy_);
        const RunStats stats = fn(ctrl);
        if (halted != nullptr) {
            *halted = ctrl.halted();
        }
        return stats;
    }

    /**
     * Pin @p run's RunStats, and the stats tree of a rerun with all
     * telemetry on (which must not move the RunStats).
     */
    void
    check(const std::string &name,
          const std::function<RunStats(obs::Telemetry *)> &run)
    {
        const std::string plain = hexStats(run(nullptr));
        obs::Telemetry telem = obs::Telemetry::make(
            {.stats = true, .events = true, .waveform = true});
        const std::string traced = hexStats(run(&telem));
        EXPECT_EQ(traced, plain)
            << name << ": telemetry changed the RunStats";
        expectGolden(name + " stats", plain);
        expectGolden(name + " tree", telem.stats->toJson());
    }

    static OutageSchedule
    schedule()
    {
        OutageSchedule s;
        s.points = {{3, MicroStep::kExecute, 0.5},
                    {10, MicroStep::kFetch, 0.2},
                    {11, MicroStep::kCommit, 0.9},
                    {40, MicroStep::kWritePc, 0.5},
                    {41, MicroStep::kExecute, 0.25}};
        return s;
    }

    GateLibrary lib_;
    ArrayConfig cfg_;
    EnergyModel energy_;
    Program prog_;
    Trace trace_;
    Trace long_;
};

TEST_F(SimGolden, Continuous)
{
    check("continuous_trace", [&](obs::Telemetry *t) {
        return runContinuousTrace(trace_, energy_, t);
    });
    check("continuous_functional", [&](obs::Telemetry *t) {
        return onMachine([&](Controller &ctrl) {
            return runContinuousFunctional(ctrl, t);
        });
    });
}

TEST_F(SimGolden, HarvestedTrace)
{
    // A paper trace on the technology's buffer: thousands of
    // outages, most of them inside long blocks on a constant source,
    // where the plain run skips repeated bursts.
    const Trace mnist = exp::traceFor(lib_, exp::paperBenchmarks()[0]);
    const struct
    {
        const char *label;
        SourceSpec source;
        const Trace &trace;
        Farads capacitance;
    } sources[] = {
        // 2 nF forces outages; 0 keeps the technology's buffer.
        {"constant", SourceSpec::constant(1e-6), trace_, 2e-9},
        {"square", SourceSpec::square(0.01, 0.3, 200e-6), long_, 2e-9},
        {"rf-bursty", SourceSpec::corpusTrace("rf-bursty"), long_, 2e-9},
        {"mnist-60uw", SourceSpec::constant(60e-6), mnist, 0.0},
    };
    for (const auto &[label, source, trace, capacitance] : sources) {
        for (unsigned period : {1u, 8u}) {
            HarvestConfig h;
            h.source = source;
            h.capacitanceOverride = capacitance;
            h.checkpointPeriod = period;
            const std::string name = std::string("harvested_trace/") +
                                     label + "/p" +
                                     std::to_string(period) + "/empty";
            check(name, [&](obs::Telemetry *t) {
                return runHarvestedTrace(trace, energy_, h, t);
            });
        }
    }
}

TEST_F(SimGolden, HarvestedFunctional)
{
    const std::pair<const char *, SourceSpec> sources[] = {
        {"constant", SourceSpec::constant(0.1e-6)},
        {"square", SourceSpec::square(4e-6, 0.25, 1e-6)},
    };
    for (const auto &[label, source] : sources) {
        HarvestConfig h;
        h.source = source;
        h.capacitanceOverride = 1e-9;  // real outages
        h.seed = 7;
        check(std::string("harvested_functional/") + label,
              [&](obs::Telemetry *t) {
                  return onMachine([&](Controller &ctrl) {
                      return runHarvestedFunctional(ctrl, h, t);
                  });
              });
    }
}

TEST_F(SimGolden, ScheduledFunctional)
{
    const auto scheduled = [&](const std::string &name,
                               const OutageSchedule &s,
                               std::uint64_t maxAttempts,
                               bool wantHalted) {
        check("scheduled/" + name, [&](obs::Telemetry *t) {
            bool halted = false;
            const RunStats stats = onMachine(
                [&](Controller &ctrl) {
                    return runScheduledFunctional(ctrl, s, maxAttempts,
                                                  t);
                },
                &halted);
            EXPECT_EQ(halted, wantHalted) << name;
            return stats;
        });
    };

    scheduled("journal", schedule(), 0, true);

    OutageSchedule broken = schedule();
    broken.restoreJournal = false;
    scheduled("no_journal", broken, 0, true);

    OutageSchedule window = schedule();
    window.checkpointPeriod = 4;
    scheduled("window4", window, 0, true);

    OutageSchedule explicitCps = schedule();
    explicitCps.checkpointPeriod = 4;
    explicitCps.checkpoints = {0, 8, 30};
    scheduled("checkpoints", explicitCps, 0, true);

    scheduled("max_attempts", schedule(), 25, false);
}

TEST(SimGoldenTraces, PaperBenchmarks)
{
    // Every paper benchmark on every technology at the default and a
    // looser gate margin, which answers some feasibility queries
    // differently (Modern STT's OR2).  The paper kernels never ask
    // those, so today each benchmark's six lines share one digest.
    const std::pair<const char *, double> margins[] = {
        {"default", kDefaultGateMargin},
        {"m0.03", 0.03},
    };
    const auto &benches = exp::paperBenchmarks();
    for (TechConfig tech : names::allTechs()) {
        for (const auto &[margin_label, margin] : margins) {
            const GateLibrary lib(makeDeviceConfig(tech), margin);
            for (std::size_t i = 0; i < benches.size(); ++i) {
                expectGolden("trace/" + names::listBenchmarks()[i] +
                                 "/" + names::techName(tech) + "/" +
                                 margin_label + " trace",
                             paperTraceLine(lib, benches[i]));
            }
        }
    }
}

TEST(SimGoldenGrid, PaperGridRunStats)
{
    // The harvested paper grid the burst loop skips repeated bursts
    // on: per benchmark, 3 techs x 2 margins x 7 powers x periods
    // {1, 2, 8, 64, 256} x {technology buffer, mementos}, 420 runs
    // digested over every RunStats field.
    const double margins[] = {kDefaultGateMargin, 0.03};
    const auto &benches = exp::paperBenchmarks();
    for (std::size_t i = 0; i < benches.size(); ++i) {
        Digest d;
        std::uint64_t runs = 0;
        for (TechConfig tech : names::allTechs()) {
            for (const double margin : margins) {
                const GateLibrary lib(makeDeviceConfig(tech), margin);
                const EnergyModel energy(lib);
                const Trace trace = exp::traceFor(lib, benches[i]);
                for (const Watts power : exp::powerSweep()) {
                    for (const unsigned period : {1u, 2u, 8u, 64u, 256u}) {
                        for (const char *platform : {"", "mementos"}) {
                            HarvestConfig h;
                            h.source = SourceSpec::constant(power);
                            h.checkpointPeriod = period;
                            h.platform = platform;
                            const RunStats s =
                                runHarvestedTrace(trace, energy, h);
                            d.add(s.instructionsCommitted)
                                .add(s.instructionsDead)
                                .add(s.outages)
                                .add(s.activeTime)
                                .add(s.deadTime)
                                .add(s.restoreTime)
                                .add(s.chargingTime)
                                .add(s.computeEnergy)
                                .add(s.backupEnergy)
                                .add(s.deadEnergy)
                                .add(s.restoreEnergy)
                                .add(s.idleEnergy);
                            ++runs;
                        }
                    }
                }
            }
        }
        char buf[64];
        std::snprintf(buf, sizeof(buf), "runs=%llu digest=%016llx",
                      static_cast<unsigned long long>(runs),
                      static_cast<unsigned long long>(d.value()));
        expectGolden("paper_grid/" + names::listBenchmarks()[i] +
                         " stats",
                     buf);
    }
}

TEST(SimGoldenTraces, ParasiticWiresPlaceNearOperands)
{
    // Logic-line parasitics turn placement locality on, so every
    // output row comes from the allocator's near-anchor path.
    const GateLibrary lib(withParasitics(
        makeDeviceConfig(TechConfig::ProjectedStt), 2.0));
    ASSERT_TRUE(
        KernelBuilder(lib, ArrayConfig{}, 0, 0).placementLocality());
    expectGolden("trace/mnist/projected-stt-wired/default trace",
                 paperTraceLine(lib, exp::paperBenchmarks()[0]));
}

TEST(SimGoldenTraces, Fft)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    FftMappingInfo info;
    const Trace trace =
        buildFftTrace(lib, FftWorkload{}, 448ull * 1024, 1024, &info);
    Digest facts;
    facts.add(static_cast<std::uint64_t>(info.stages))
        .add(info.butterfliesPerStage)
        .add(info.peakActiveColumns)
        .add(info.totalInstructions);
    expectGolden("trace/fft1024/projected-stt/default trace",
                 traceLine(trace, facts));
}

} // namespace
} // namespace mouse
