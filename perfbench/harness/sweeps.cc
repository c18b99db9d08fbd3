/**
 * @file
 * The sweep workloads: paper_sweep and harvest_matrix.
 *
 * Both run rounds of one exp::SweepGrid through ExperimentRunner::run
 * for the timed phase.  The traced run then replays every grid point
 * serially through the same public calls the runner makes (gate
 * library, traceFor, the sim trace runners, the MCU op stream and
 * runners), rebuilding each point with SweepGrid::at/harvestFor, and
 * checks that the replayed RunStats equal the timed ones bit for bit.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>

#include "baseline/mcu/mcu_model.hh"
#include "baseline/selector.hh"
#include "exp/runner.hh"
#include "harness/spans.hh"
#include "harness/workloads.hh"

namespace perfbench
{

namespace
{

using namespace mouse;

/** Power bins of the seeded paper_sweep axis between 60 uW and 5 mW
 *  (even, so the bins pair up). */
constexpr std::size_t kPowerBins = 8;

/**
 * paper_sweep: 3 techs x 6 paper benchmarks x (8 seeded powers +
 * continuous) x 2 checkpoint periods x 2 gate margins, on constant
 * sources.  One power is drawn in each of eight equal log-space bins,
 * so every seed covers the whole 60 uW - 5 mW range.  Bins pair up
 * from the ends inward with mirrored offsets (u and 1 - u), which
 * keeps the mean log power, and with it the geometric-mean simulated
 * latency, nearly seed-independent while the points themselves move.
 */
exp::SweepGrid
paperSweepGrid(std::uint64_t seed)
{
    exp::SweepGrid g;
    g.techs = {TechConfig::ModernStt, TechConfig::ProjectedStt,
               TechConfig::ProjectedShe};
    g.benchmarks = exp::paperBenchmarks();
    Rng rng(seed);
    const double lo = std::log(60e-6);
    const double width = (std::log(5e-3) - lo) / kPowerBins;
    std::vector<double> offset(kPowerBins);
    for (std::size_t k = 0; k < kPowerBins / 2; ++k) {
        offset[k] = rng.uniform();
        offset[kPowerBins - 1 - k] = 1.0 - offset[k];
    }
    g.powers.clear();
    for (std::size_t k = 0; k < kPowerBins; ++k) {
        g.powers.push_back(std::exp(
            lo + (static_cast<double>(k) + offset[k]) * width));
    }
    g.powers.push_back(exp::kContinuousPower);
    g.checkpointPeriods = {1, 8};
    g.margins = {kDefaultGateMargin, 0.03};
    g.rootSeed = seed;
    return g;
}

/**
 * harvest_matrix: SVM HAR x {mouse, mcu:bec, mcu:clank} x five
 * sources on the mementos platform.  The constant source is drawn
 * within +-2% of 60 uW so that each seed's inputs differ; the
 * time-varying sources are fixed.  sonic is left out (it is due for
 * deletion), and every point here terminates.
 */
exp::SweepGrid
harvestMatrixGrid(std::uint64_t seed)
{
    exp::SweepGrid g;
    g.techs = {TechConfig::ModernStt};
    g.benchmarks = {exp::paperBenchmarks()[2]};
    g.schemes = {"mouse", "mcu:bec", "mcu:clank"};
    Rng rng(seed);
    g.sources = {
        SourceSpec::constant(60e-6 * (1.0 + 0.04 * (rng.uniform() - 0.5))),
        SourceSpec::corpusTrace("solar-day-night"),
        SourceSpec::corpusTrace("rf-bursty"),
        SourceSpec::corpusTrace("piezo-impulse"),
        SourceSpec::square(0.01, 0.3, 200e-6),
    };
    g.platforms = {"mementos"};
    g.rootSeed = seed;
    return g;
}

std::string
inputDigest(const exp::SweepGrid &g)
{
    Digest d;
    d.add(static_cast<std::uint64_t>(g.size()));
    d.add(g.rootSeed);
    for (TechConfig t : g.techs) {
        d.add(static_cast<std::uint64_t>(t));
    }
    for (const auto &b : g.benchmarks) {
        d.add(b.name);
    }
    for (Watts p : g.powers) {
        d.add(p);
    }
    for (const SourceSpec &s : g.sources) {
        d.add(s.name());
        d.add(s.meanPower());
    }
    for (const std::string &s : g.schemes) {
        d.add(s);
    }
    for (const std::string &s : g.platforms) {
        d.add(s);
    }
    for (unsigned c : g.checkpointPeriods) {
        d.add(static_cast<std::uint64_t>(c));
    }
    for (double m : g.margins) {
        d.add(m);
    }
    return d.hex();
}

void
addStats(Digest &d, const RunStats &s)
{
    d.add(s.instructionsCommitted);
    d.add(s.instructionsDead);
    d.add(s.outages);
    for (double v : {s.activeTime, s.deadTime, s.restoreTime,
                     s.chargingTime, s.computeEnergy, s.backupEnergy,
                     s.deadEnergy, s.restoreEnergy, s.idleEnergy}) {
        d.add(v);
    }
}

/** Point-wise result of a sweep, as the timed and replayed runs both
 *  produce it. */
struct PointResult
{
    RunStats stats;
    bool ok = true;
    bool mouse = true;
};

std::string
resultDigest(const std::vector<PointResult> &points)
{
    Digest d;
    for (std::size_t i = 0; i < points.size(); ++i) {
        d.add(static_cast<std::uint64_t>(i));
        d.add(static_cast<std::uint64_t>(points[i].ok ? 1 : 0));
        addStats(d, points[i].stats);
    }
    return d.hex();
}

std::vector<PointResult>
fromSweep(const exp::SweepResult &res)
{
    std::vector<PointResult> out(res.points.size());
    for (std::size_t i = 0; i < res.points.size(); ++i) {
        out[i].stats = res.points[i].stats;
        out[i].ok = res.points[i].ok();
        out[i].mouse = res.points[i].meta.system == "mouse";
    }
    return out;
}

/** Run @p f inside span @p name; returns the span's duration (0 when
 *  the tracer is disabled). */
template <typename F>
double
span(Tracer &t, const char *name, F &&f)
{
    const int id = t.begin(name);
    f();
    t.end(id);
    return id < 0 ? 0.0
                  : t.spans()[static_cast<std::size_t>(id)].duration();
}

/**
 * Serial replay of every grid point through the public layer calls
 * ExperimentRunner::run makes, in the same order.  A harvested point
 * is followed (outside its exp.point span) by a continuous run of the
 * same trace or op stream, which prices the harvesting overhead.
 */
std::vector<PointResult>
replaySweep(const exp::SweepGrid &grid, Tracer &tr)
{
    const int root = tr.begin("exp.sweep");
    const std::size_t nmargin = grid.margins.size();
    const std::size_t nctx = grid.techs.size() * nmargin;
    std::vector<std::unique_ptr<GateLibrary>> libs(nctx);
    std::vector<std::unique_ptr<EnergyModel>> energies(nctx);
    for (std::size_t i = 0; i < nctx; ++i) {
        span(tr, "logic.solve", [&] {
            libs[i] = std::make_unique<GateLibrary>(
                makeDeviceConfig(grid.techs[i / nmargin]),
                grid.margins[i % nmargin]);
        });
        tr.count("logic.solves");
        energies[i] = std::make_unique<EnergyModel>(*libs[i]);
    }
    const std::size_t nbench = grid.benchmarks.size();
    std::vector<Trace> traces(nctx * nbench);
    for (std::size_t i = 0; i < traces.size(); ++i) {
        span(tr, "compile.trace", [&] {
            traces[i] = exp::traceFor(*libs[i / nbench],
                                      grid.benchmarks[i % nbench]);
        });
        tr.count("compile.traces");
        tr.count("compile.instructions",
                 static_cast<double>(traces[i].totalInstructions()));
    }

    const std::size_t total = grid.size();
    const std::size_t perTech = total / grid.techs.size();
    std::vector<PointResult> out(total);
    for (std::size_t i = 0; i < total; ++i) {
        const exp::SweepPoint point = grid.at(i);
        const std::size_t margin = (i / grid.seedsPerPoint) % nmargin;
        const std::size_t ctx = (i / perTech) * nmargin + margin;
        const Trace &trace = traces[ctx * nbench + point.benchmark];
        const bool harvested = !point.continuous();
        PointResult &r = out[i];
        BaselineSelector sel;
        const int pointSpan = tr.begin("exp.point");
        if (!parseBaselineSelector(point.scheme, &sel) ||
            sel.system == BaselineSystem::kSonic) {
            r.ok = false;
            tr.end(pointSpan);
            continue;
        }
        if (sel.system == BaselineSystem::kMcu) {
            r.mouse = false;
            const auto scheme = mcu::makeEhScheme(sel.scheme);
            mcu::McuProgram mp;
            span(tr, "baseline.op_stream", [&] {
                mp = mcu::mcuProgramFromTrace(
                    trace, point.checkpointPeriod > 1
                               ? point.checkpointPeriod
                               : 0);
            });
            const double busy = span(tr, "baseline.run", [&] {
                r.stats = harvested
                              ? mcu::mcuRunHarvested(
                                    mp, *scheme, grid.harvestFor(point))
                              : mcu::mcuRunContinuous(mp, *scheme);
            });
            tr.end(pointSpan);
            tr.count("baseline.instr",
                     static_cast<double>(r.stats.instructionsCommitted +
                                         r.stats.instructionsDead));
            tr.count("baseline.dead",
                     static_cast<double>(r.stats.instructionsDead));
            tr.count("baseline.outages",
                     static_cast<double>(r.stats.outages));
            if (harvested) {
                const double ref = span(tr, "baseline.reference", [&] {
                    (void)mcu::mcuRunContinuous(mp, *scheme);
                });
                tr.count("baseline.overhead_s", busy - ref);
                tr.count("harvest.sim_s", r.stats.totalTime());
                tr.count("harvest.host_s", busy);
            }
            continue;
        }
        const EnergyModel &energy = *energies[ctx];
        const double busy = span(tr, "sim.run", [&] {
            r.stats = harvested
                          ? runHarvestedTrace(trace, energy,
                                              grid.harvestFor(point))
                          : runContinuousTrace(trace, energy);
        });
        tr.end(pointSpan);
        tr.count("sim.instr",
                 static_cast<double>(r.stats.instructionsCommitted +
                                     r.stats.instructionsDead));
        tr.count("sim.dead", static_cast<double>(r.stats.instructionsDead));
        tr.count("sim.outages", static_cast<double>(r.stats.outages));
        if (harvested) {
            const double ref = span(tr, "harvest.reference", [&] {
                (void)runContinuousTrace(trace, energy);
            });
            tr.count("harvest.overhead_s", busy - ref);
            tr.count("harvest.sim_s", r.stats.totalTime());
            tr.count("harvest.host_s", busy);
        }
    }
    tr.end(root);
    return out;
}

double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** Per-layer metrics read off a traced replay. */
void
reportReplay(const Tracer &tr, Report &rep)
{
    const double sims = static_cast<double>(tr.spanCount("sim.run"));
    const double mcus = static_cast<double>(tr.spanCount("baseline.run"));
    rep.add("logic.solves", tr.counter("logic.solves"), "count", 1);
    rep.add("logic.solve_ms", tr.total("logic.solve") * 1e3, "ms",
            tr.spanCount("logic.solve"));
    rep.add("compile.traces", tr.counter("compile.traces"), "count", 1);
    rep.add("compile.trace_ms", tr.total("compile.trace") * 1e3, "ms",
            tr.spanCount("compile.trace"));
    rep.add("compile.instructions", tr.counter("compile.instructions"),
            "count", 1);
    rep.add("sim.runs", sims, "count", 1);
    rep.add("sim.busy_s", tr.total("sim.run"), "s",
            tr.spanCount("sim.run"));
    rep.add("sim.ns_per_instr",
            ratio(tr.total("sim.run"), tr.counter("sim.instr")) * 1e9,
            "ns", tr.spanCount("sim.run"));
    rep.add("sim.outages", tr.counter("sim.outages"), "count", 1);
    rep.add("sim.us_per_outage",
            ratio(tr.counter("harvest.overhead_s"),
                  tr.counter("sim.outages")) *
                1e6,
            "us", tr.spanCount("harvest.reference"),
            "harvested minus continuous host time, per outage");
    rep.add("sim.dead_frac",
            ratio(tr.counter("sim.dead"), tr.counter("sim.instr")),
            "fraction", 1);
    rep.add("harvest.overhead_s", tr.counter("harvest.overhead_s"), "s",
            tr.spanCount("harvest.reference"));
    rep.add("harvest.sim_s_per_host_s",
            ratio(tr.counter("harvest.sim_s"), tr.counter("harvest.host_s")),
            "s/s",
            tr.spanCount("harvest.reference") +
                tr.spanCount("baseline.reference"));
    rep.add("baseline.op_stream_ms", tr.total("baseline.op_stream") * 1e3,
            "ms", tr.spanCount("baseline.op_stream"));
    rep.add("baseline.runs", mcus, "count", 1);
    rep.add("baseline.busy_s", tr.total("baseline.run"), "s",
            tr.spanCount("baseline.run"));
    rep.add("baseline.overhead_s", tr.counter("baseline.overhead_s"), "s",
            tr.spanCount("baseline.reference"));
    rep.add("baseline.us_per_outage",
            ratio(tr.counter("baseline.overhead_s"),
                  tr.counter("baseline.outages")) *
                1e6,
            "us", tr.spanCount("baseline.reference"),
            "harvested minus continuous host time, per outage");
    rep.add("baseline.dead_frac",
            ratio(tr.counter("baseline.dead"), tr.counter("baseline.instr")),
            "fraction", 1);
}

/** Wall-time ratio of a fixed paper_sweep subset with every telemetry
 *  channel on versus off (median of three alternating pairs). */
double
telemetryTax()
{
    exp::SweepGrid g;
    g.techs = {TechConfig::ModernStt};
    g.benchmarks = {exp::paperBenchmarks()[2], exp::paperBenchmarks()[3]};
    g.powers = {100e-6, 1e-3, exp::kContinuousPower};
    const exp::ExperimentRunner runner(1);
    std::vector<double> ratios;
    for (int rep = 0; rep < 3; ++rep) {
        g.telemetry = obs::TraceConfig{};
        auto t0 = std::chrono::steady_clock::now();
        (void)runner.run(g);
        const double off = since(t0);
        g.telemetry.stats = g.telemetry.events = g.telemetry.waveform =
            true;
        t0 = std::chrono::steady_clock::now();
        (void)runner.run(g);
        ratios.push_back(ratio(since(t0), off));
    }
    return median(ratios);
}

/** The paper's shape checks; returns the number of failing points. */
std::uint64_t
shapeChecks(const exp::SweepGrid &g, const std::vector<PointResult> &r,
            bool paperSweep, Outcome &out)
{
    std::uint64_t bad = 0;
    const std::size_t total = r.size();
    for (std::size_t i = 0; i < total; ++i) {
        const exp::SweepPoint p = g.at(i);
        if (p.continuous() &&
            (r[i].stats.outages != 0 || r[i].stats.chargingTime != 0.0)) {
            ++bad;
            out.check(false, "continuous point " + std::to_string(i) +
                                 " has outages or charging time");
        }
    }
    if (paperSweep) {
        // Tech is the slowest axis: the same coordinates on the next
        // tech are perTech indices further on.
        const std::size_t perTech = total / g.techs.size();
        for (std::size_t i = 0; i < perTech; ++i) {
            const double modern = r[i].stats.totalTime();
            const double projected = r[i + perTech].stats.totalTime();
            const double she = r[i + 2 * perTech].stats.totalTime();
            // Projected STT and SHE share a cycle time, so they tie
            // wherever a run is compute-bound (continuous power, or a
            // harvester strong enough that charging never dominates).
            if (!(modern > projected && projected >= she)) {
                ++bad;
                const exp::SweepPoint p = g.at(i);
                out.check(false,
                          "latency order Modern STT > Projected STT >= "
                          "SHE fails for " +
                              g.benchmarks[p.benchmark].name + " at " +
                              num(p.power) + " W, period " +
                              std::to_string(p.checkpointPeriod) +
                              ", margin " + num(p.margin) + ": " +
                              num(modern) + " / " + num(projected) +
                              " / " + num(she) + " s");
            }
        }
        return bad;
    }
    // harvest_matrix: MOUSE below every MCU scheme on every source,
    // in both latency and energy.
    for (std::size_t i = 0; i < total; ++i) {
        const exp::SweepPoint p = g.at(i);
        if (p.scheme != "mouse") {
            continue;
        }
        for (std::size_t j = 0; j < total; ++j) {
            const exp::SweepPoint q = g.at(j);
            if (q.scheme == "mouse" || q.sourceSlot != p.sourceSlot) {
                continue;
            }
            if (!(r[i].stats.totalTime() < r[j].stats.totalTime() &&
                  r[i].stats.totalEnergy() < r[j].stats.totalEnergy())) {
                ++bad;
                out.check(false, "MOUSE is not below " + q.scheme +
                                     " on source " + p.source.name());
            }
        }
    }
    return bad;
}

} // namespace

void
runSweepWorkload(const Options &opt, Outcome &out)
{
    const bool paper = opt.workload == "paper_sweep";
    const exp::SweepGrid grid =
        paper ? paperSweepGrid(opt.seed) : harvestMatrixGrid(opt.seed);
    out.inputDigest = inputDigest(grid);
    const exp::ExperimentRunner runner(opt.threads);
    // A sweep's latency is how long ExperimentRunner::run takes over
    // the whole grid, which is what its caller waits for.  Per-point
    // figures do not hold still: on harvest_matrix eleven points take
    // 1-25 ms and four 0.4-6 s, so the median point's completion time,
    // or its own host time, spread up to 0.4 across seeds on a shared
    // 4-core host.
    SegmentedTail latency(kLatencySegment, {0.5, 0.99});
    out.setupDone(opt);
    if (opt.setupOnly) {
        return;
    }

    const auto measureStart = std::chrono::steady_clock::now();
    std::size_t rounds = 0;
    double wall = 0.0;
    std::vector<double> roundWall;
    double pointBusy = 0.0;
    std::vector<double> pointWall;
    std::vector<PointResult> first;
    do {
        const auto roundStart = std::chrono::steady_clock::now();
        const exp::SweepResult res = runner.run(grid);
        roundWall.push_back(since(roundStart));
        latency.add(roundWall.back());
        wall += roundWall.back();
        ++rounds;
        for (const RunResult &r : res.points) {
            if (opt.trace) {
                pointWall.push_back(r.wallSeconds);
            }
            pointBusy += r.wallSeconds;
            out.attempted += 1;
            out.failed += r.ok() ? 0 : 1;
        }
        std::vector<PointResult> pts = fromSweep(res);
        if (rounds == 1) {
            first = std::move(pts);
            out.resultDigest = resultDigest(first);
        } else if (resultDigest(pts) != out.resultDigest) {
            out.check(false, "round " + std::to_string(rounds) +
                                 " results differ from round 1");
        }
    } while (since(measureStart) < opt.seconds);
    const std::uint64_t shapeFailures =
        shapeChecks(grid, first, paper, out);
    out.failed += shapeFailures;

    std::vector<double> simLatency;
    std::vector<double> simEnergy;
    for (const PointResult &p : first) {
        if (p.mouse) {
            simLatency.push_back(p.stats.totalTime());
            simEnergy.push_back(p.stats.totalEnergy() * 1e6);
        }
    }
    out.notes.push_back("grid: " + std::to_string(grid.size()) +
                        " points x " + std::to_string(rounds) +
                        " rounds on " + std::to_string(runner.threads()) +
                        " threads");

    if (!opt.trace) {
        Report &rep = out.report;
        // Rates use the median round, so a transient stall on a shared
        // host moves them less than a total would.
        const double perSecond =
            static_cast<double>(grid.size()) / median(roundWall);
        rep.add("points_per_s", perSecond, "1/s", rounds,
                "grid points per host second, median round");
        rep.add("throughput_rps", perSecond, "1/s", rounds,
                "one simulated inference per grid point");
        addLatency(rep, latency, "ExperimentRunner::run over the grid");
        rep.add("sim_latency_s", geomean(simLatency), "s",
                simLatency.size(), "geomean over MOUSE points");
        rep.add("sim_energy_uj", geomean(simEnergy), "uJ",
                simEnergy.size(), "geomean over MOUSE points");
        return;
    }

    Report &rep = out.report;
    rep.add("exp.points", static_cast<double>(pointWall.size()), "count",
            rounds);
    rep.add("exp.point_p50_ms", median(pointWall) * 1e3, "ms",
            pointWall.size());
    rep.add("exp.point_max_s",
            *std::max_element(pointWall.begin(), pointWall.end()), "s",
            pointWall.size());
    rep.add("exp.idle_frac",
            1.0 - pointBusy / (static_cast<double>(runner.threads()) * wall),
            "fraction", rounds, "1 - point busy / (threads x round wall)");

    // Serial replays, untraced and traced: the same calls, so the
    // wall-time difference is what recording the spans costs.  Every
    // replay must reproduce the threaded run bit for bit.
    Tracer tracer(true);
    std::size_t replays = 0;
    const double overhead = measureTraceOverhead(
        [&](Tracer &t) {
            const std::string d = resultDigest(replaySweep(grid, t));
            out.check(d == out.resultDigest,
                      "serial replay " + std::to_string(++replays) +
                          " digest " + d + " differs from the threaded run");
        },
        tracer);
    reportReplay(tracer, rep);
    rep.add("obs.trace_overhead_frac", overhead, "fraction", 4,
            "traced / untraced serial replay - 1");
    if (paper) {
        rep.add("obs.telemetry_tax_x", telemetryTax(), "x", 3,
                "SweepGrid.telemetry all on / off, fixed subset");
    }
    out.notes.push_back("traced replay, by span:\n" + tracer.summary());
    if (!opt.traceOut.empty()) {
        std::ofstream(opt.traceOut) << tracer.chromeJson();
        out.notes.push_back("trace written to " + opt.traceOut);
    }
}

} // namespace perfbench
