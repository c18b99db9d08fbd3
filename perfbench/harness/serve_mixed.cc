/**
 * @file
 * The serving workload: serve_mixed.
 *
 * serve::InferenceService runs the demo BNN and SVM, 50/50, in two
 * phases.  An open loop submits seeded Poisson arrivals at a fixed
 * rate below capacity, one schedule window at a time, draining after
 * each window; every request is timed from its due time.  A saturated
 * phase then admits a whole request set and drains it, on a fresh
 * service each round, to measure throughput.
 *
 * The traced run replays the open loop's first batches, in order, on
 * one Accelerator through loadProgram, PackedModel::deployWeights /
 * packInput / readPrediction, Accelerator::execute and then once more
 * through Controller::step alone.  Both replays must reproduce the
 * timed run's simulated latency, energy and predictions exactly.
 */

#include <fstream>
#include <map>
#include <memory>
#include <thread>

#include "harness/open_loop.hh"
#include "harness/spans.hh"
#include "harness/workloads.hh"
#include "isa/instruction.hh"
#include "ml/bnn.hh"
#include "serve/demo.hh"
#include "serve/service.hh"

namespace perfbench
{

namespace
{

using namespace mouse;
using serve::ClassifyResult;
using serve::InferenceService;
using serve::Input;
using serve::ModelId;
using serve::PackedModel;

/** Open-loop arrival rate.  Each window's ~200 requests fill one SVM
 *  and one BNN batch, so a drain takes one SVM pass and the window
 *  leaves about three times that as headroom.  At 30000/s (five
 *  batches a window) a host slowed by half made drains outlast their
 *  windows, the backlog grew and p50 reached 0.6 s in some runs. */
constexpr double kArrivalRate = 10000.0;
/** Open-loop schedule window.  A request waits for the end of its
 *  window before it is submitted, so the window sets a latency floor
 *  of kWindow / 2 at p50 and close to kWindow at p99; the drain comes
 *  on top.  With 10 ms windows drains outlasted some windows. */
constexpr double kWindow = 0.020;
/** Share of --seconds given to the open loop; saturated rounds take
 *  the rest. */
constexpr double kOpenLoopShare = 0.3;
/** Requests admitted per saturated round. */
constexpr std::size_t kSaturatedSet = 32768;
/** Open-loop batches the traced run replays (the first ones), which
 *  keeps its five replays to a few seconds each. */
constexpr std::size_t kReplayBatches = 500;

serve::ServiceConfig
serviceConfig(unsigned workers)
{
    serve::ServiceConfig cfg;
    cfg.engine.tech = TechConfig::ProjectedStt;
    cfg.engine.array.tileRows = 512;
    cfg.engine.array.tileCols = 1024;
    cfg.engine.array.numDataTiles = 1;
    cfg.engine.array.numInstructionTiles = 4096;
    cfg.workers = workers;
    return cfg;
}

struct Request
{
    ModelId model = 0;
    Input in;
};

/** The two demo models plus their software reference. */
struct Models
{
    serve::BnnServeModel bnn = serve::demoBnn(1);
    serve::SvmServeModel svm = serve::demoSvm(2);
    ModelId bnnId = 0;
    ModelId svmId = 0;

    int
    predict(const Request &r) const
    {
        if (r.model == bnnId) {
            BnnModel m;
            m.output = bnn.layer;
            return m.predict(r.in);
        }
        return svm.svm.decision(r.in) > 0 ? 1 : 0;
    }
};

/** A service with both models registered and every engine warm. */
std::unique_ptr<InferenceService>
warmService(const serve::ServiceConfig &cfg, Models &models,
            double *addModelMs)
{
    auto svc = std::make_unique<InferenceService>(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    models.bnnId = svc->addModel(models.bnn);
    models.svmId = svc->addModel(models.svm);
    if (addModelMs != nullptr) {
        *addModelMs = since(t0) * 1e3;
    }
    // Engines are created and programs deployed on the first drain.
    Rng rng(99);
    svc->submit(models.bnnId,
                serve::randomInput(rng, svc->model(models.bnnId)));
    svc->submit(models.svmId,
                serve::randomInput(rng, svc->model(models.svmId)));
    svc->drain();
    return svc;
}

std::vector<Request>
makeRequests(Rng &rng, std::size_t n, const InferenceService &svc,
             const Models &models)
{
    std::vector<Request> out(n);
    for (Request &r : out) {
        r.model = rng.below(2) != 0 ? models.svmId : models.bnnId;
        r.in = serve::randomInput(rng, svc.model(r.model));
    }
    return out;
}

/** One open-loop batch as the service formed it. */
struct BatchPlan
{
    ModelId model = 0;
    /** Arrival index per slot. */
    std::vector<std::size_t> slots;
};

/** Replay the recorded batches; returns the number of mismatches
 *  against the timed run. */
std::uint64_t
replayServe(const serve::ServiceConfig &cfg, const InferenceService &svc,
            const std::vector<BatchPlan> &plan,
            const std::vector<Request> &reqs,
            const std::vector<const ClassifyResult *> &timed, Tracer &tr)
{
    std::uint64_t mismatches = 0;
    const int root = tr.begin("serve.replay");
    {
        Scope s(tr, "logic.solve");
        const GateLibrary lib(makeDeviceConfig(cfg.engine.tech),
                              cfg.engine.gateMargin);
    }
    tr.count("logic.solves");
    std::unique_ptr<Accelerator> acc;
    {
        Scope s(tr, "core.construct");
        acc = std::make_unique<Accelerator>(cfg.engine);
    }
    std::int64_t loaded = -1;
    for (const BatchPlan &b : plan) {
        const PackedModel &m = svc.model(b.model);
        const int batchSpan = tr.begin("serve.batch");
        if (loaded != static_cast<std::int64_t>(b.model)) {
            {
                Scope s(tr, "core.load_program");
                acc->loadProgram(m.program());
            }
            {
                Scope s(tr, "serve.deploy");
                m.deployWeights(acc->grid());
            }
            tr.count("serve.deploys");
            loaded = static_cast<std::int64_t>(b.model);
        } else {
            acc->controller().reset();
        }
        const auto pack = [&] {
            for (unsigned s = 0; s < b.slots.size(); ++s) {
                m.packInput(acc->grid(), s, reqs[b.slots[s]].in);
            }
            for (unsigned s = static_cast<unsigned>(b.slots.size());
                 s < m.slots(); ++s) {
                m.clearInput(acc->grid(), s);
            }
        };
        {
            Scope s(tr, "serve.pack");
            pack();
        }
        RunResult res;
        {
            Scope s(tr, "core.execute");
            res = acc->execute(RunRequestBuilder().label(m.name()).build());
        }
        const double size = static_cast<double>(b.slots.size());
        std::vector<int> predicted(b.slots.size());
        {
            Scope s(tr, "serve.readout");
            for (unsigned s2 = 0; s2 < b.slots.size(); ++s2) {
                predicted[s2] = m.readPrediction(acc->grid(), s2);
            }
        }
        for (unsigned s = 0; s < b.slots.size(); ++s) {
            const ClassifyResult &r = *timed[b.slots[s]];
            mismatches += (!res.ok() || predicted[s] != r.predicted ||
                           res.stats.totalTime() != r.simSeconds ||
                           res.stats.totalEnergy() / size != r.energy)
                              ? 1
                              : 0;
        }

        // The same batch once more through the controller alone: the
        // step loop accumulates exactly as the continuous functional
        // runner does, so its RunStats must equal execute()'s.
        {
            Scope s(tr, "serve.repack");
            pack();
            acc->controller().reset();
        }
        Controller &ctrl = acc->controller();
        const Seconds cycle = ctrl.energyModel().cycleTime();
        RunStats st;
        std::uint64_t steps = 0;
        std::uint64_t gateCols = 0;
        {
            Scope s(tr, "controller.run");
            while (!ctrl.halted()) {
                const StepResult r = ctrl.step();
                st.computeEnergy += r.energy - r.backupEnergy;
                st.backupEnergy += r.backupEnergy;
                st.activeTime += cycle;
                ++steps;
                if (!r.halted) {
                    ++st.instructionsCommitted;
                    if (isGateOpcode(r.inst.op)) {
                        gateCols += ctrl.touchedColumns(r.inst);
                    }
                }
            }
            st.idleEnergy += ctrl.energyModel().idlePower() * st.activeTime;
        }
        tr.count("controller.steps", static_cast<double>(steps));
        tr.count("arch.gate_columns", static_cast<double>(gateCols));
        const bool sameStats =
            st.instructionsCommitted == res.stats.instructionsCommitted &&
            st.activeTime == res.stats.activeTime &&
            st.computeEnergy == res.stats.computeEnergy &&
            st.backupEnergy == res.stats.backupEnergy &&
            st.idleEnergy == res.stats.idleEnergy &&
            st.totalEnergy() == res.stats.totalEnergy();
        for (unsigned s = 0; s < b.slots.size(); ++s) {
            mismatches +=
                (!sameStats ||
                 m.readPrediction(acc->grid(), s) != predicted[s])
                    ? 1
                    : 0;
        }
        tr.end(batchSpan);
    }
    tr.end(root);
    return mismatches;
}

double
perSpan(const Tracer &tr, const char *name, double scale)
{
    const std::size_t n = tr.spanCount(name);
    return n > 0 ? tr.total(name) / static_cast<double>(n) * scale : 0.0;
}

} // namespace

void
runServeWorkload(const Options &opt, Outcome &out)
{
    const serve::ServiceConfig cfg = serviceConfig(opt.threads);
    Models models;
    double addModelMs = 0.0;
    std::unique_ptr<InferenceService> svc =
        warmService(cfg, models, &addModelMs);

    const double openSeconds = opt.seconds * kOpenLoopShare;
    const std::vector<double> due =
        poissonArrivals(opt.seed, kArrivalRate, openSeconds);
    Rng rng(opt.seed ^ 0x5e7e5e7e5e7e5e7eULL);
    const std::vector<Request> open =
        makeRequests(rng, due.size(), *svc, models);
    const std::vector<Request> saturated =
        makeRequests(rng, kSaturatedSet, *svc, models);
    {
        Digest d;
        for (double t : due) {
            d.add(t);
        }
        for (const auto *set : {&open, &saturated}) {
            for (const Request &r : *set) {
                d.add(static_cast<std::uint64_t>(r.model));
                d.addBytes(r.in.data(), r.in.size());
            }
        }
        out.inputDigest = d.hex();
    }
    if (opt.trace) {
        // The service's own request spans give the queue wait.
        svc->setTracing(true);
    }
    out.setupDone(opt);
    if (opt.setupOnly) {
        return;
    }

    // -- Open loop ------------------------------------------------------
    const auto epoch = std::chrono::steady_clock::now();
    std::vector<serve::RequestId> ids(open.size());
    std::vector<double> submitSeconds;
    submitSeconds.reserve(open.size());
    const std::size_t warmBatches = svc->batchesRun();
    OpenLoopHooks hooks;
    hooks.now = [&] { return since(epoch); };
    hooks.sleepUntil = [&](double t) {
        std::this_thread::sleep_until(
            epoch + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(t)));
    };
    hooks.submit = [&](std::size_t i) {
        Input in = open[i].in;
        const auto t0 = std::chrono::steady_clock::now();
        ids[i] = svc->submit(open[i].model, std::move(in));
        submitSeconds.push_back(since(t0));
    };
    hooks.drain = [&] { svc->drain(); };
    const auto measureStart = std::chrono::steady_clock::now();
    const OpenLoopResult ol = runOpenLoop(due, kWindow, hooks);

    std::vector<const ClassifyResult *> timed(open.size());
    std::vector<double> simLatency;
    std::vector<double> simEnergy;
    std::map<std::uint64_t, BatchPlan> batches;
    Digest results;
    for (std::size_t i = 0; i < open.size(); ++i) {
        const ClassifyResult &r = svc->result(ids[i]);
        timed[i] = &r;
        out.attempted += 1;
        out.failed += r.predicted == models.predict(open[i]) ? 0 : 1;
        simLatency.push_back(r.simSeconds);
        simEnergy.push_back(r.energy * 1e6);
        BatchPlan &b = batches[r.batchId];
        b.model = r.model;
        if (b.slots.size() <= r.slot) {
            b.slots.resize(r.slot + 1);
        }
        b.slots[r.slot] = i;
        results.add(static_cast<std::uint64_t>(r.predicted));
        results.add(r.batchId);
        results.add(r.simSeconds);
        results.add(r.energy);
    }
    out.resultDigest = results.hex();

    // -- Saturated phase ------------------------------------------------
    std::vector<double> satWall;
    std::size_t satBatches = 0;
    std::size_t satRounds = 0;
    std::vector<int> firstPredictions;
    do {
        Models m2 = models;
        auto s2 = warmService(cfg, m2, nullptr);
        std::vector<Input> payloads;
        payloads.reserve(saturated.size());
        for (const Request &r : saturated) {
            payloads.push_back(r.in);
        }
        const std::size_t before = s2->batchesRun();
        std::vector<serve::RequestId> sids(saturated.size());
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < saturated.size(); ++i) {
            sids[i] =
                s2->submit(saturated[i].model, std::move(payloads[i]));
        }
        s2->drain();
        satWall.push_back(since(t0));
        satBatches = s2->batchesRun() - before;
        ++satRounds;
        for (std::size_t i = 0; i < saturated.size(); ++i) {
            const int p = s2->result(sids[i]).predicted;
            if (satRounds == 1) {
                firstPredictions.push_back(p);
                out.failed += p == models.predict(saturated[i]) ? 0 : 1;
            } else {
                out.failed += p == firstPredictions[i] ? 0 : 1;
            }
            out.attempted += 1;
        }
    } while (since(measureStart) < opt.seconds);
    out.notes.push_back(
        "open loop: " + std::to_string(open.size()) + " requests at " +
        num(kArrivalRate) + "/s in " + std::to_string(ol.windows) +
        " windows of " + num(kWindow * 1e3) + " ms; saturated: " +
        std::to_string(satRounds) + " rounds of " +
        std::to_string(kSaturatedSet) + " on " +
        std::to_string(cfg.workers) + " workers");

    Report &rep = out.report;
    if (!opt.trace) {
        // Rates use the median saturated round, so a transient stall on
        // a shared host moves them less than a total would.
        const double round = median(satWall);
        rep.add("points_per_s", static_cast<double>(satBatches) / round,
                "1/s", satRounds,
                "gate passes per host second, saturated, median round");
        rep.add("throughput_rps",
                static_cast<double>(saturated.size()) / round, "1/s",
                satRounds,
                "classifications per host second, saturated, median round");
        SegmentedTail latency(kLatencySegment, {0.5, 0.99});
        for (double l : ol.latency) {
            latency.add(l);
        }
        addLatency(rep, latency, "due time to completion, open loop");
        rep.add("sim_latency_s", mean(simLatency), "s", simLatency.size(),
                "mean pass latency per classification, open loop");
        rep.add("sim_energy_uj", mean(simEnergy), "uJ", simEnergy.size(),
                "mean energy per classification, open loop");
        return;
    }

    // -- Per-layer ------------------------------------------------------
    std::vector<double> queued;
    const obs::TraceSink requestSpans = svc->requestTrace();
    for (const obs::TraceEvent &e : requestSpans.events()) {
        if (e.name == "queued") {
            queued.push_back(e.durUs * 1e-3);
        }
    }
    std::vector<BatchPlan> plan;
    double offered = 0.0;
    for (auto &[id, b] : batches) {
        offered += svc->model(b.model).slots();
        plan.push_back(std::move(b));
    }
    const std::size_t formed = plan.size();
    rep.add("compile.model_ms", addModelMs, "ms", 2,
            "addModel, both models");
    rep.add("serve.slot_fill", static_cast<double>(open.size()) / offered,
            "fraction", formed, "open loop");
    rep.add("serve.submit_us", mean(submitSeconds) * 1e6, "us",
            submitSeconds.size());
    rep.add("serve.drain_ms", mean(ol.drainSeconds) * 1e3, "ms",
            ol.drainSeconds.size());
    const Percentile qw = tailPercentile(queued, 0.99);
    rep.add("serve.queue_wait_p99_ms", qw.value, "ms", qw.samples,
            "p" + num(qw.q * 100) + " of the service's queued spans");
    const Percentile lag = tailPercentile(ol.lag, 0.99);
    rep.add("loadgen.lag_p99_ms", lag.value * 1e3, "ms", lag.samples,
            "p" + num(lag.q * 100) + " of submit - window end");
    rep.add("loadgen.backlog_end", static_cast<double>(backlogAtEnd(ol)),
            "count", 1, "due requests not complete when the schedule ended");
    out.check(formed == svc->batchesRun() - warmBatches,
              "open-loop batches were not all recorded");
    plan.resize(std::min(plan.size(), kReplayBatches));

    Tracer tracer(true);
    std::uint64_t mismatches = 0;
    const double overhead = measureTraceOverhead(
        [&](Tracer &t) {
            mismatches += replayServe(cfg, *svc, plan, open, timed, t);
        },
        tracer);
    out.check(mismatches == 0,
              "replayed predictions or RunStats differ from the timed "
              "run (" + std::to_string(mismatches) + ")");

    const double steps = tracer.counter("controller.steps");
    rep.add("logic.solves", tracer.counter("logic.solves"), "count", 1);
    rep.add("logic.solve_ms", tracer.total("logic.solve") * 1e3, "ms", 1);
    rep.add("core.load_program_ms",
            perSpan(tracer, "core.load_program", 1e3), "ms",
            tracer.spanCount("core.load_program"));
    rep.add("core.execute_us", perSpan(tracer, "core.execute", 1e6), "us",
            tracer.spanCount("core.execute"));
    rep.add("controller.steps", steps, "count", plan.size());
    rep.add("controller.ns_per_step",
            steps > 0 ? tracer.total("controller.run") / steps * 1e9 : 0.0,
            "ns", plan.size());
    rep.add("arch.gates_per_step",
            steps > 0 ? tracer.counter("arch.gate_columns") / steps : 0.0,
            "count", plan.size(), "column gate evaluations per step");
    rep.add("serve.batches", static_cast<double>(formed), "count", 1,
            "open loop; the first " + std::to_string(plan.size()) +
                " are replayed");
    rep.add("serve.deploys", tracer.counter("serve.deploys"), "count", 1,
            "model switches on one engine, replay");
    rep.add("serve.pack_us", perSpan(tracer, "serve.pack", 1e6), "us",
            tracer.spanCount("serve.pack"));
    rep.add("serve.readout_us", perSpan(tracer, "serve.readout", 1e6), "us",
            tracer.spanCount("serve.readout"));
    rep.add("obs.trace_overhead_frac", overhead, "fraction", 4,
            "traced / untraced replay - 1");
    out.notes.push_back("traced replay, by span:\n" + tracer.summary());
    if (!opt.traceOut.empty()) {
        std::ofstream(opt.traceOut) << tracer.chromeJson();
        out.notes.push_back("trace written to " + opt.traceOut);
    }
}

} // namespace perfbench
