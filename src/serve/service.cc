#include "service.hh"

#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"

namespace mouse::serve
{

namespace
{

using json::num;

/** Exact percentile over a copy (nearest-rank interpolation). */
double
percentileOf(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

} // namespace

InferenceService::InferenceService(const ServiceConfig &cfg)
    : cfg_(cfg),
      lib_(makeDeviceConfig(cfg.engine.tech), cfg.engine.gateMargin),
      epoch_(std::chrono::steady_clock::now())
{
    mouse_assert(cfg_.workers >= 1, "service needs >= 1 worker");
}

InferenceService::~InferenceService() = default;

ModelId
InferenceService::addModel(const BnnServeModel &m)
{
    const ModelId id = static_cast<ModelId>(models_.size());
    models_.push_back(
        PackedModel::compileBnn(lib_, cfg_.engine.array, id, m));
    open_.emplace_back();
    return id;
}

ModelId
InferenceService::addModel(const SvmServeModel &m)
{
    const ModelId id = static_cast<ModelId>(models_.size());
    models_.push_back(
        PackedModel::compileSvm(lib_, cfg_.engine.array, id, m));
    open_.emplace_back();
    return id;
}

const PackedModel &
InferenceService::model(ModelId id) const
{
    mouse_assert(id < models_.size(), "unknown model id");
    return models_[id];
}

unsigned
InferenceService::batchCapacity(const PackedModel &m) const
{
    return cfg_.maxBatch > 0 ? std::min(cfg_.maxBatch, m.slots())
                             : m.slots();
}

RequestId
InferenceService::submit(ModelId model, Input in)
{
    mouse_assert(model < models_.size(), "unknown model id");
    const PackedModel &m = models_[model];
    mouse_assert(m.validInput(in),
                 "request payload rejected at admission");
    PendingReq req;
    req.id = nextRequest_++;
    req.in = std::move(in);
    req.submitted = std::chrono::steady_clock::now();
    results_.emplace_back();
    open_[model].push_back(std::move(req));
    if (open_[model].size() >= batchCapacity(m)) {
        cutBatch(model);
    }
    return nextRequest_ - 1;
}

void
InferenceService::cutBatch(ModelId model)
{
    if (open_[model].empty()) {
        return;
    }
    Batch b;
    b.id = static_cast<std::uint64_t>(ready_.size());
    b.model = model;
    b.reqs = std::move(open_[model]);
    open_[model].clear();
    ready_.push_back(std::move(b));
    records_.emplace_back();
    traces_.emplace_back(
        tracing_ ? std::make_unique<obs::TraceSink>() : nullptr);
    if (tracing_) {
        const Batch &cut = ready_.back();
        formationTrace_.instant(
            "batch_cut", "serve",
            hostSince(std::chrono::steady_clock::now()),
            "{\"batch\":" + std::to_string(cut.id) +
                ",\"model\":\"" +
                jsonEscape(models_[model].name()) +
                "\",\"size\":" + std::to_string(cut.reqs.size()) +
                "}");
    }
}

void
InferenceService::flush()
{
    // Partial batches cut in model-id order: deterministic given
    // the submission sequence.
    for (ModelId m = 0; m < models_.size(); ++m) {
        cutBatch(m);
    }
}

std::size_t
InferenceService::pendingRequests() const
{
    std::size_t n = 0;
    for (const auto &q : open_) {
        n += q.size();
    }
    for (std::size_t i = runCursor_; i < ready_.size(); ++i) {
        n += ready_[i].reqs.size();
    }
    return n;
}

void
InferenceService::runBatch(Engine &eng, unsigned engineIdx,
                           const Batch &batch)
{
    const PackedModel &m = models_[batch.model];
    // Span sink for this batch (null when tracing is off); only the
    // worker that claimed the batch writes it, like records_.
    obs::TraceSink *ts = traces_[batch.id].get();
    const double t0 =
        ts != nullptr
            ? hostSince(std::chrono::steady_clock::now())
            : 0.0;
    if (eng.loaded != static_cast<std::int64_t>(batch.model)) {
        programLoads_.fetch_add(1, std::memory_order_relaxed);
        eng.acc.loadProgram(m.program());
        m.deployWeights(eng.acc.grid());
        eng.loaded = static_cast<std::int64_t>(batch.model);
    } else {
        // Same deployed program: just rewind the PC protocol.
        eng.acc.controller().reset();
    }
    const double tDeploy =
        ts != nullptr
            ? hostSince(std::chrono::steady_clock::now())
            : 0.0;
    const unsigned size = static_cast<unsigned>(batch.reqs.size());
    for (unsigned s = 0; s < size; ++s) {
        m.packInput(eng.acc.grid(), s, batch.reqs[s].in);
    }
    for (unsigned s = size; s < m.slots(); ++s) {
        m.clearInput(eng.acc.grid(), s);
    }
    const double tPack =
        ts != nullptr
            ? hostSince(std::chrono::steady_clock::now())
            : 0.0;

    RunRequestBuilder rb;
    rb.label(m.name());
    if (cfg_.harvested) {
        rb.harvested(cfg_.harvest);
    }
    const RunResult res = eng.acc.execute(rb.build());
    mouse_assert(res.ok(), "serve batch run rejected");
    const double tSim =
        ts != nullptr
            ? hostSince(std::chrono::steady_clock::now())
            : 0.0;

    BatchRecord rec;
    rec.model = batch.model;
    rec.size = size;
    rec.slots = m.slots();
    rec.simSeconds = res.stats.totalTime();
    rec.energy = res.stats.totalEnergy();
    rec.outages = res.stats.outages;
    rec.chargingSeconds = res.stats.chargingTime;
    records_[batch.id] = rec;

    const auto now = std::chrono::steady_clock::now();
    for (unsigned s = 0; s < size; ++s) {
        const PendingReq &req = batch.reqs[s];
        ClassifyResult r;
        r.id = req.id;
        r.model = batch.model;
        r.predicted = m.readPrediction(eng.acc.grid(), s);
        r.batchId = batch.id;
        r.batchSize = size;
        r.slot = s;
        r.simSeconds = rec.simSeconds;
        r.energy = rec.energy / size;
        r.hostSeconds =
            std::chrono::duration<double>(now - req.submitted)
                .count();
        results_[req.id] = std::move(r);
    }

    if (ts != nullptr) {
        const double tEnd =
            hostSince(std::chrono::steady_clock::now());
        const std::uint32_t pool = 0;
        const std::string bArgs =
            "{\"batch\":" + std::to_string(batch.id) +
            ",\"model\":\"" + jsonEscape(m.name()) +
            "\",\"size\":" + std::to_string(size) + "}";
        ts->complete("batch", "serve", t0, tEnd - t0, bArgs, pool,
                     engineIdx);
        ts->complete("deploy", "serve", t0, tDeploy - t0, "", pool,
                     engineIdx);
        ts->complete("pack", "serve", tDeploy, tPack - tDeploy, "",
                     pool, engineIdx);
        ts->complete("sim", "serve", tPack, tSim - tPack,
                     "{\"sim_s\":" + num(rec.simSeconds) + "}",
                     pool, engineIdx);
        ts->complete("readout", "serve", tSim, tEnd - tSim, "",
                     pool, engineIdx);
        // Brownout attribution: the share of the pass's simulated
        // time spent powered off, projected onto the host-time sim
        // span so Perfetto shows queueing, compute and outage loss
        // side by side on one timeline.
        if (res.stats.chargingTime > 0.0 &&
            res.stats.totalTime() > 0.0) {
            const double frac =
                res.stats.chargingTime / res.stats.totalTime();
            ts->complete(
                "outage_stall", "stall", tPack,
                (tSim - tPack) * frac,
                "{\"outages\":" +
                    std::to_string(res.stats.outages) +
                    ",\"charging_s\":" +
                    num(res.stats.chargingTime) + "}",
                pool, engineIdx);
        }
        // Per-request rows: pid = 1 + batch id, tid = slot.
        const std::uint32_t row =
            1 + static_cast<std::uint32_t>(batch.id);
        for (unsigned s = 0; s < size; ++s) {
            const PendingReq &req = batch.reqs[s];
            const ClassifyResult &r = results_[req.id];
            const double tSubmit = hostSince(req.submitted);
            ts->complete(
                "request", "serve", tSubmit, r.hostSeconds,
                "{\"req\":" + std::to_string(req.id) +
                    ",\"batch\":" + std::to_string(batch.id) +
                    ",\"slot\":" + std::to_string(s) +
                    ",\"predicted\":" +
                    std::to_string(r.predicted) + "}",
                row, s);
            ts->complete("queued", "serve", tSubmit, t0 - tSubmit,
                         "", row, s);
        }
    }
}

double
InferenceService::drain()
{
    flush();
    const auto t0 = std::chrono::steady_clock::now();
    const std::size_t first = runCursor_;
    const std::size_t count = ready_.size() - first;
    if (count == 0) {
        return 0.0;
    }
    while (engines_.size() < cfg_.workers) {
        engines_.push_back(std::make_unique<Engine>(cfg_.engine));
    }
    const unsigned nThreads = static_cast<unsigned>(
        std::min<std::size_t>(cfg_.workers, count));
    // Engines claim batches from per-model queues of batch indices:
    // the oldest batch of the model an engine has deployed, else the
    // oldest batch left, so weights are redeployed only on a model
    // switch and no engine idles while work remains.  Every written
    // cell (records_[batch.id], results_[req.id]) is distinct per
    // batch, and identical engines compute identical records for a
    // batch whichever one claims it, so the claiming order never
    // reaches results, stats() or reportJson().
    std::mutex claimMutex;
    std::vector<std::deque<std::size_t>> queued(models_.size());
    for (std::size_t i = first; i < ready_.size(); ++i) {
        queued[ready_[i].model].push_back(i);
    }
    const auto claim = [&](const Engine &eng) {
        const std::lock_guard<std::mutex> lock(claimMutex);
        const std::size_t none = models_.size();
        std::size_t pick = none;
        if (eng.loaded >= 0 && !queued[eng.loaded].empty()) {
            pick = static_cast<std::size_t>(eng.loaded);
        } else {
            for (std::size_t m = 0; m < models_.size(); ++m) {
                if (!queued[m].empty() &&
                    (pick == none ||
                     queued[m].front() < queued[pick].front())) {
                    pick = m;
                }
            }
        }
        if (pick == none) {
            return ready_.size();
        }
        const std::size_t i = queued[pick].front();
        queued[pick].pop_front();
        return i;
    };
    std::atomic<std::size_t> done{0};
    auto work = [&](unsigned engineIdx) {
        Engine &eng = *engines_[engineIdx];
        for (;;) {
            const std::size_t i = claim(eng);
            if (i >= ready_.size()) {
                break;
            }
            runBatch(eng, engineIdx, ready_[i]);
            const std::size_t n =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (progress_) {
                const std::lock_guard<std::mutex> lock(
                    progressMutex_);
                progress_(n, count);
            }
        }
    };
    if (nThreads == 1) {
        work(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(nThreads);
        for (unsigned t = 0; t < nThreads; ++t) {
            pool.emplace_back(work, t);
        }
        for (auto &th : pool) {
            th.join();
        }
    }
    for (std::size_t i = first; i < ready_.size(); ++i) {
        completedRequests_ += ready_[i].reqs.size();
    }
    runCursor_ = ready_.size();
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    drainSeconds_ += secs;
    if (tracing_) {
        // The whole drain on the pool track: what its batch spans
        // leave uncovered is thread spawn, claim and join.
        formationTrace_.complete(
            "drain", "serve", hostSince(t0), secs,
            "{\"batches\":" + std::to_string(count) + "}");
    }
    return secs;
}

obs::TraceSink
InferenceService::requestTrace() const
{
    obs::TraceSink out;
    out.appendFrom(formationTrace_);
    // Batch-id order, matching the stats() fold discipline; sinks
    // already carry their own pid/tid track layout, so appendFrom()
    // (not mergeFrom()) keeps the rows apart.
    for (const auto &t : traces_) {
        if (t != nullptr) {
            out.appendFrom(*t);
        }
    }
    return out;
}

const ClassifyResult &
InferenceService::result(RequestId id) const
{
    mouse_assert(id < results_.size(), "unknown request id");
    const ClassifyResult &r = results_[id];
    mouse_assert(r.batchSize > 0,
                 "request not completed yet (drain() first)");
    return r;
}

std::shared_ptr<obs::StatRegistry>
InferenceService::stats() const
{
    auto reg = std::make_shared<obs::StatRegistry>();
    obs::Counter &batches = reg->counter(
        "serve.batches", "gate passes executed");
    obs::Counter &requests = reg->counter(
        "serve.requests", "classification requests completed");
    obs::Counter &idle = reg->counter(
        "serve.slots_idle", "column slots zero-filled (unused)");
    obs::Scalar &simTime = reg->scalar(
        "serve.sim_time_s", obs::MergePolicy::kSum,
        "simulated array time across passes");
    obs::Scalar &energy = reg->scalar(
        "serve.energy_j", obs::MergePolicy::kSum,
        "array energy across passes");
    obs::Histogram &batchSize = reg->histogram(
        "serve.batch_size", "requests packed per pass");
    obs::Histogram &simLatency = reg->histogram(
        "serve.request.sim_latency_s",
        "per-request simulated pass latency");
    // Fold strictly in batch-id order: the registry is then a pure
    // function of the submission sequence, whatever worker count
    // executed the batches.
    for (std::size_t i = 0; i < runCursor_; ++i) {
        const BatchRecord &rec = records_[i];
        batches.increment();
        requests += rec.size;
        idle += rec.slots - rec.size;
        simTime.observe(rec.simSeconds);
        energy.observe(rec.energy);
        batchSize.sample(static_cast<double>(rec.size));
        simLatency.sample(rec.simSeconds, rec.size);
        reg->counter("serve.model." + models_[rec.model].name() +
                         ".requests",
                     "requests served by this model") += rec.size;
    }
    if (cfg_.harvested) {
        // Brownouts exist only under harvested power; registering
        // them only then keeps wall-power registries unchanged.
        obs::Counter &outages = reg->counter(
            "serve.outages", "power outages across passes");
        obs::Scalar &stall = reg->scalar(
            "serve.outage_stall_s", obs::MergePolicy::kSum,
            "simulated seconds spent recharging across passes");
        for (std::size_t i = 0; i < runCursor_; ++i) {
            outages += records_[i].outages;
            stall.observe(records_[i].chargingSeconds);
        }
    }
    reg->formula(
        "serve.sim_throughput_per_s",
        [](const obs::StatRegistry &r) {
            const double t = r.scalarValue("serve.sim_time_s");
            return t > 0.0 ? r.counterValue("serve.requests") / t
                           : 0.0;
        },
        "classifications per simulated array second");
    return reg;
}

std::string
InferenceService::reportJson() const
{
    std::vector<double> host;
    std::vector<double> sim;
    host.reserve(completedRequests_);
    sim.reserve(completedRequests_);
    double simTime = 0.0;
    double energy = 0.0;
    std::uint64_t requests = 0;
    std::vector<std::uint64_t> perModel(models_.size(), 0);
    for (std::size_t i = 0; i < runCursor_; ++i) {
        const BatchRecord &rec = records_[i];
        requests += rec.size;
        simTime += rec.simSeconds;
        energy += rec.energy;
        perModel[rec.model] += rec.size;
        for (const PendingReq &req : ready_[i].reqs) {
            host.push_back(results_[req.id].hostSeconds);
            sim.push_back(results_[req.id].simSeconds);
        }
    }
    const double throughput =
        drainSeconds_ > 0.0
            ? static_cast<double>(requests) / drainSeconds_
            : 0.0;

    std::string j = "{";
    j += "\"schema\":" + std::to_string(kResultSchemaVersion);
    j += ",\"serve_report\":{";
    j += "\"requests\":" + std::to_string(requests);
    j += ",\"batches\":" + std::to_string(runCursor_);
    j += ",\"workers\":" + std::to_string(cfg_.workers);
    j += ",\"drain_seconds\":" + num(drainSeconds_);
    j += ",\"throughput_per_s\":" + num(throughput);
    j += ",\"host_latency_s\":{";
    j += "\"p50\":" + num(percentileOf(host, 0.50));
    j += ",\"p99\":" + num(percentileOf(host, 0.99));
    j += "},\"sim\":{";
    j += "\"time_s\":" + num(simTime);
    j += ",\"energy_j\":" + num(energy);
    j += ",\"latency_s\":{";
    j += "\"p50\":" + num(percentileOf(sim, 0.50));
    j += ",\"p99\":" + num(percentileOf(sim, 0.99));
    j += "}},\"models\":[";
    for (std::size_t m = 0; m < models_.size(); ++m) {
        if (m > 0) {
            j += ",";
        }
        j += "{\"name\":\"" + jsonEscape(models_[m].name()) + "\"";
        j += ",\"slots\":" + std::to_string(models_[m].slots());
        j += ",\"cols_per_request\":" +
             std::to_string(models_[m].colsPerRequest());
        j += ",\"requests\":" + std::to_string(perModel[m]);
        j += "}";
    }
    j += "]}";
    const auto reg = stats();
    if (!reg->empty()) {
        j += ",\"stat_registry\":" + reg->toJson();
    }
    j += "}";
    return j;
}

} // namespace mouse::serve
