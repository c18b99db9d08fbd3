/**
 * @file
 * Serving-layer tests: the two load-bearing guarantees of
 * docs/SERVING.md.
 *
 *  1. Column-slot batching is invisible to results: a request packed
 *     into a full pass produces the bit-identical prediction it
 *     produces when it is the only occupant of a pass, and when its
 *     inputs are run one-at-a-time through the raw
 *     Accelerator::execute() path.
 *  2. Service statistics are deterministic: the folded registry is
 *     byte-identical for any worker count, and every deterministic
 *     per-request field (prediction, batch metadata, simulated
 *     latency and energy) is too.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "serve/service.hh"

namespace mouse::serve
{
namespace
{

constexpr unsigned kBnnInputs = 12;
constexpr unsigned kBnnClasses = 4;
constexpr unsigned kSvmDim = 6;
constexpr unsigned kSvmSvs = 4;
constexpr unsigned kSvmInputBits = 4;

ServiceConfig
smallConfig(unsigned workers, unsigned max_batch = 0)
{
    ServiceConfig cfg;
    cfg.engine.tech = TechConfig::ProjectedStt;
    cfg.engine.array.tileRows = 512;
    cfg.engine.array.tileCols = 16;  // 4 slots for both models
    cfg.engine.array.numDataTiles = 1;
    cfg.engine.array.numInstructionTiles = 4096;
    cfg.workers = workers;
    cfg.maxBatch = max_batch;
    return cfg;
}

BnnServeModel
randomBnn(Rng &rng)
{
    BnnServeModel m;
    m.name = "bnn4";
    m.layer.inputs = kBnnInputs;
    m.layer.outputs = kBnnClasses;
    m.layer.weights.assign(kBnnClasses,
                           std::vector<Bit>(kBnnInputs));
    m.layer.thresholds.resize(kBnnClasses);
    for (unsigned c = 0; c < kBnnClasses; ++c) {
        for (unsigned i = 0; i < kBnnInputs; ++i) {
            m.layer.weights[c][i] = static_cast<Bit>(rng.below(2));
        }
        m.layer.thresholds[c] =
            static_cast<std::int32_t>(rng.below(kBnnInputs + 1));
    }
    return m;
}

SvmServeModel
randomSvm(Rng &rng)
{
    SvmServeModel m;
    m.name = "svm2";
    m.dim = kSvmDim;
    m.inputBits = kSvmInputBits;
    m.accBits = 12;
    m.svm.supportVectors.assign(kSvmSvs, Features(kSvmDim));
    m.svm.coefficients.resize(kSvmSvs);
    for (unsigned s = 0; s < kSvmSvs; ++s) {
        for (unsigned e = 0; e < kSvmDim; ++e) {
            m.svm.supportVectors[s][e] =
                static_cast<std::uint8_t>(rng.below(16));
        }
        m.svm.coefficients[s] = static_cast<std::int32_t>(
                                    rng.below(9)) -
                                4;
    }
    m.svm.bias = static_cast<std::int64_t>(rng.below(64)) - 32;
    return m;
}

Input
randomInput(Rng &rng, const PackedModel &m, unsigned element_bits)
{
    Input in(m.inputSize());
    for (auto &v : in) {
        v = static_cast<std::uint8_t>(
            rng.below(1u << element_bits));
    }
    return in;
}

/** Mixed-model request sequence, reproducible from the seed. */
struct Workload
{
    std::vector<ModelId> models;
    std::vector<Input> inputs;
};

Workload
makeWorkload(const InferenceService &svc, ModelId bnn, ModelId svm,
             unsigned n, std::uint64_t seed)
{
    Rng rng(seed);
    Workload w;
    for (unsigned i = 0; i < n; ++i) {
        const bool useBnn = rng.below(2) == 0;
        const ModelId m = useBnn ? bnn : svm;
        w.models.push_back(m);
        w.inputs.push_back(randomInput(
            rng, svc.model(m), useBnn ? 1 : kSvmInputBits));
    }
    return w;
}

void
submitAll(InferenceService &svc, const Workload &w)
{
    for (std::size_t i = 0; i < w.models.size(); ++i) {
        const RequestId id = svc.submit(w.models[i], w.inputs[i]);
        EXPECT_EQ(id, i);
    }
}

TEST(Serve, PackedBatchMatchesSequentialExecute)
{
    Rng modelRng(71);
    const BnnServeModel bnnModel = randomBnn(modelRng);
    const SvmServeModel svmModel = randomSvm(modelRng);

    // Packed: full 4-slot passes.
    InferenceService packed(smallConfig(1, 0));
    const ModelId bnnP = packed.addModel(bnnModel);
    const ModelId svmP = packed.addModel(svmModel);
    // Sequential: same engine, one request per pass.
    InferenceService solo(smallConfig(1, 1));
    const ModelId bnnS = solo.addModel(bnnModel);
    const ModelId svmS = solo.addModel(svmModel);
    ASSERT_EQ(bnnP, bnnS);
    ASSERT_EQ(svmP, svmS);

    const Workload w = makeWorkload(packed, bnnP, svmP, 24, 2024);
    submitAll(packed, w);
    submitAll(solo, w);
    packed.drain();
    solo.drain();

    // Raw path: each input alone on a fresh accelerator, via the
    // synchronous execute() entry point.
    MouseConfig engineCfg = smallConfig(1).engine;
    for (std::size_t i = 0; i < w.models.size(); ++i) {
        const ClassifyResult &rp = packed.result(i);
        const ClassifyResult &rs = solo.result(i);
        EXPECT_EQ(rp.predicted, rs.predicted) << "request " << i;
        EXPECT_EQ(rs.batchSize, 1u);
        EXPECT_GT(rp.batchSize, 0u);

        const PackedModel &m = packed.model(w.models[i]);
        Accelerator acc(engineCfg);
        acc.loadProgram(m.program());
        m.deployWeights(acc.grid());
        for (unsigned s = 0; s < m.slots(); ++s) {
            m.clearInput(acc.grid(), s);
        }
        m.packInput(acc.grid(), 0, w.inputs[i]);
        const RunResult res = acc.execute(RunRequest{});
        ASSERT_TRUE(res.ok());
        EXPECT_EQ(m.readPrediction(acc.grid(), 0), rp.predicted)
            << "request " << i;
    }
}

TEST(Serve, BnnPredictionMatchesSoftwareArgmax)
{
    Rng modelRng(5);
    const BnnServeModel bnnModel = randomBnn(modelRng);
    InferenceService svc(smallConfig(1));
    const ModelId bnn = svc.addModel(bnnModel);

    Rng rng(99);
    std::vector<Input> inputs;
    for (unsigned i = 0; i < 8; ++i) {
        inputs.push_back(randomInput(rng, svc.model(bnn), 1));
        svc.submit(bnn, inputs.back());
    }
    svc.drain();
    for (unsigned i = 0; i < 8; ++i) {
        int best = 0;
        int bestPop = -1;
        for (unsigned c = 0; c < kBnnClasses; ++c) {
            int pop = 0;
            for (unsigned b = 0; b < kBnnInputs; ++b) {
                pop += bnnModel.layer.weights[c][b] ==
                       inputs[i][b];
            }
            if (pop > bestPop) {
                bestPop = pop;
                best = static_cast<int>(c);
            }
        }
        EXPECT_EQ(svc.result(i).predicted, best) << "request " << i;
    }
}

TEST(Serve, StatsFoldByteIdenticallyAcrossWorkerCounts)
{
    Rng modelRng(17);
    const BnnServeModel bnnModel = randomBnn(modelRng);
    const SvmServeModel svmModel = randomSvm(modelRng);

    auto run = [&](unsigned workers) {
        auto svc = std::make_unique<InferenceService>(
            smallConfig(workers));
        const ModelId bnn = svc->addModel(bnnModel);
        const ModelId svm = svc->addModel(svmModel);
        const Workload w = makeWorkload(*svc, bnn, svm, 30, 777);
        submitAll(*svc, w);
        svc->drain();
        return svc;
    };
    const auto one = run(1);
    const auto four = run(4);

    EXPECT_EQ(one->completed(), 30u);
    EXPECT_EQ(four->completed(), 30u);
    EXPECT_EQ(one->batchesRun(), four->batchesRun());
    // The folded registry must not depend on which engine ran which
    // batch: byte-identical JSON.
    EXPECT_EQ(one->stats()->toJson(), four->stats()->toJson());
    // And every deterministic per-request field must agree.
    for (RequestId id = 0; id < 30; ++id) {
        const ClassifyResult &a = one->result(id);
        const ClassifyResult &b = four->result(id);
        EXPECT_EQ(a.predicted, b.predicted) << "request " << id;
        EXPECT_EQ(a.batchId, b.batchId) << "request " << id;
        EXPECT_EQ(a.batchSize, b.batchSize) << "request " << id;
        EXPECT_EQ(a.slot, b.slot) << "request " << id;
        EXPECT_EQ(a.simSeconds, b.simSeconds) << "request " << id;
        EXPECT_EQ(a.energy, b.energy) << "request " << id;
    }
}

TEST(Serve, FlushCutsPartialBatchesAndCountsIdleSlots)
{
    Rng modelRng(23);
    InferenceService svc(smallConfig(1));
    const ModelId bnn = svc.addModel(randomBnn(modelRng));

    Rng rng(3);
    for (unsigned i = 0; i < 3; ++i) {  // 3 of 4 slots
        svc.submit(bnn, randomInput(rng, svc.model(bnn), 1));
    }
    EXPECT_EQ(svc.pendingRequests(), 3u);
    svc.drain();  // flushes the partial batch
    EXPECT_EQ(svc.pendingRequests(), 0u);
    EXPECT_EQ(svc.completed(), 3u);
    EXPECT_EQ(svc.batchesRun(), 1u);
    for (RequestId id = 0; id < 3; ++id) {
        EXPECT_EQ(svc.result(id).batchSize, 3u);
        EXPECT_EQ(svc.result(id).slot, id);
    }
    const auto reg = svc.stats();
    EXPECT_EQ(reg->counterValue("serve.slots_idle"), 1.0);
    EXPECT_EQ(reg->counterValue("serve.requests"), 3.0);
}

TEST(Serve, ReportJsonCarriesSchemaV6ServeBlock)
{
    Rng modelRng(31);
    InferenceService svc(smallConfig(2));
    const ModelId bnn = svc.addModel(randomBnn(modelRng));
    Rng rng(8);
    for (unsigned i = 0; i < 6; ++i) {
        svc.submit(bnn, randomInput(rng, svc.model(bnn), 1));
    }
    svc.drain();
    const std::string j = svc.reportJson();
    // mouse-lint: allow(schema-constants) -- golden pin: the test
    // hardcodes the published version on purpose, so an accidental
    // bump of the central constant fails here.
    EXPECT_NE(j.find("\"schema\":7"), std::string::npos);
    EXPECT_NE(j.find("\"serve_report\":"), std::string::npos);
    EXPECT_NE(j.find("\"requests\":6"), std::string::npos);
    EXPECT_NE(j.find("\"throughput_per_s\":"), std::string::npos);
    EXPECT_NE(j.find("\"p50\":"), std::string::npos);
    EXPECT_NE(j.find("\"p99\":"), std::string::npos);
    EXPECT_NE(j.find("\"stat_registry\":"), std::string::npos);
}

TEST(Serve, ObservabilityDoesNotPerturbDeterministicOutputs)
{
    Rng modelRng(41);
    const BnnServeModel bnnModel = randomBnn(modelRng);
    const SvmServeModel svmModel = randomSvm(modelRng);

    auto run = [&](unsigned workers, bool observed) {
        auto svc = std::make_unique<InferenceService>(
            smallConfig(workers));
        auto hub = std::make_unique<obs::MetricsHub>();
        if (observed) {
            svc->setMetrics(hub.get());
            svc->setTracing(true);
        }
        const ModelId bnn = svc->addModel(bnnModel);
        const ModelId svm = svc->addModel(svmModel);
        const Workload w = makeWorkload(*svc, bnn, svm, 30, 555);
        submitAll(*svc, w);
        svc->drain();
        svc->setMetrics(nullptr);
        return svc;
    };
    const auto plain = run(1, false);
    const auto observed1 = run(1, true);
    const auto observed4 = run(4, true);

    // Metrics publishing and span tracing are observational: the
    // folded registry stays byte-identical with them on or off, and
    // across worker counts with them on.
    EXPECT_EQ(plain->stats()->toJson(), observed1->stats()->toJson());
    EXPECT_EQ(plain->stats()->toJson(), observed4->stats()->toJson());
    for (RequestId id = 0; id < 30; ++id) {
        const ClassifyResult &a = plain->result(id);
        const ClassifyResult &b = observed4->result(id);
        EXPECT_EQ(a.predicted, b.predicted) << "request " << id;
        EXPECT_EQ(a.batchId, b.batchId) << "request " << id;
        EXPECT_EQ(a.slot, b.slot) << "request " << id;
        EXPECT_EQ(a.simSeconds, b.simSeconds) << "request " << id;
        EXPECT_EQ(a.energy, b.energy) << "request " << id;
    }
}

TEST(Serve, MetricsHubSeesTheWholeServingLifecycle)
{
    Rng modelRng(47);
    obs::MetricsHub hub;
    InferenceService svc(smallConfig(2));
    svc.setMetrics(&hub);
    const ModelId bnn = svc.addModel(randomBnn(modelRng));
    Rng rng(12);
    for (unsigned i = 0; i < 10; ++i) {
        svc.submit(bnn, randomInput(rng, svc.model(bnn), 1));
    }
    {
        const obs::MetricsSnapshot s = hub.snapshot();
        EXPECT_EQ(s.submitted, 10u);
        EXPECT_EQ(s.queueDepth, 10);
        EXPECT_EQ(s.completed, 0u);
    }
    svc.drain();
    svc.setMetrics(nullptr);
    const obs::MetricsSnapshot s = hub.snapshot();
    EXPECT_EQ(s.submitted, 10u);
    EXPECT_EQ(s.completed, 10u);
    EXPECT_EQ(s.queueDepth, 0);
    EXPECT_EQ(s.batches, svc.batchesRun());
    EXPECT_EQ(s.activeWorkers, 0u);
    EXPECT_GT(s.simSeconds, 0.0);
    EXPECT_GT(s.energyJoules, 0.0);
    EXPECT_EQ(s.hostLatency.count, 10u);
    EXPECT_GT(s.hostLatency.p50, 0.0);
}

TEST(Serve, RequestSpansCoverHostLatency)
{
    Rng modelRng(53);
    InferenceService svc(smallConfig(2));
    svc.setTracing(true);
    const ModelId bnn = svc.addModel(randomBnn(modelRng));
    const ModelId svm = svc.addModel(randomSvm(modelRng));
    const Workload w = makeWorkload(svc, bnn, svm, 16, 909);
    submitAll(svc, w);
    svc.drain();

    const obs::TraceSink trace = svc.requestTrace();
    ASSERT_FALSE(trace.events().empty());

    // Every batch phase appears, plus formation instants.
    for (const char *name :
         {"batch", "deploy", "pack", "sim", "readout", "batch_cut",
          "request", "queued"}) {
        bool found = false;
        for (const auto &e : trace.events()) {
            found |= e.name == name;
        }
        EXPECT_TRUE(found) << name;
    }

    // The acceptance bar: each request's span covers >= 99% of its
    // admission-to-completion host wall-clock.  (They are computed
    // from the same timestamps, so coverage is exact.)
    for (RequestId id = 0; id < 16; ++id) {
        const ClassifyResult &r = svc.result(id);
        const std::uint32_t pid =
            static_cast<std::uint32_t>(1 + r.batchId);
        bool found = false;
        for (const auto &e : trace.events()) {
            if (e.name != "request" || e.pid != pid ||
                e.tid != r.slot) {
                continue;
            }
            found = true;
            EXPECT_GE(e.durUs, 0.99 * r.hostSeconds * 1e6)
                << "request " << id;
            EXPECT_LE(e.durUs, 1.01 * r.hostSeconds * 1e6 + 1.0)
                << "request " << id;
        }
        EXPECT_TRUE(found) << "request " << id;
    }
}

TEST(Serve, HarvestedServingAttributesOutageStalls)
{
    Rng modelRng(61);
    const BnnServeModel bnnModel = randomBnn(modelRng);
    ServiceConfig cfg = smallConfig(1);
    cfg.harvested = true;
    // Weak harvester + tiny buffer capacitor: each pass browns out
    // repeatedly (the burst covers only a handful of instructions).
    cfg.harvest.source = SourceSpec::constant(1e-6);
    cfg.harvest.capacitanceOverride = 2e-10;
    obs::MetricsHub hub;
    InferenceService svc(cfg);
    svc.setMetrics(&hub);
    svc.setTracing(true);
    const ModelId bnn = svc.addModel(bnnModel);
    Rng rng(6);
    for (unsigned i = 0; i < 4; ++i) {
        svc.submit(bnn, randomInput(rng, svc.model(bnn), 1));
    }
    svc.drain();
    svc.setMetrics(nullptr);

    const obs::MetricsSnapshot s = hub.snapshot();
    EXPECT_EQ(s.completed, 4u);
    EXPECT_GT(s.outages, 0u);
    EXPECT_GT(s.outageStallSeconds, 0.0);
    EXPECT_GT(s.windowOutageStallSeconds, 0.0);

    // The span stream separates brownout time from compute time.
    const obs::TraceSink trace = svc.requestTrace();
    bool sawStall = false;
    for (const auto &e : trace.events()) {
        sawStall |= e.name == "outage_stall";
    }
    EXPECT_TRUE(sawStall);

    // Harvested passes are still deterministic: a second identical
    // service folds the identical registry.
    InferenceService again(cfg);
    const ModelId bnn2 = again.addModel(bnnModel);
    Rng rng2(6);
    for (unsigned i = 0; i < 4; ++i) {
        again.submit(bnn2, randomInput(rng2, again.model(bnn2), 1));
    }
    again.drain();
    EXPECT_EQ(svc.stats()->toJson(), again.stats()->toJson());
}

} // namespace
} // namespace mouse::serve
