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
 *
 * Also: the word-wide weight deploy and slot packing leave the tile
 * byte-identical to a per-bit reference, and engines that claim
 * batches by model keep every deterministic output unchanged while
 * loading each model at most once per drain on one engine.
 */

#include <gtest/gtest.h>

#include <functional>

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
randomBnn(Rng &rng, unsigned classes = kBnnClasses)
{
    BnnServeModel m;
    m.name = "bnn" + std::to_string(classes);
    m.layer.inputs = kBnnInputs;
    m.layer.outputs = classes;
    m.layer.weights.assign(classes, std::vector<Bit>(kBnnInputs));
    m.layer.thresholds.resize(classes);
    for (unsigned c = 0; c < classes; ++c) {
        for (unsigned i = 0; i < kBnnInputs; ++i) {
            m.layer.weights[c][i] = static_cast<Bit>(rng.below(2));
        }
        m.layer.thresholds[c] =
            static_cast<std::int32_t>(rng.below(kBnnInputs + 1));
    }
    return m;
}

SvmServeModel
randomSvm(Rng &rng, unsigned svs = kSvmSvs)
{
    SvmServeModel m;
    m.name = "svm2";
    m.dim = kSvmDim;
    m.inputBits = kSvmInputBits;
    m.accBits = 12;
    m.svm.supportVectors.assign(svs, Features(kSvmDim));
    m.svm.coefficients.resize(svs);
    for (unsigned s = 0; s < svs; ++s) {
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
    EXPECT_NE(j.find("\"schema\":8"), std::string::npos);
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
        svc->setTracing(observed);
        const ModelId bnn = svc->addModel(bnnModel);
        const ModelId svm = svc->addModel(svmModel);
        const Workload w = makeWorkload(*svc, bnn, svm, 30, 555);
        submitAll(*svc, w);
        svc->drain();
        return svc;
    };
    const auto plain = run(1, false);
    const auto observed1 = run(1, true);
    const auto observed4 = run(4, true);

    // Span tracing is observational: the folded registry stays
    // byte-identical with it on or off, and across worker counts
    // with it on.
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

TEST(Serve, CountersFollowTheWholeServingLifecycle)
{
    Rng modelRng(47);
    InferenceService svc(smallConfig(2));
    const ModelId bnn = svc.addModel(randomBnn(modelRng));
    Rng rng(12);
    for (unsigned i = 0; i < 10; ++i) {
        svc.submit(bnn, randomInput(rng, svc.model(bnn), 1));
    }
    EXPECT_EQ(svc.pendingRequests(), 10u);
    EXPECT_EQ(svc.completed(), 0u);
    EXPECT_EQ(svc.batchesRun(), 0u);
    svc.drain();
    EXPECT_EQ(svc.pendingRequests(), 0u);
    EXPECT_EQ(svc.completed(), 10u);
    // 10 requests in 4-slot passes: two full batches and a partial.
    EXPECT_EQ(svc.batchesRun(), 3u);
    const auto reg = svc.stats();
    EXPECT_EQ(reg->counterValue("serve.requests"), 10.0);
    EXPECT_EQ(reg->counterValue("serve.batches"),
              static_cast<double>(svc.batchesRun()));
    EXPECT_GT(reg->scalarValue("serve.sim_time_s"), 0.0);
    EXPECT_GT(reg->scalarValue("serve.energy_j"), 0.0);
    for (RequestId id = 0; id < 10; ++id) {
        EXPECT_GT(svc.result(id).hostSeconds, 0.0) << "request " << id;
    }
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
    double drained = svc.drain();
    const Workload more = makeWorkload(svc, bnn, svm, 8, 910);
    for (std::size_t i = 0; i < more.models.size(); ++i) {
        svc.submit(more.models[i], more.inputs[i]);
    }
    drained += svc.drain();

    const obs::TraceSink trace = svc.requestTrace();
    ASSERT_FALSE(trace.events().empty());

    // Every batch phase appears, plus formation instants and drains.
    for (const char *name :
         {"batch", "deploy", "pack", "sim", "readout", "batch_cut",
          "request", "queued", "drain"}) {
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

    // One drain span per drain() covers its host wall time, so the
    // time outside every batch span is attributed too.
    std::vector<const obs::TraceEvent *> drains;
    double drainSpanSeconds = 0.0;
    for (const auto &e : trace.events()) {
        if (e.name == "drain") {
            drains.push_back(&e);
            drainSpanSeconds += e.durUs * 1e-6;
        }
    }
    ASSERT_EQ(drains.size(), 2u);
    EXPECT_NEAR(drainSpanSeconds, drained, 0.01 * drained);
    const double eps = 1e-3;  // microseconds of rounding
    for (const auto &e : trace.events()) {
        if (e.name != "batch") {
            continue;
        }
        bool inside = false;
        for (const obs::TraceEvent *d : drains) {
            inside |= e.tsUs >= d->tsUs - eps &&
                      e.tsUs + e.durUs <= d->tsUs + d->durUs + eps;
        }
        EXPECT_TRUE(inside) << e.args;
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
    InferenceService svc(cfg);
    svc.setTracing(true);
    const ModelId bnn = svc.addModel(bnnModel);
    Rng rng(6);
    for (unsigned i = 0; i < 4; ++i) {
        svc.submit(bnn, randomInput(rng, svc.model(bnn), 1));
    }
    svc.drain();

    // The registry carries the brownouts and the recharge time.
    const auto reg = svc.stats();
    EXPECT_EQ(svc.completed(), 4u);
    EXPECT_GT(reg->counterValue("serve.outages"), 0.0);
    EXPECT_GT(reg->scalarValue("serve.outage_stall_s"), 0.0);
    // A wall-power service registers neither key.
    InferenceService wall(smallConfig(1));
    const ModelId wallBnn = wall.addModel(bnnModel);
    wall.submit(wallBnn, randomInput(rng, wall.model(wallBnn), 1));
    wall.drain();
    const auto wallReg = wall.stats();
    EXPECT_EQ(wallReg->findCounter("serve.outages"), nullptr);
    EXPECT_EQ(wallReg->findScalar("serve.outage_stall_s"), nullptr);

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

// -- Word-wide pack and deploy against a per-bit reference ----------
//
// The reference writes the documented slot layout one setBit() per
// bit and column: BNN weight bit i at row 4i, input bit i at 4i+2 and
// threshold bit b at 4k+1+2b; SVM support-vector element e bit b at
// e*2*inputBits+2b and the input's likewise above the support vectors.

ArrayConfig
packConfig(unsigned cols)
{
    ArrayConfig cfg = smallConfig(1).engine.array;
    cfg.tileCols = cols;
    return cfg;
}

/** A grid whose data tile holds seeded noise in every row and
 *  column, so a write outside the slots would show. */
std::unique_ptr<TileGrid>
noisyGrid(const ArrayConfig &cfg, const GateLibrary &lib)
{
    auto grid = std::make_unique<TileGrid>(cfg, lib);
    Rng rng(404);
    Tile &t = grid->tile(0);
    for (RowAddr r = 0; r < t.numRows(); ++r) {
        for (ColAddr c = 0; c < t.numCols(); ++c) {
            t.setBit(r, c, static_cast<Bit>(rng.below(2)));
        }
    }
    return grid;
}

unsigned
thresholdBits(unsigned inputs)
{
    unsigned bits = 1;
    while ((1u << bits) <= inputs) {
        ++bits;
    }
    return bits;
}

void
refDeployBnn(Tile &t, const PackedModel &pm, const BnnServeModel &m)
{
    const unsigned k = m.layer.inputs;
    for (unsigned s = 0; s < pm.slots(); ++s) {
        for (unsigned u = 0; u < pm.colsPerRequest(); ++u) {
            const auto col =
                static_cast<ColAddr>(s * pm.colsPerRequest() + u);
            for (unsigned i = 0; i < k; ++i) {
                t.setBit(static_cast<RowAddr>(4 * i), col,
                         m.layer.weights[u][i]);
            }
            for (unsigned b = 0; b < thresholdBits(k); ++b) {
                t.setBit(static_cast<RowAddr>(4 * k + 1 + 2 * b), col,
                         static_cast<Bit>(
                             (m.layer.thresholds[u] >> b) & 1));
            }
        }
    }
}

void
refDeploySvm(Tile &t, const PackedModel &pm, const SvmServeModel &m)
{
    for (unsigned s = 0; s < pm.slots(); ++s) {
        for (unsigned u = 0; u < pm.colsPerRequest(); ++u) {
            const auto col =
                static_cast<ColAddr>(s * pm.colsPerRequest() + u);
            for (unsigned e = 0; e < m.dim; ++e) {
                for (unsigned b = 0; b < m.inputBits; ++b) {
                    t.setBit(
                        static_cast<RowAddr>(e * 2 * m.inputBits + 2 * b),
                        col,
                        static_cast<Bit>(
                            (m.svm.supportVectors[u][e] >> b) & 1));
                }
            }
        }
    }
}

/** Per-bit packInput; @p xBase is 0 for BNN rows (input i at 4i+2). */
void
refPack(Tile &t, const PackedModel &pm, unsigned slot, const Input &in,
        bool bnn, unsigned xBase)
{
    for (unsigned u = 0; u < pm.colsPerRequest(); ++u) {
        const auto col =
            static_cast<ColAddr>(slot * pm.colsPerRequest() + u);
        for (std::size_t e = 0; e < in.size(); ++e) {
            for (unsigned b = 0; b < pm.elementBits(); ++b) {
                const auto row = static_cast<RowAddr>(
                    bnn ? 4 * e + 2
                        : xBase + e * 2 * pm.elementBits() + 2 * b);
                t.setBit(row, col, static_cast<Bit>((in[e] >> b) & 1));
            }
        }
    }
}

/** Deploy, pack every slot, then clear every third slot, on a word
 *  grid and a per-bit reference grid; the tiles must agree after
 *  each step. */
void
expectPackDeployMatchesReference(const PackedModel &pm,
                                 const ArrayConfig &cfg,
                                 const GateLibrary &lib,
                                 const std::function<void(Tile &)> &ref,
                                 bool bnn, unsigned xBase)
{
    auto fast = noisyGrid(cfg, lib);
    auto slow = noisyGrid(cfg, lib);
    Tile &ft = fast->tile(0);
    Tile &st = slow->tile(0);

    pm.deployWeights(*fast);
    ref(st);
    ASSERT_EQ(ft.snapshot(), st.snapshot()) << "deployWeights";

    Rng rng(77);
    for (unsigned s = 0; s < pm.slots(); ++s) {
        const Input in = randomInput(rng, pm, pm.elementBits());
        pm.packInput(*fast, s, in);
        refPack(st, pm, s, in, bnn, xBase);
    }
    ASSERT_EQ(ft.snapshot(), st.snapshot()) << "packInput";

    for (unsigned s = 0; s < pm.slots(); s += 3) {
        pm.clearInput(*fast, s);
        refPack(st, pm, s, Input(pm.inputSize(), 0), bnn, xBase);
    }
    ASSERT_EQ(ft.snapshot(), st.snapshot()) << "clearInput";
}

TEST(ServePacking, BnnWordWritesMatchPerBitReference)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    Rng modelRng(61);
    // 5 classes: slots straddle 64-column words.  200 columns is not
    // a multiple of 64 and leaves a 0-column tail (40 slots end at
    // the tile edge); 203 leaves 3 columns no slot owns.
    for (unsigned cols : {200u, 203u, 64u}) {
        const BnnServeModel m = randomBnn(modelRng, 5);
        const ArrayConfig cfg = packConfig(cols);
        const PackedModel pm = PackedModel::compileBnn(lib, cfg, 0, m);
        ASSERT_EQ(pm.colsPerRequest(), 5u);
        expectPackDeployMatchesReference(
            pm, cfg, lib, [&](Tile &t) { refDeployBnn(t, pm, m); },
            true, 0);
    }
}

TEST(ServePacking, SvmWordWritesMatchPerBitReference)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    Rng modelRng(62);
    // 3 support vectors: 201 columns puts the 67th slot at the tile
    // edge, 200 leaves two columns no slot owns, 130 ends mid-word.
    for (unsigned cols : {201u, 200u, 130u}) {
        const SvmServeModel m = randomSvm(modelRng, 3);
        const ArrayConfig cfg = packConfig(cols);
        const PackedModel pm = PackedModel::compileSvm(lib, cfg, 0, m);
        ASSERT_EQ(pm.colsPerRequest(), 3u);
        expectPackDeployMatchesReference(
            pm, cfg, lib, [&](Tile &t) { refDeploySvm(t, pm, m); },
            false, m.dim * 2 * m.inputBits);
    }
}

// -- Model-affine claiming -------------------------------------------

/** The report without its host-clock and pool-size fields. */
std::string
deterministicReport(const InferenceService &svc)
{
    std::string j = svc.reportJson();
    const std::size_t from = j.find("\"workers\":");
    const std::size_t to = j.find("\"sim\":{");
    EXPECT_NE(from, std::string::npos);
    EXPECT_NE(to, std::string::npos);
    return j.erase(from, to - from);
}

TEST(ServeScheduling, InterleavedBatchesAgreeAtEveryWorkerCount)
{
    Rng modelRng(88);
    const BnnServeModel bnnModel = randomBnn(modelRng);
    const SvmServeModel svmModel = randomSvm(modelRng);
    constexpr unsigned kBatches = 12;  // 4 slots each

    auto run = [&](unsigned workers) {
        auto svc = std::make_unique<InferenceService>(
            smallConfig(workers));
        const ModelId bnn = svc->addModel(bnnModel);
        const ModelId svm = svc->addModel(svmModel);
        Rng rng(909);
        // Strictly alternating full batches: BNN, SVM, BNN, ...
        for (unsigned b = 0; b < kBatches; ++b) {
            const ModelId m = b % 2 == 0 ? bnn : svm;
            for (unsigned s = 0; s < 4; ++s) {
                svc->submit(m, randomInput(rng, svc->model(m),
                                           m == bnn ? 1 : kSvmInputBits));
            }
        }
        svc->drain();
        return svc;
    };
    const auto one = run(1);
    ASSERT_EQ(one->batchesRun(), kBatches);
    // One engine serves every BNN batch, then every SVM batch.
    EXPECT_LE(one->programLoads(), one->numModels());
    for (unsigned workers : {2u, 3u, 4u}) {
        const auto many = run(workers);
        EXPECT_EQ(many->stats()->toJson(), one->stats()->toJson())
            << workers << " workers";
        EXPECT_EQ(deterministicReport(*many), deterministicReport(*one))
            << workers << " workers";
        for (RequestId id = 0; id < kBatches * 4; ++id) {
            const ClassifyResult &a = one->result(id);
            const ClassifyResult &b = many->result(id);
            EXPECT_EQ(a.predicted, b.predicted) << "request " << id;
            EXPECT_EQ(a.batchId, b.batchId) << "request " << id;
            EXPECT_EQ(a.slot, b.slot) << "request " << id;
            EXPECT_EQ(a.simSeconds, b.simSeconds) << "request " << id;
            EXPECT_EQ(a.energy, b.energy) << "request " << id;
        }
    }
}

TEST(ServeScheduling, OneEngineLoadsEachModelOncePerDrain)
{
    Rng modelRng(89);
    InferenceService svc(smallConfig(1));
    const ModelId bnn = svc.addModel(randomBnn(modelRng));
    const ModelId svm = svc.addModel(randomSvm(modelRng));
    const Workload w = makeWorkload(svc, bnn, svm, 40, 31);
    submitAll(svc, w);
    svc.drain();
    EXPECT_GT(svc.batchesRun(), svc.numModels());
    EXPECT_LE(svc.programLoads(), svc.numModels());
    // A second drain starts on the model the engine still holds.
    const std::size_t before = svc.programLoads();
    const Workload again = makeWorkload(svc, bnn, svm, 40, 32);
    for (std::size_t i = 0; i < again.models.size(); ++i) {
        svc.submit(again.models[i], again.inputs[i]);
    }
    svc.drain();
    EXPECT_LE(svc.programLoads() - before, svc.numModels());
}

} // namespace
} // namespace mouse::serve
