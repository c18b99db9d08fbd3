/**
 * @file
 * Tests for the ML layer: synthetic datasets, SVM training and
 * integer inference, BNN inference on hand-built models, and — the
 * load-bearing one — bit-exact equivalence between software SVM
 * inference and the compiled in-array program.
 */

#include <cstdlib>
#include <fstream>

#include <gtest/gtest.h>

#include "controller/controller.hh"
#include "ml/bnn.hh"
#include "ml/dataset.hh"
#include "ml/mapping.hh"
#include "ml/svm.hh"

namespace mouse
{
namespace
{

TEST(Dataset, ShapesMatchPaper)
{
    EXPECT_EQ(shapeFeatures(DataShape::MnistLike), 784u);
    EXPECT_EQ(shapeClasses(DataShape::MnistLike), 10u);
    EXPECT_EQ(shapeFeatures(DataShape::HarLike), 561u);
    EXPECT_EQ(shapeClasses(DataShape::HarLike), 6u);
    EXPECT_EQ(shapeFeatures(DataShape::AdultLike), 15u);
    EXPECT_EQ(shapeClasses(DataShape::AdultLike), 2u);
}

TEST(Dataset, SyntheticIsDeterministicAndCoversClasses)
{
    const Dataset a = makeSynthetic(DataShape::HarLike, 200, 42);
    const Dataset b = makeSynthetic(DataShape::HarLike, 200, 42);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
    std::vector<bool> seen(a.numClasses, false);
    for (int y : a.y) {
        ASSERT_GE(y, 0);
        ASSERT_LT(y, static_cast<int>(a.numClasses));
        seen[static_cast<std::size_t>(y)] = true;
    }
    for (bool s : seen) {
        EXPECT_TRUE(s);
    }
}

TEST(Dataset, CsvRoundTrip)
{
    const Dataset orig = makeSynthetic(DataShape::AdultLike, 40, 21);
    const std::string path = ::testing::TempDir() + "mouse_ds.csv";
    saveCsv(orig, path);
    const Dataset back = loadCsv(path, orig.numClasses);
    EXPECT_EQ(back.numFeatures, orig.numFeatures);
    EXPECT_EQ(back.x, orig.x);
    EXPECT_EQ(back.y, orig.y);
}

TEST(Dataset, CsvRejectsBadLabels)
{
    const std::string path = ::testing::TempDir() + "mouse_bad.csv";
    {
        std::ofstream out(path);
        out << "1,2,3,9\n";  // label 9 with num_classes 2
    }
    EXPECT_EXIT(loadCsv(path, 2), ::testing::ExitedWithCode(1),
                "label");
}

TEST(Dataset, CsvSkipsCommentsAndBlanks)
{
    const std::string path = ::testing::TempDir() + "mouse_cmt.csv";
    {
        std::ofstream out(path);
        out << "# header\n\n10,20,1\n# trailing\n30,40,0\n";
    }
    const Dataset data = loadCsv(path, 2);
    ASSERT_EQ(data.size(), 2u);
    EXPECT_EQ(data.numFeatures, 2u);
    EXPECT_EQ(data.x[0][1], 20);
    EXPECT_EQ(data.y[1], 0);
}

TEST(Svm, DotAndKernelIntegerMath)
{
    const Features u = {1, 2, 3};
    const Features v = {4, 5, 6};
    EXPECT_EQ(dot(u, v), 4 + 10 + 18);
    EXPECT_EQ(static_cast<std::int64_t>(polyKernel2(u, v)), 32 * 32);
}

TEST(Svm, TrainsToHighAccuracyOnSeparableData)
{
    // Low-noise synthetic clusters are nearly separable; the kernel
    // perceptron should fit them nearly perfectly.
    const Dataset train =
        makeSynthetic(DataShape::AdultLike, 300, 7, 12.0);
    const Dataset test =
        makeSynthetic(DataShape::AdultLike, 200, 8, 12.0);
    const SvmModel model = trainSvm(train);
    EXPECT_GT(svmAccuracy(model, train), 0.95);
    EXPECT_GT(svmAccuracy(model, test), 0.90);
    EXPECT_GT(model.totalSupportVectors(), 0u);
    EXPECT_LE(model.maxSupportVectors(), train.size());
}

TEST(Svm, MultiClassOneVsRest)
{
    const Dataset train =
        makeSynthetic(DataShape::HarLike, 240, 17, 16.0);
    const SvmModel model = trainSvm(train);
    EXPECT_EQ(model.classifiers.size(), 6u);
    EXPECT_GT(svmAccuracy(model, train), 0.9);
}

TEST(Bnn, ShapesMatchPaperConfigs)
{
    const BnnShape finn = finnShape();
    EXPECT_EQ(finn.inputBits, 784u);
    EXPECT_EQ(finn.hiddenWidths,
              (std::vector<unsigned>{1024, 1024, 1024}));
    const BnnShape fp = fpBnnShape();
    EXPECT_EQ(fp.inputBits, 784u * 8);
    EXPECT_EQ(fp.hiddenWidths,
              (std::vector<unsigned>{2048, 2048, 2048}));
}

/** A BNN of @p shape with seeded random weight bits and thresholds. */
BnnModel
randomBnn(const BnnShape &shape, std::uint64_t seed)
{
    Rng rng(seed);
    const auto layer = [&rng](unsigned inputs, unsigned outputs) {
        BnnLayer l;
        l.inputs = inputs;
        l.outputs = outputs;
        l.weights.assign(outputs, std::vector<Bit>(inputs));
        for (auto &row : l.weights) {
            for (Bit &w : row) {
                w = static_cast<Bit>(rng.below(2));
            }
        }
        for (unsigned o = 0; o < outputs; ++o) {
            l.thresholds.push_back(
                static_cast<std::int32_t>(rng.below(inputs + 1)));
        }
        return l;
    };
    BnnModel model;
    unsigned prev = shape.inputBits;
    for (unsigned width : shape.hiddenWidths) {
        model.hidden.push_back(layer(prev, width));
        prev = width;
    }
    model.output = layer(prev, shape.numClasses);
    return model;
}

TEST(Bnn, WeightBitsCountsEveryLayer)
{
    const BnnModel model = randomBnn(BnnShape{784, {64, 64}, 10}, 5);
    EXPECT_EQ(model.weightBits(),
              784u * 64 + 64u * 64 + 64u * 10);
}

TEST(Bnn, ForwardIsDeterministicInteger)
{
    const BnnModel model = randomBnn(BnnShape{15, {16}, 2}, 11);
    Rng rng(12);
    std::vector<Bit> in(15);
    for (Bit &b : in) {
        b = static_cast<Bit>(rng.below(2));
    }
    const auto s1 = model.scores(in);
    const auto s2 = model.scores(in);
    EXPECT_EQ(s1, s2);
    ASSERT_EQ(s1.size(), 2u);
    for (std::int32_t score : s1) {
        // 2*popcount - 16 over 16 hidden bits: even, within +-16.
        EXPECT_LE(std::abs(score), 16);
        EXPECT_EQ(score % 2, 0);
    }

    // By hand, input 1011.  Hidden neuron 0 (weights 1010) matches 3
    // bits and fires at threshold 3; neuron 1 (weights 0100) matches
    // none and stays off at threshold 1.  On hidden bits 10, the
    // classes' weights 10, 01 and 11 match 2, 0 and 1 of 2 bits, so
    // they score 2*2-2, 2*0-2 and 2*1-2.
    BnnModel tiny;
    tiny.hidden.push_back({4, 2, {{1, 0, 1, 0}, {0, 1, 0, 0}}, {3, 1}});
    tiny.output = {2, 3, {{1, 0}, {0, 1}, {1, 1}}, {0, 0, 0}};
    const std::vector<Bit> x = {1, 0, 1, 1};
    EXPECT_EQ(tiny.hiddenForward(x), (std::vector<Bit>{1, 0}));
    EXPECT_EQ(tiny.scores(x), (std::vector<std::int32_t>{2, -2, 0}));
    EXPECT_EQ(tiny.predict(x), 0);
}

// ---------------------------------------------------------------------
// Mapping / layout model
// ---------------------------------------------------------------------

class MappingTech : public ::testing::TestWithParam<TechConfig>
{
  protected:
    GateLibrary lib_{makeDeviceConfig(GetParam())};
};

TEST_P(MappingTech, SvmLayoutInvariants)
{
    SvmWorkload work;
    work.name = "mnist";
    work.numSupportVectors = 11813;
    work.dim = 784;
    work.inputBits = 8;
    work.numClasses = 10;
    MouseShape shape;
    shape.numDataTiles = 448;

    MappingInfo info;
    const Trace trace = buildSvmTrace(lib_, work, shape, &info);

    EXPECT_GE(info.elementsPerColumn, 1u);
    EXPECT_EQ(info.colsPerUnit,
              (work.dim + info.elementsPerColumn - 1) /
                  info.elementsPerColumn);
    EXPECT_EQ(info.batches, 1u);  // everything fits at once
    EXPECT_LE(info.peakActiveColumns, shape.totalColumns());
    EXPECT_GT(trace.totalInstructions(), 100000u);
    // The paper's SVM MNIST instruction memory is 4.5 MB; ours must
    // land in the same regime (straight-line program).
    EXPECT_GT(info.instrMB, 1.0);
    EXPECT_LT(info.instrMB, 16.0);
    EXPECT_GT(info.dataMB, 8.0);
    EXPECT_LT(info.dataMB, 40.0);
}

TEST_P(MappingTech, BinarizedSvmIsMuchCheaper)
{
    SvmWorkload full;
    full.name = "mnist";
    full.numSupportVectors = 11813;
    full.dim = 784;
    full.inputBits = 8;
    full.numClasses = 10;

    SvmWorkload bin = full;
    bin.inputBits = 1;
    bin.numSupportVectors = 12214;
    bin.accBits = 11;
    bin.squareBits = 22;
    bin.scoreBits = 30;

    MouseShape big;
    big.numDataTiles = 448;
    MouseShape small;
    small.numDataTiles = 56;
    const Trace t_full = buildSvmTrace(lib_, full, big);
    const Trace t_bin = buildSvmTrace(lib_, bin, small);
    // Section IX: binarization replaces multiplications with AND
    // gates, cutting computation by several-fold.
    EXPECT_LT(t_bin.totalInstructions() * 4,
              t_full.totalInstructions());
}

TEST_P(MappingTech, BnnSmallArrayBatchesSequentially)
{
    // A one-tile array cannot hold FP-BNN's 26k columns at once; the
    // Section IV-C batching splits the layer into sequential chunks,
    // costing instructions (distribution re-runs per chunk).
    MouseShape tiny;
    tiny.numDataTiles = 1;
    MouseShape big;
    big.numDataTiles = 120;
    MappingInfo tiny_info;
    const Trace t_tiny =
        buildBnnTrace(lib_, fpBnnShape(), tiny, &tiny_info);
    const Trace t_big = buildBnnTrace(lib_, fpBnnShape(), big);
    EXPECT_LE(tiny_info.peakActiveColumns, 1024u);
    EXPECT_GT(t_tiny.totalInstructions(),
              t_big.totalInstructions());
}

TEST_P(MappingTech, BnnCapBelowOneNeuronIsFatal)
{
    MouseShape shape;
    shape.numDataTiles = 64;
    shape.maxActiveColumns = 1;  // less than one neuron's columns
    EXPECT_DEATH(buildBnnTrace(lib_, fpBnnShape(), shape),
                 "exceeds");
}

TEST_P(MappingTech, ParallelismCapForcesSvmBatches)
{
    SvmWorkload work;
    work.name = "adult";
    work.numSupportVectors = 1909;
    work.dim = 15;
    work.inputBits = 8;
    work.numClasses = 2;
    MouseShape shape;
    shape.numDataTiles = 7;

    MappingInfo unlimited;
    const Trace t_free = buildSvmTrace(lib_, work, shape, &unlimited);
    shape.maxActiveColumns = 64;
    MappingInfo capped;
    const Trace t_cap = buildSvmTrace(lib_, work, shape, &capped);

    EXPECT_EQ(unlimited.batches, 1u);
    EXPECT_GT(capped.batches, 1u);
    EXPECT_LE(capped.peakActiveColumns, 64u);
    // Serial batching costs latency: more total instructions.
    EXPECT_GT(t_cap.totalInstructions(), t_free.totalInstructions());
}

TEST_P(MappingTech, BnnConfigsScaleWithNetwork)
{
    MouseShape shape;
    shape.numDataTiles = 120;
    MappingInfo finn_info;
    MappingInfo fp_info;
    const Trace t_finn =
        buildBnnTrace(lib_, finnShape(), shape, &finn_info);
    const Trace t_fp =
        buildBnnTrace(lib_, fpBnnShape(), shape, &fp_info);
    // FP-BNN is the bigger network: more columns, more energy.
    EXPECT_GT(fp_info.peakActiveColumns,
              finn_info.peakActiveColumns);
    EXPECT_GT(t_fp.totalInstructions(),
              t_finn.totalInstructions());
}

INSTANTIATE_TEST_SUITE_P(AllTechs, MappingTech,
                         ::testing::Values(TechConfig::ModernStt,
                                           TechConfig::ProjectedStt,
                                           TechConfig::ProjectedShe),
                         [](const auto &info) {
                             switch (info.param) {
                               case TechConfig::ModernStt:
                                 return "ModernStt";
                               case TechConfig::ProjectedStt:
                                 return "ProjectedStt";
                               default:
                                 return "ProjectedShe";
                             }
                         });

// ---------------------------------------------------------------------
// End-to-end: the compiled kernel equals software inference, bit for
// bit, on the functional array.
// ---------------------------------------------------------------------

TEST(SvmOnArray, SquaredDotMatchesSoftwareExactly)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    ArrayConfig cfg;
    cfg.tileRows = 512;
    cfg.tileCols = 4;
    cfg.numDataTiles = 1;
    cfg.numInstructionTiles = 4096;

    // 4 support vectors (one per column), 6 elements, 4-bit features.
    constexpr unsigned dim = 6;
    constexpr unsigned input_bits = 4;
    constexpr unsigned acc_bits = 12;
    const RowAddr sv_base = 0;
    const RowAddr x_base =
        static_cast<RowAddr>(dim * 2 * input_bits);
    const unsigned first_free = 2 * dim * 2 * input_bits + 8;

    KernelBuilder kb(lib, cfg, 0, first_free);
    kb.activate(0, 3);
    Word square;
    buildSmallSvmKernel(kb, sv_base, x_base, dim, input_bits,
                        acc_bits, square);
    const Program prog = kb.finish();

    // Random SVs and input.
    Rng rng(2020);
    Features x(dim);
    for (auto &v : x) {
        v = static_cast<std::uint8_t>(rng.below(16));
    }
    std::vector<Features> svs(4, Features(dim));
    for (auto &sv : svs) {
        for (auto &v : sv) {
            v = static_cast<std::uint8_t>(rng.below(16));
        }
    }

    TileGrid grid(cfg, lib);
    for (ColAddr c = 0; c < 4; ++c) {
        for (unsigned e = 0; e < dim; ++e) {
            for (unsigned b = 0; b < input_bits; ++b) {
                grid.tile(0).setBit(
                    static_cast<RowAddr>(sv_base +
                                         e * 2 * input_bits + 2 * b),
                    c, (svs[c][e] >> b) & 1);
                grid.tile(0).setBit(
                    static_cast<RowAddr>(x_base +
                                         e * 2 * input_bits + 2 * b),
                    c, (x[e] >> b) & 1);
            }
        }
    }

    InstructionMemory imem(cfg);
    imem.load(prog.encode());
    EnergyModel energy(lib);
    Controller ctrl(grid, imem, energy);
    while (!ctrl.halted()) {
        ctrl.step();
    }

    for (ColAddr c = 0; c < 4; ++c) {
        std::int64_t hw = 0;
        for (std::size_t i = 0; i < square.size(); ++i) {
            hw |= static_cast<std::int64_t>(
                      grid.tile(0).bit(square[i].row, c))
                  << i;
        }
        const std::int64_t d = dot(svs[c], x);
        const std::int64_t expect =
            (d * d) &
            ((1ll << static_cast<int>(square.size())) - 1);
        EXPECT_EQ(hw, expect) << "support vector " << c;
    }
}

} // namespace
} // namespace mouse
