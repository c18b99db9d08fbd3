/**
 * @file
 * Tests for the gate-level compiler: every generated arithmetic
 * kernel is executed on the bit-exact functional array (through the
 * memory controller) and checked against software arithmetic, for
 * sweeps of operand values and in multiple SIMD columns at once.
 */

#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "common/rng.hh"
#include "compile/builder.hh"
#include "controller/controller.hh"

namespace mouse
{
namespace
{

/** Run @p prog on a fresh grid prepared by @p seed; return the grid. */
class BuilderHarness
{
  public:
    explicit BuilderHarness(TechConfig tech = TechConfig::ProjectedStt)
        : lib_(makeDeviceConfig(tech)), energy_(lib_)
    {
        cfg_.tileRows = 256;
        cfg_.tileCols = 8;
        cfg_.numDataTiles = 1;
        cfg_.numInstructionTiles = 512;
    }

    const ArrayConfig &config() const { return cfg_; }

    KernelBuilder
    makeBuilder(unsigned first_free_row)
    {
        return KernelBuilder(lib_, cfg_, 0, first_free_row);
    }

    /** Execute the program and return the final grid state. */
    TileGrid
    run(const Program &prog,
        const std::vector<std::tuple<RowAddr, ColAddr, Bit>> &seeds)
    {
        TileGrid grid(cfg_, lib_);
        for (const auto &[row, col, bit] : seeds) {
            grid.tile(0).setBit(row, col, bit);
        }
        InstructionMemory imem(cfg_);
        imem.load(prog.encode());
        Controller ctrl(grid, imem, energy_);
        int guard = 0;
        while (!ctrl.halted()) {
            ctrl.step();
            if (++guard > 2'000'000) {
                ADD_FAILURE() << "program did not halt";
                break;
            }
        }
        return grid;
    }

    /** Read a word laid out by pinnedWord() from one column. */
    static std::int64_t
    readWord(TileGrid &grid, const Word &w, ColAddr col,
             bool sign = false)
    {
        std::int64_t v = 0;
        for (std::size_t i = 0; i < w.size(); ++i) {
            v |= static_cast<std::int64_t>(grid.tile(0).bit(w[i].row,
                                                            col))
                 << i;
        }
        if (sign && grid.tile(0).bit(w.back().row, col)) {
            v -= static_cast<std::int64_t>(1) << w.size();
        }
        return v;
    }

    GateLibrary lib_;
    EnergyModel energy_;
    ArrayConfig cfg_;
};

/** Seed a word value into a column at pinned rows. */
void
seedWord(std::vector<std::tuple<RowAddr, ColAddr, Bit>> &seeds,
         const Word &w, ColAddr col, std::uint64_t value)
{
    for (std::size_t i = 0; i < w.size(); ++i) {
        seeds.emplace_back(w[i].row, col,
                           static_cast<Bit>((value >> i) & 1));
    }
}

TEST(Builder, LogicHelpersComputeCorrectly)
{
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(8);
    kb.activate(0, 3);
    const Val a = kb.pinned(0);
    const Val b = kb.pinned(2);
    const Val x = kb.xorSame(a, b);
    const Val n = kb.nand(a, b);
    const Val an = kb.andSame(a, b);
    const Val o = kb.orFlip(a, b);
    const Val xn = kb.xnorFlip(a, b);
    const Val nt = kb.not_(a);
    const Program prog = kb.finish();

    std::vector<std::tuple<RowAddr, ColAddr, Bit>> seeds;
    for (ColAddr c = 0; c < 4; ++c) {
        seeds.emplace_back(0, c, static_cast<Bit>(c & 1));
        seeds.emplace_back(2, c, static_cast<Bit>((c >> 1) & 1));
    }
    TileGrid grid = h.run(prog, seeds);
    for (ColAddr c = 0; c < 4; ++c) {
        const Bit av = c & 1;
        const Bit bv = (c >> 1) & 1;
        EXPECT_EQ(grid.tile(0).bit(x.row, c), av ^ bv) << "col " << c;
        EXPECT_EQ(grid.tile(0).bit(n.row, c), !(av && bv));
        EXPECT_EQ(grid.tile(0).bit(an.row, c), av && bv);
        EXPECT_EQ(grid.tile(0).bit(o.row, c), av || bv);
        EXPECT_EQ(grid.tile(0).bit(xn.row, c), !(av ^ bv));
        EXPECT_EQ(grid.tile(0).bit(nt.row, c), !av);
    }
}

TEST(Builder, FullAdderExhaustive)
{
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(8);
    kb.activate(0, 7);
    Val sum{};
    Val cout{};
    kb.fullAdder(kb.pinned(0), kb.pinned(2), kb.pinned(4), sum, cout);
    const Program prog = kb.finish();

    std::vector<std::tuple<RowAddr, ColAddr, Bit>> seeds;
    for (ColAddr c = 0; c < 8; ++c) {
        seeds.emplace_back(0, c, static_cast<Bit>(c & 1));
        seeds.emplace_back(2, c, static_cast<Bit>((c >> 1) & 1));
        seeds.emplace_back(4, c, static_cast<Bit>((c >> 2) & 1));
    }
    TileGrid grid = h.run(prog, seeds);
    for (ColAddr c = 0; c < 8; ++c) {
        const int total = (c & 1) + ((c >> 1) & 1) + ((c >> 2) & 1);
        EXPECT_EQ(grid.tile(0).bit(sum.row, c), total & 1)
            << "col " << c;
        EXPECT_EQ(grid.tile(0).bit(cout.row, c), total >> 1)
            << "col " << c;
    }
}

TEST(Builder, FullAdderUsesNineNands)
{
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(8);
    kb.activate(0, 0);
    Val sum{};
    Val cout{};
    kb.fullAdder(kb.pinned(0), kb.pinned(2), kb.pinned(4), sum, cout);
    const Program prog = kb.finish();
    // Paper Section II-B: a full-add is 9 NAND gates; the bitline
    // parity structure adds 2 BUF copies, and every gate output is
    // preceded by an explicit preset write.
    EXPECT_EQ(prog.countOpcode(Opcode::kGateNand2), 9u);
    EXPECT_EQ(prog.countOpcode(Opcode::kGateBuf), 2u);
    EXPECT_EQ(prog.countOpcode(Opcode::kPreset0) +
                  prog.countOpcode(Opcode::kPreset1),
              11u);
}

class AdderWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AdderWidth, RippleAddSweep)
{
    const unsigned bits = GetParam();
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(static_cast<unsigned>(4 * bits));
    kb.activate(0, 7);
    const Word a = kb.pinnedWord(0, bits);
    const Word b = kb.pinnedWord(static_cast<RowAddr>(2 * bits), bits);
    const Word s = kb.add(a, b);
    const Program prog = kb.finish();

    Rng rng(bits);
    std::vector<std::tuple<RowAddr, ColAddr, Bit>> seeds;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cases;
    for (ColAddr c = 0; c < 8; ++c) {
        const std::uint64_t av = rng.below(1u << bits);
        const std::uint64_t bv = rng.below(1u << bits);
        cases.emplace_back(av, bv);
        seedWord(seeds, a, c, av);
        seedWord(seeds, b, c, bv);
    }
    TileGrid grid = h.run(prog, seeds);
    for (ColAddr c = 0; c < 8; ++c) {
        EXPECT_EQ(BuilderHarness::readWord(grid, s, c),
                  static_cast<std::int64_t>(cases[c].first +
                                            cases[c].second))
            << "width " << bits << " col " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidth,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u));

TEST(Builder, SubtractorSignedResults)
{
    constexpr unsigned bits = 5;
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(4 * bits);
    kb.activate(0, 7);
    const Word a = kb.pinnedWord(0, bits);
    const Word b = kb.pinnedWord(2 * bits, bits);
    const Word d = kb.sub(a, b);
    const Program prog = kb.finish();

    std::vector<std::tuple<RowAddr, ColAddr, Bit>> seeds;
    // Operands are two's-complement 5-bit values: [-16, 15].
    const std::pair<int, int> cases[8] = {{0, 0},   {5, 3},   {3, 5},
                                          {15, -16}, {-16, 15}, {9, 9},
                                          {14, -13}, {1, -14}};
    for (ColAddr c = 0; c < 8; ++c) {
        seedWord(seeds, a, c,
                 static_cast<std::uint64_t>(cases[c].first) & 0x1F);
        seedWord(seeds, b, c,
                 static_cast<std::uint64_t>(cases[c].second) & 0x1F);
    }
    TileGrid grid = h.run(prog, seeds);
    for (ColAddr c = 0; c < 8; ++c) {
        EXPECT_EQ(BuilderHarness::readWord(grid, d, c, true),
                  cases[c].first - cases[c].second)
            << "col " << c;
    }
}

TEST(Builder, UnsignedMultiplySweep)
{
    constexpr unsigned bits = 4;
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(4 * bits + 24);
    kb.activate(0, 7);
    const Word a = kb.pinnedWord(0, bits);
    const Word b = kb.pinnedWord(2 * bits, bits);
    const Word p = kb.mulUnsigned(a, b);
    const Program prog = kb.finish();
    ASSERT_EQ(p.size(), 2 * bits);

    Rng rng(77);
    std::vector<std::tuple<RowAddr, ColAddr, Bit>> seeds;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cases;
    for (ColAddr c = 0; c < 8; ++c) {
        const std::uint64_t av = rng.below(16);
        const std::uint64_t bv = rng.below(16);
        cases.emplace_back(av, bv);
        seedWord(seeds, a, c, av);
        seedWord(seeds, b, c, bv);
    }
    TileGrid grid = h.run(prog, seeds);
    for (ColAddr c = 0; c < 8; ++c) {
        EXPECT_EQ(BuilderHarness::readWord(grid, p, c),
                  static_cast<std::int64_t>(cases[c].first *
                                            cases[c].second))
            << cases[c].first << "*" << cases[c].second;
    }
}

TEST(Builder, SignedMultiplySweep)
{
    constexpr unsigned bits = 4;
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(4 * bits + 24);
    kb.activate(0, 7);
    const Word a = kb.pinnedWord(0, bits);
    const Word b = kb.pinnedWord(2 * bits, bits);
    const Word p = kb.mulSigned(a, b);
    const Program prog = kb.finish();

    const std::pair<int, int> cases[8] = {{-8, 7}, {-1, -1}, {3, -5},
                                          {-7, -8}, {0, -3}, {7, 7},
                                          {-4, 4}, {1, -8}};
    std::vector<std::tuple<RowAddr, ColAddr, Bit>> seeds;
    for (ColAddr c = 0; c < 8; ++c) {
        seedWord(seeds, a, c,
                 static_cast<std::uint64_t>(cases[c].first) & 0xF);
        seedWord(seeds, b, c,
                 static_cast<std::uint64_t>(cases[c].second) & 0xF);
    }
    TileGrid grid = h.run(prog, seeds);
    for (ColAddr c = 0; c < 8; ++c) {
        EXPECT_EQ(BuilderHarness::readWord(grid, p, c, true),
                  cases[c].first * cases[c].second)
            << cases[c].first << "*" << cases[c].second;
    }
}

TEST(Builder, PopcountSweep)
{
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(32);
    kb.activate(0, 7);
    std::vector<Val> bits;
    for (unsigned i = 0; i < 10; ++i) {
        bits.push_back(kb.pinned(static_cast<RowAddr>(2 * i)));
    }
    const Word count = kb.popcount(bits);
    const Program prog = kb.finish();

    Rng rng(5);
    std::vector<std::tuple<RowAddr, ColAddr, Bit>> seeds;
    std::vector<int> expected(8, 0);
    for (ColAddr c = 0; c < 8; ++c) {
        for (unsigned i = 0; i < 10; ++i) {
            const Bit bit = static_cast<Bit>(rng.below(2));
            expected[c] += bit;
            seeds.emplace_back(static_cast<RowAddr>(2 * i), c, bit);
        }
    }
    TileGrid grid = h.run(prog, seeds);
    for (ColAddr c = 0; c < 8; ++c) {
        EXPECT_EQ(BuilderHarness::readWord(grid, count, c),
                  expected[c]);
    }
}

TEST(Builder, ScratchRowsAreRecycled)
{
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(32);
    kb.activate(0, 0);
    const Word a = kb.pinnedWord(0, 8);
    const Word b = kb.pinnedWord(16, 8);
    Word s = kb.add(a, b);
    kb.freeWord(s);
    // A full 8-bit ripple add must fit in far fewer live scratch rows
    // than gates executed (the paper's 7-temporaries-per-FA bound plus
    // the result bits).
    EXPECT_LE(kb.scratchHighWater(), 24u);
    Word s2 = kb.add(a, b);
    (void)s2;
    EXPECT_LE(kb.scratchHighWater(), 24u);
}

TEST(Builder, OutOfScratchRowsIsFatal)
{
    BuilderHarness h;
    EXPECT_EXIT(
        {
            KernelBuilder kb = h.makeBuilder(250);
            for (int i = 0; i < 10; ++i) {
                kb.constant(0, 0);
            }
        },
        ::testing::ExitedWithCode(1), "out of");
}

/**
 * Cross-technology sweep: the same kernels must compute correctly on
 * every device generation, even though the gate libraries differ
 * (modern STT loses OR2/MAJ3 and takes synthesis fallbacks).
 */
class BuilderTech : public ::testing::TestWithParam<TechConfig>
{
};

TEST_P(BuilderTech, LogicAndArithmeticAcrossTechnologies)
{
    BuilderHarness h(GetParam());
    KernelBuilder kb = h.makeBuilder(40);
    kb.activate(0, 7);
    // Logic helpers (orFlip takes the DeMorgan fallback on modern).
    const Val a = kb.pinned(0);
    const Val b = kb.pinned(2);
    const Val o = kb.orFlip(a, b);
    const Val x = kb.xorSame(a, b);
    // 4-bit multiply on top.
    const Word wa = kb.pinnedWord(8, 4);
    const Word wb = kb.pinnedWord(16, 4);
    const Word p = kb.mulUnsigned(wa, wb);
    const Program prog = kb.finish();

    Rng rng(static_cast<std::uint64_t>(GetParam()) + 40);
    std::vector<std::tuple<RowAddr, ColAddr, Bit>> seeds;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> cases;
    for (ColAddr c = 0; c < 8; ++c) {
        seeds.emplace_back(0, c, static_cast<Bit>(c & 1));
        seeds.emplace_back(2, c, static_cast<Bit>((c >> 1) & 1));
        const std::uint64_t av = rng.below(16);
        const std::uint64_t bv = rng.below(16);
        cases.emplace_back(av, bv);
        seedWord(seeds, wa, c, av);
        seedWord(seeds, wb, c, bv);
    }
    TileGrid grid = h.run(prog, seeds);
    for (ColAddr c = 0; c < 8; ++c) {
        const Bit av = c & 1;
        const Bit bv = (c >> 1) & 1;
        EXPECT_EQ(grid.tile(0).bit(o.row, c), av || bv);
        EXPECT_EQ(grid.tile(0).bit(x.row, c), av ^ bv);
        EXPECT_EQ(BuilderHarness::readWord(grid, p, c),
                  static_cast<std::int64_t>(cases[c].first *
                                            cases[c].second));
    }
}

INSTANTIATE_TEST_SUITE_P(AllTechs, BuilderTech,
                         ::testing::Values(TechConfig::ModernStt,
                                           TechConfig::ProjectedStt,
                                           TechConfig::ProjectedShe));

TEST(Builder, PopcountTreeMatchesLinearPopcount)
{
    // Both popcount forms must compute the same value on the array;
    // the tree form exists for gate-count, not semantics.
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(32);
    kb.activate(0, 7);
    std::vector<Val> bits_linear;
    std::vector<Val> bits_tree;
    for (unsigned i = 0; i < 9; ++i) {
        bits_linear.push_back(kb.pinned(static_cast<RowAddr>(2 * i)));
    }
    const Word linear = kb.popcount(bits_linear);
    // The tree consumes its inputs; feed it owned copies.
    for (unsigned i = 0; i < 9; ++i) {
        Val c = kb.copyFlip(kb.pinned(static_cast<RowAddr>(2 * i)));
        Val cc = kb.copyFlip(c);  // back to even parity
        kb.free(c);
        bits_tree.push_back(cc);
    }
    const Word tree = kb.popcountTree(std::move(bits_tree));
    const Program prog = kb.finish();

    Rng rng(14);
    std::vector<std::tuple<RowAddr, ColAddr, Bit>> seeds;
    std::vector<int> expected(8, 0);
    for (ColAddr c = 0; c < 8; ++c) {
        for (unsigned i = 0; i < 9; ++i) {
            const Bit b = static_cast<Bit>(rng.below(2));
            expected[c] += b;
            seeds.emplace_back(static_cast<RowAddr>(2 * i), c, b);
        }
    }
    TileGrid grid = h.run(prog, seeds);
    for (ColAddr c = 0; c < 8; ++c) {
        EXPECT_EQ(BuilderHarness::readWord(grid, linear, c),
                  expected[c]);
        EXPECT_EQ(BuilderHarness::readWord(grid, tree, c),
                  expected[c]);
    }
    // The tree form must not use more NANDs than the linear form.
    EXPECT_LT(prog.countOpcode(Opcode::kGateNand2), 2000u);
}

TEST(Builder, AsParityReturnsSameValOrFreshCopy)
{
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(8);
    kb.activate(0, 0);
    const Val even = kb.pinned(0);
    const Val same = kb.asParity(even, 0);
    EXPECT_EQ(same.row, even.row);  // no copy made
    const Val flipped = kb.asParity(even, 1);
    EXPECT_NE(flipped.row, even.row);
    EXPECT_EQ(flipped.parity(), 1u);
}

TEST(RowAllocatorTest, AllocNearPicksClosestFreeRow)
{
    RowAllocator rows(64, 0);
    const RowAddr near40 = rows.allocNear(0, 40);
    EXPECT_EQ(near40, 40);
    // 40 is taken; next-closest even rows are 38/42.
    const RowAddr next = rows.allocNear(0, 40);
    EXPECT_TRUE(next == 38 || next == 42);
    const RowAddr odd = rows.allocNear(1, 0);
    EXPECT_EQ(odd, 1);
    rows.release(near40);
    EXPECT_EQ(rows.allocNear(0, 41), 40);
}

TEST(Builder, TraceFromProgramMatchesCycleCount)
{
    BuilderHarness h;
    KernelBuilder kb = h.makeBuilder(32);
    kb.activate(0, 3);
    const Word a = kb.pinnedWord(0, 4);
    const Word b = kb.pinnedWord(8, 4);
    Word s = kb.add(a, b);
    (void)s;
    const Program prog = kb.finish();
    const Trace trace = Trace::fromProgram(prog, h.config());
    // HALT is excluded from the trace; everything else is 1 cycle.
    EXPECT_EQ(trace.totalInstructions(), prog.size() - 1);
    // All gate/preset blocks ran with 4 active columns.
    for (const TraceBlock &blk : trace.blocks) {
        if (isGateOpcode(blk.op) || blk.op == Opcode::kPreset0 ||
            blk.op == Opcode::kPreset1) {
            EXPECT_EQ(blk.touchedCols, 4u);
        }
    }
}

TEST(Builder, RecordsEveryFeasibilityQueryAndAnswer)
{
    // Modern STT loses OR2 at the default 0.05 margin and keeps it at
    // 0.03, so orFlip asks about OR2 on both and branches on it.
    const ArrayConfig cfg = BuilderHarness().config();
    const DeviceConfig modern = makeDeviceConfig(TechConfig::ModernStt);
    const GateLibrary strict(modern, 0.05);
    const GateLibrary loose(modern, 0.03);
    ASSERT_FALSE(strict.feasible(GateType::kOr2));
    ASSERT_TRUE(loose.feasible(GateType::kOr2));

    const auto compileOr = [&](const GateLibrary &lib) {
        KernelBuilder kb(lib, cfg, 0, 8);
        (void)kb.orFlip(kb.pinned(0), kb.pinned(2));
        return std::pair{kb.gateQueries(), kb.gateAnswers()};
    };
    const auto [strict_q, strict_a] = compileOr(strict);
    const auto [loose_q, loose_a] = compileOr(loose);
    // The fallback also asks about (and gets) NOT, NAND2 and BUF.
    EXPECT_EQ(strict_q, gateBit(GateType::kOr2) |
                            gateBit(GateType::kNot) |
                            gateBit(GateType::kNand2) |
                            gateBit(GateType::kBuf));
    EXPECT_EQ(strict_a, strict_q & ~gateBit(GateType::kOr2));
    EXPECT_EQ(loose_q, gateBit(GateType::kOr2));
    EXPECT_EQ(loose_a, gateBit(GateType::kOr2));

    // A trace carrying the strict answers is compiled for the strict
    // library only: the loose one answers the OR2 query differently.
    Trace trace;
    trace.gateQueries = strict_q;
    trace.gateAnswers = strict_a;
    EXPECT_TRUE(trace.compiledFor(strict));
    EXPECT_FALSE(trace.compiledFor(loose));
    // Queries the compile never asked do not matter.
    Trace nand_only;
    nand_only.gateQueries = gateBit(GateType::kNand2);
    nand_only.gateAnswers = gateBit(GateType::kNand2);
    EXPECT_TRUE(nand_only.compiledFor(strict));
    EXPECT_TRUE(nand_only.compiledFor(loose));
}

TEST(Builder, CountingBuilderMatchesRecordedProgram)
{
    // Each body is one of the kernels the sweeps above execute.
    using Body = std::function<void(KernelBuilder &)>;
    const auto pinned = [](KernelBuilder &kb, RowAddr start) {
        return kb.pinnedWord(start, 4);
    };
    const std::pair<const char *, Body> bodies[] = {
        {"add",
         [&](KernelBuilder &kb) {
             (void)kb.add(pinned(kb, 0), pinned(kb, 8));
         }},
        {"sub",
         [&](KernelBuilder &kb) {
             (void)kb.sub(pinned(kb, 0), pinned(kb, 8));
         }},
        {"mulUnsigned",
         [&](KernelBuilder &kb) {
             (void)kb.mulUnsigned(pinned(kb, 0), pinned(kb, 8));
         }},
        {"mulSigned",
         [&](KernelBuilder &kb) {
             (void)kb.mulSigned(pinned(kb, 0), pinned(kb, 8));
         }},
        {"popcount",
         [&](KernelBuilder &kb) {
             (void)kb.popcount(kb.pinnedWord(0, 10));
         }},
        {"popcountTree",
         [&](KernelBuilder &kb) {
             std::vector<Val> bits;
             for (unsigned i = 0; i < 9; ++i) {
                 bits.push_back(kb.constant(static_cast<Bit>(i & 1)));
             }
             (void)kb.popcountTree(std::move(bits));
         }},
        {"crossColumnSum",
         [&](KernelBuilder &kb) {
             (void)kb.crossColumnSum(pinned(kb, 0), 8,
                                     /*signed_values=*/true);
         }},
    };
    for (TechConfig tech : {TechConfig::ModernStt, TechConfig::ProjectedShe}) {
        BuilderHarness h(tech);
        for (const auto &[name, body] : bodies) {
            KernelBuilder rec = h.makeBuilder(32);
            body(rec);
            KernelBuilder count(h.lib_, h.config(), 0, 32,
                                KernelBuilder::Mode::kCount);
            body(count);
            EXPECT_EQ(count.opcodeCounts(), rec.opcodeCounts()) << name;
            EXPECT_EQ(count.gateQueries(), rec.gateQueries()) << name;
            EXPECT_EQ(count.gateAnswers(), rec.gateAnswers()) << name;
            EXPECT_EQ(count.scratchHighWater(), rec.scratchHighWater())
                << name;

            const Program prog = rec.finish();
            const KernelBuilder::OpcodeCounts &hist = rec.opcodeCounts();
            for (std::size_t op = 0; op < hist.size(); ++op) {
                EXPECT_EQ(hist[op],
                          prog.countOpcode(static_cast<Opcode>(op)))
                    << name << " opcode " << op;
            }
            EXPECT_EQ(hist[static_cast<std::size_t>(Opcode::kHalt)], 1u)
                << name;
        }
    }
}

TEST(Builder, CountingBuilderRefusesToFinish)
{
    BuilderHarness h;
    KernelBuilder kb(h.lib_, h.config(), 0, 8,
                     KernelBuilder::Mode::kCount);
    (void)kb.nand(kb.pinned(0), kb.pinned(2));
    EXPECT_DEATH((void)kb.finish(), "counting builder");
    EXPECT_DEATH(kb.activate(0, 3), "counting builder");
}

} // namespace
} // namespace mouse
