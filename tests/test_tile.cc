/**
 * @file
 * Tests for the tile-level functional model: column-parallel gate
 * execution, presets, row transfers, the parity rule, and the
 * interrupted-execution semantics behind Table I of the paper.
 */

#include <gtest/gtest.h>

#include "arch/tile.hh"
#include "arch/tile_grid.hh"
#include "common/rng.hh"

namespace mouse
{
namespace
{

class TileTest : public ::testing::Test
{
  protected:
    TileTest()
        : lib_(makeDeviceConfig(TechConfig::ProjectedStt)),
          tile_(64, 32)
    {
        active_ = ColumnSet(32);
    }

    GateLibrary lib_;
    Tile tile_;
    ColumnSet active_;
};

TEST_F(TileTest, BitSetGet)
{
    EXPECT_EQ(tile_.bit(0, 0), 0);
    tile_.setBit(5, 7, 1);
    EXPECT_EQ(tile_.bit(5, 7), 1);
    tile_.setBit(5, 7, 0);
    EXPECT_EQ(tile_.bit(5, 7), 0);
}

TEST_F(TileTest, NandAcrossActiveColumnsOnly)
{
    // Inputs at even rows 0 and 2, output at odd row 1.
    active_.add(0);
    active_.add(3);
    // col0: inputs 1,1 -> NAND 0; col3: inputs 1,0 -> NAND 1.
    tile_.setBit(0, 0, 1);
    tile_.setBit(2, 0, 1);
    tile_.setBit(0, 3, 1);
    tile_.setBit(2, 3, 0);
    // Preset both outputs to 0 (NAND preset).
    tile_.presetRow(lib_, 1, 0, active_);
    // A non-active column with switch-worthy inputs must not change.
    tile_.setBit(0, 5, 0);
    tile_.setBit(2, 5, 0);
    tile_.setBit(1, 5, 0);

    const GateExecResult r = tile_.executeGate(
        lib_, GateType::kNand2, {0, 2, 0}, 1, active_);
    EXPECT_EQ(r.columns, 2u);
    EXPECT_EQ(tile_.bit(1, 0), 0);
    EXPECT_EQ(tile_.bit(1, 3), 1);
    EXPECT_EQ(tile_.bit(1, 5), 0);  // untouched
    EXPECT_EQ(r.switched, 1u);
    EXPECT_GT(r.deviceEnergy, 0.0);
}

TEST_F(TileTest, AllGateTruthTablesInArray)
{
    // For every feasible gate, run all input combinations, one per
    // column, and check the array computes the truth table.
    for (GateType g : lib_.feasibleGates()) {
        const int n = gateNumInputs(g);
        const unsigned combos = 1u << n;
        ColumnSet cols(32);
        for (unsigned c = 0; c < combos; ++c) {
            cols.add(static_cast<ColAddr>(c));
            for (int i = 0; i < n; ++i) {
                tile_.setBit(static_cast<RowAddr>(2 * i),
                             static_cast<ColAddr>(c),
                             static_cast<Bit>((c >> i) & 1));
            }
        }
        tile_.presetRow(lib_, 7, gatePreset(g), cols);
        tile_.executeGate(lib_, g, {0, 2, 4}, 7, cols);
        for (unsigned c = 0; c < combos; ++c) {
            EXPECT_EQ(tile_.bit(7, static_cast<ColAddr>(c)),
                      gateTruth(g, c))
                << gateName(g) << " combo " << c;
        }
    }
}

TEST_F(TileTest, ParityRuleEnforced)
{
    active_.add(0);
    // Inputs on rows 0 and 1 have mixed parity vs output row 3.
    EXPECT_DEATH(tile_.executeGate(lib_, GateType::kNand2, {0, 1, 0},
                                   3, active_),
                 "parity");
    // Input parity equal to output parity is also illegal.
    EXPECT_DEATH(tile_.executeGate(lib_, GateType::kNand2, {1, 3, 0},
                                   5, active_),
                 "parity");
}

TEST_F(TileTest, InterruptedGateLeavesOutputUnchanged)
{
    active_.add(0);
    tile_.setBit(0, 0, 0);
    tile_.setBit(2, 0, 0);
    tile_.presetRow(lib_, 1, 0, active_);
    // Pulse occupies the head of the cycle; cutting at a tiny
    // fraction interrupts the pulse itself.
    const GateExecResult r = tile_.executeGate(
        lib_, GateType::kNand2, {0, 2, 0}, 1, active_, 1e-3);
    EXPECT_FALSE(r.completed);
    EXPECT_EQ(r.switched, 0u);
    EXPECT_EQ(tile_.bit(1, 0), 0);
    // Re-performing the full operation completes the NAND.
    tile_.executeGate(lib_, GateType::kNand2, {0, 2, 0}, 1, active_);
    EXPECT_EQ(tile_.bit(1, 0), 1);
}

TEST_F(TileTest, TableOneAllCases)
{
    // Reproduce the paper's Table I for every feasible gate and every
    // input combination: interrupt the operation either before or
    // after the switching point, re-perform it, and require the final
    // output to match an uninterrupted run.
    for (GateType g : lib_.feasibleGates()) {
        const int n = gateNumInputs(g);
        for (unsigned combo = 0; combo < (1u << n); ++combo) {
            for (double cut : {1e-4, 0.02, 0.5, 0.99}) {
                Tile t(16, 4);
                ColumnSet cols(4);
                cols.add(0);
                for (int i = 0; i < n; ++i) {
                    t.setBit(static_cast<RowAddr>(2 * i), 0,
                             static_cast<Bit>((combo >> i) & 1));
                }
                t.presetRow(lib_, 7, gatePreset(g), cols);
                // Interrupted attempt...
                t.executeGate(lib_, g, {0, 2, 4}, 7, cols, cut);
                // ...then the re-performed full operation.
                t.executeGate(lib_, g, {0, 2, 4}, 7, cols);
                EXPECT_EQ(t.bit(7, 0), gateTruth(g, combo))
                    << gateName(g) << " combo " << combo << " cut "
                    << cut;
            }
        }
    }
}

TEST_F(TileTest, GateRepetitionIsIdempotent)
{
    // Repeating a completed gate any number of times never changes
    // the output (directionality of the current).
    Rng rng(99);
    for (GateType g : lib_.feasibleGates()) {
        const int n = gateNumInputs(g);
        const unsigned combo =
            static_cast<unsigned>(rng.below(1u << n));
        Tile t(16, 2);
        ColumnSet cols(2);
        cols.add(0);
        for (int i = 0; i < n; ++i) {
            t.setBit(static_cast<RowAddr>(2 * i), 0,
                     static_cast<Bit>((combo >> i) & 1));
        }
        t.presetRow(lib_, 7, gatePreset(g), cols);
        t.executeGate(lib_, g, {0, 2, 4}, 7, cols);
        const Bit first = t.bit(7, 0);
        for (int rep = 0; rep < 5; ++rep) {
            t.executeGate(lib_, g, {0, 2, 4}, 7, cols);
            EXPECT_EQ(t.bit(7, 0), first) << gateName(g);
        }
    }
}

TEST_F(TileTest, RowTransferRoundTrip)
{
    std::vector<Bit> pattern(32);
    for (unsigned i = 0; i < 32; ++i) {
        pattern[i] = static_cast<Bit>((i * 7 + 3) & 1);
    }
    tile_.writeRow(lib_, 9, pattern);
    std::vector<Bit> back;
    tile_.readRow(lib_, 9, back);
    EXPECT_EQ(back, pattern);
}

TEST_F(TileTest, InterruptedWriteLeavesOldContents)
{
    std::vector<Bit> ones(32, 1);
    tile_.writeRow(lib_, 4, ones);
    std::vector<Bit> zeros(32, 0);
    tile_.writeRow(lib_, 4, zeros, 1e-3);  // interrupted mid-pulse
    std::vector<Bit> back;
    tile_.readRow(lib_, 4, back);
    EXPECT_EQ(back, ones);
}

TEST_F(TileTest, SnapshotReflectsAllBits)
{
    tile_.setBit(0, 0, 1);
    tile_.setBit(63, 31, 1);
    const auto snap = tile_.snapshot();
    EXPECT_EQ(snap.size(), 64u * 32u);
    EXPECT_EQ(snap[0], 1);
    EXPECT_EQ(snap[63 * 32 + 31], 1);
    EXPECT_EQ(snap[1], 0);
}

TEST(ColumnSetTest, AddRangeCountAndEnumerate)
{
    ColumnSet cols(128);
    cols.addRange(10, 20);
    cols.add(100);
    cols.add(100);  // duplicate is a no-op
    EXPECT_EQ(cols.count(), 12u);
    const auto list = cols.columns();
    ASSERT_EQ(list.size(), 12u);
    EXPECT_EQ(list.front(), 10);
    EXPECT_EQ(list.back(), 100);
    cols.clear();
    EXPECT_EQ(cols.count(), 0u);
    EXPECT_FALSE(cols.test(15));
}

/** Two identical tiles of a width that is not a multiple of 64, with
 *  a seeded random background: the word-wide host writes go to
 *  fast_, their per-bit setBit() reference to ref_. */
class TileFillTest : public ::testing::Test
{
  protected:
    static constexpr unsigned kRows = 8;
    static constexpr unsigned kCols = 200;

    TileFillTest() : fast_(kRows, kCols), ref_(kRows, kCols)
    {
        Rng rng(12);
        for (RowAddr r = 0; r < kRows; ++r) {
            for (ColAddr c = 0; c < kCols; ++c) {
                const Bit b = static_cast<Bit>(rng.below(2));
                fast_.setBit(r, c, b);
                ref_.setBit(r, c, b);
            }
        }
    }

    /** Per-bit reference of fillColumns. */
    void
    refFill(RowAddr row, ColAddr lo, ColAddr hi, Bit value)
    {
        for (unsigned c = lo; c <= hi; ++c) {
            ref_.setBit(row, static_cast<ColAddr>(c), value);
        }
    }

    Tile fast_;
    Tile ref_;
};

TEST_F(TileFillTest, SingleColumnWhenLoEqualsHi)
{
    fast_.fillColumns(3, 70, 70, 1);
    refFill(3, 70, 70, 1);
    fast_.fillColumns(4, 0, 0, 0);
    refFill(4, 0, 0, 0);
    fast_.fillColumns(5, kCols - 1, kCols - 1, 1);
    refFill(5, kCols - 1, kCols - 1, 1);
    EXPECT_EQ(fast_.snapshot(), ref_.snapshot());
}

TEST_F(TileFillTest, EmptyRangeWritesNothing)
{
    const auto before = fast_.snapshot();
    fast_.fillColumns(2, 9, 8, 1);
    EXPECT_EQ(fast_.snapshot(), before);
}

TEST_F(TileFillTest, RangesStraddlingWordsMatchPerBitWrites)
{
    // Inside one word, across one boundary, across two, and ending
    // at the tile edge inside the last (partial) word.
    const std::array<std::pair<ColAddr, ColAddr>, 5> ranges{
        {{5, 20}, {60, 70}, {63, 64}, {10, 150}, {130, kCols - 1}}};
    for (const auto &[lo, hi] : ranges) {
        for (Bit v : {Bit{1}, Bit{0}}) {
            const RowAddr row = static_cast<RowAddr>((lo + v) % kRows);
            fast_.fillColumns(row, lo, hi, v);
            refFill(row, lo, hi, v);
            ASSERT_EQ(fast_.snapshot(), ref_.snapshot())
                << lo << ".." << hi << " <- " << static_cast<int>(v);
        }
    }
}

TEST_F(TileFillTest, FullRowLeavesOtherRowsAlone)
{
    fast_.fillColumns(6, 0, kCols - 1, 1);
    refFill(6, 0, kCols - 1, 1);
    fast_.fillColumns(1, 0, kCols - 1, 0);
    refFill(1, 0, kCols - 1, 0);
    EXPECT_EQ(fast_.snapshot(), ref_.snapshot());
    for (ColAddr c = 0; c < kCols; ++c) {
        EXPECT_EQ(fast_.bit(6, c), 1);
        EXPECT_EQ(fast_.bit(1, c), 0);
    }
}

TEST_F(TileFillTest, OutOfTileRangeAsserts)
{
    EXPECT_DEATH(fast_.fillColumns(0, 190, kCols, 1), "OOB");
    EXPECT_DEATH(fast_.fillColumns(kRows, 0, 3, 1), "OOB");
}

TEST_F(TileFillTest, MaskedRowWriteMatchesPerBitWrites)
{
    Rng rng(34);
    constexpr unsigned kWords = (kCols + 63) / 64;
    std::vector<std::uint64_t> words(kWords);
    std::vector<std::uint64_t> mask(kWords);
    for (unsigned w = 0; w < kWords; ++w) {
        words[w] = rng.next();
        mask[w] = rng.next();
    }
    mask[kWords - 1] &= (1ULL << (kCols & 63)) - 1;
    fast_.setRowWords(2, words, mask);
    for (ColAddr c = 0; c < kCols; ++c) {
        if ((mask[c >> 6] >> (c & 63)) & 1) {
            ref_.setBit(2, c,
                        static_cast<Bit>((words[c >> 6] >> (c & 63)) & 1));
        }
    }
    EXPECT_EQ(fast_.snapshot(), ref_.snapshot());

    mask[kWords - 1] |= 1ULL << (kCols & 63);
    EXPECT_DEATH(fast_.setRowWords(2, words, mask), "OOB");
}

TEST(TileGridTest, ExecuteInstructionsEndToEnd)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    ArrayConfig cfg;
    cfg.tileRows = 32;
    cfg.tileCols = 16;
    cfg.numDataTiles = 2;
    TileGrid grid(cfg, lib);

    // Activate columns 0..3 and run a NAND in tile 1.
    grid.execute(Instruction::activateRange(0, 3));
    EXPECT_EQ(grid.activeColumns().count(), 4u);

    grid.tile(1).setBit(0, 2, 1);
    grid.tile(1).setBit(2, 2, 1);
    grid.execute(Instruction::preset(0, 1, 1));
    grid.execute(
        Instruction::gate(GateType::kNand2, 1, 0, 2, 1));
    EXPECT_EQ(grid.tile(1).bit(1, 2), 0);  // 1 NAND 1 = 0
    EXPECT_EQ(grid.tile(1).bit(1, 0), 1);  // 0 NAND 0 = 1

    // Row transfer between tiles through the buffer.
    grid.execute(Instruction::readRow(1, 1));
    grid.execute(Instruction::writeRow(0, 5));
    EXPECT_EQ(grid.tile(0).bit(5, 0), 1);
    EXPECT_EQ(grid.tile(0).bit(5, 2), 0);
}

TEST(TileGridTest, PowerLossClearsLatchOnly)
{
    const GateLibrary lib(makeDeviceConfig(TechConfig::ProjectedStt));
    ArrayConfig cfg;
    cfg.tileRows = 16;
    cfg.tileCols = 8;
    cfg.numDataTiles = 1;
    TileGrid grid(cfg, lib);
    grid.execute(Instruction::activateRange(0, 7));
    grid.tile(0).setBit(3, 3, 1);
    grid.powerLoss();
    EXPECT_EQ(grid.activeColumns().count(), 0u);
    EXPECT_EQ(grid.tile(0).bit(3, 3), 1);  // MTJs persist
}

TEST(InstructionMemoryTest, LoadFetchAndCapacity)
{
    ArrayConfig cfg;
    cfg.tileRows = 16;
    cfg.tileCols = 16;
    cfg.numInstructionTiles = 1;
    InstructionMemory imem(cfg);
    EXPECT_EQ(cfg.instructionCapacity(), 4u);  // 256 bits / 64

    imem.load({1, 2, 3});
    EXPECT_EQ(imem.size(), 3u);
    EXPECT_EQ(imem.fetch(2), 3u);
}

} // namespace
} // namespace mouse
