/**
 * @file
 * Differential tests for the word-parallel gate execution fast path:
 * the word path and the retained per-column scalar oracle
 * (Tile::setScalarOracle) must produce bit-identical MTJ state for
 * every gate type, technology, margin, random column mask, un-preset
 * output, and cycle_fraction — including partial-pulse interrupts —
 * and matching switch/column counts.  Odd tile widths, active sets
 * confined to one high word and one row wired to several inputs are
 * covered too.  Device energy is compared to a tight relative
 * tolerance (the word path folds per-bucket popcount multiplies
 * instead of a per-column sum, so the totals may differ in ulps).
 */

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include <gtest/gtest.h>

#include "arch/tile.hh"
#include "common/rng.hh"
#include "logic/gate_library.hh"

namespace mouse
{
namespace
{

/** Scoped switch into the scalar oracle, restored on exit. */
class ScalarOracleGuard
{
  public:
    ScalarOracleGuard() { Tile::setScalarOracle(true); }
    ~ScalarOracleGuard() { Tile::setScalarOracle(false); }
};

void
expectEnergyNear(Joules a, Joules b)
{
    const double tol =
        1e-9 * std::max({std::fabs(a), std::fabs(b), 1e-30});
    EXPECT_NEAR(a, b, tol);
}

/** Fill both tiles with identical random contents. */
void
randomFill(Tile &a, Tile &b, Rng &rng)
{
    for (RowAddr r = 0; r < a.numRows(); ++r) {
        for (ColAddr c = 0; c < a.numCols(); ++c) {
            const Bit v = static_cast<Bit>(rng.below(2));
            a.setBit(r, c, v);
            b.setBit(r, c, v);
        }
    }
}

ColumnSet
randomColumns(unsigned cols, Rng &rng)
{
    ColumnSet set(cols);
    // Mix densities so both sparse masks and full words occur.
    const double density = rng.uniform();
    for (ColAddr c = 0; c < cols; ++c) {
        if (rng.uniform() < density) {
            set.add(c);
        }
    }
    return set;
}

/**
 * Execute one gate on two identically-filled tiles — word path vs
 * scalar oracle — and require bit-identical state and bookkeeping.
 */
void
diffGate(const GateLibrary &lib, GateType g, Tile &word, Tile &scalar,
         const std::array<RowAddr, 3> &in_rows, RowAddr out_row,
         const ColumnSet &active, double cycle_fraction = 1.0)
{
    const GateExecResult rw = word.executeGate(
        lib, g, in_rows, out_row, active, cycle_fraction);
    GateExecResult rs;
    {
        ScalarOracleGuard oracle;
        rs = scalar.executeGate(lib, g, in_rows, out_row, active,
                                cycle_fraction);
    }

    EXPECT_EQ(word.snapshot(), scalar.snapshot())
        << "gate " << gateName(g) << " width " << word.numCols()
        << " fraction " << cycle_fraction;
    EXPECT_EQ(rw.switched, rs.switched);
    EXPECT_EQ(rw.columns, rs.columns);
    EXPECT_EQ(rw.completed, rs.completed);
    expectEnergyNear(rw.deviceEnergy, rs.deviceEnergy);
}

/** diffGate on random contents, a random column mask and distinct
 *  random operand rows. */
void
diffExecute(const GateLibrary &lib, GateType g, unsigned rows,
            unsigned cols, double cycle_fraction, Rng &rng)
{
    const int n = gateNumInputs(g);
    Tile word(rows, cols);
    Tile scalar(rows, cols);
    randomFill(word, scalar, rng);
    const ColumnSet active = randomColumns(cols, rng);

    // Distinct even input rows, odd output row (parity rule).
    std::array<RowAddr, 3> in_rows{0, 0, 0};
    for (int i = 0; i < n; ++i) {
        RowAddr r;
        bool fresh;
        do {
            r = static_cast<RowAddr>(2 * rng.below(rows / 2));
            fresh = true;
            for (int j = 0; j < i; ++j) {
                fresh &= in_rows[static_cast<std::size_t>(j)] != r;
            }
        } while (!fresh);
        in_rows[static_cast<std::size_t>(i)] = r;
    }
    const RowAddr out_row =
        static_cast<RowAddr>(1 + 2 * rng.below(rows / 2));
    diffGate(lib, g, word, scalar, in_rows, out_row, active,
             cycle_fraction);
}

/** Sweep every feasible gate of @p lib over interrupt fractions and
 *  random masks/contents; tile width crosses a word boundary. */
void
diffSweep(const GateLibrary &lib, std::uint64_t seed)
{
    // 96 columns = one full word plus a 32-bit tail; 64 rows.
    const unsigned rows = 64;
    const unsigned cols = 96;
    const DeviceConfig &cfg = lib.config();
    for (GateType g : lib.feasibleGates()) {
        const SolvedGate &solved = lib.gate(g);
        const double pf = solved.pulseTime / cfg.cycleTime;
        const double fractions[] = {
            1.0,                         // uninterrupted
            0.0,                         // cut at cycle start
            pf * 0.5,                    // mid-pulse
            std::nextafter(pf, 0.0),     // just inside the pulse
            pf,                          // exact pulse boundary
            (pf + 1.0) * 0.5,            // after the pulse
        };
        Rng rng(seed ^ static_cast<std::uint64_t>(g));
        for (double f : fractions) {
            for (int trial = 0; trial < 3; ++trial) {
                diffExecute(lib, g, rows, cols, f, rng);
            }
        }
    }
}

TEST(TileFastPath, MatchesScalarOracleAllTechsAndMargins)
{
    const TechConfig techs[] = {TechConfig::ModernStt,
                                TechConfig::ProjectedStt,
                                TechConfig::ProjectedShe};
    const double margins[] = {kDefaultGateMargin, 0.02};
    std::uint64_t seed = 1;
    for (TechConfig tech : techs) {
        for (double margin : margins) {
            const GateLibrary lib(makeDeviceConfig(tech), margin);
            diffSweep(lib, seed++);
        }
    }
}

TEST(TileFastPath, MatchesScalarOracleWithWireParasitics)
{
    // Non-zero per-cell wire resistance makes the operating table
    // span-dependent: the fast path must rebuild it per call from
    // the factored combo resistances, still bit-exactly.
    const TechConfig techs[] = {TechConfig::ProjectedStt,
                                TechConfig::ProjectedShe};
    std::uint64_t seed = 101;
    for (TechConfig tech : techs) {
        const DeviceConfig cfg =
            withParasitics(makeDeviceConfig(tech), 2.0);
        const GateLibrary lib(cfg);
        diffSweep(lib, seed++);
    }
}

TEST(TileFastPath, MatchesScalarOracleAtOddWidths)
{
    // Widths below, at and just past a word boundary, and a
    // many-word row with a partial last word; SHE has a feasible
    // gate of every arity.
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedShe));
    const DeviceConfig &cfg = lib.config();
    Rng rng(41);
    for (unsigned cols : {1u, 63u, 65u, 100u, 1000u}) {
        for (GateType g : lib.feasibleGates()) {
            const double pf = lib.gate(g).pulseTime / cfg.cycleTime;
            for (double f : {1.0, pf * 0.5}) {
                diffExecute(lib, g, 8, cols, f, rng);
            }
        }
    }
}

TEST(TileFastPath, ActiveSetInOneHighWordMatchesScalar)
{
    // Every active column sits in the last word (a partial one at
    // width 1000); the lower words must be skipped, not misread.
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedShe));
    Rng rng(43);
    for (unsigned cols : {1000u, 1024u}) {
        for (GateType g : lib.feasibleGates()) {
            Tile word(8, cols);
            Tile scalar(8, cols);
            randomFill(word, scalar, rng);
            ColumnSet active(cols);
            for (ColAddr c = 960; c < cols; ++c) {
                if (rng.below(2) == 0) {
                    active.add(c);
                }
            }
            active.add(static_cast<ColAddr>(cols - 1));
            diffGate(lib, g, word, scalar, {0, 2, 4}, 1, active);
        }
    }
}

TEST(TileFastPath, AliasedInputRowsMatchScalar)
{
    // One row wired to several gate inputs: only the combos whose
    // aliased bits agree can occur.
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedShe));
    struct Case
    {
        GateType g;
        std::array<RowAddr, 3> in;
    };
    const Case cases[] = {
        {GateType::kNand2, {2, 2, 0}},
        {GateType::kNor2, {4, 4, 0}},
        {GateType::kMaj3, {0, 0, 2}},
        {GateType::kMaj3, {0, 2, 0}},
        {GateType::kMaj3, {2, 0, 0}},
        {GateType::kAnd3, {4, 4, 4}},
    };
    Rng rng(47);
    for (const Case &c : cases) {
        Tile word(8, 100);
        Tile scalar(8, 100);
        randomFill(word, scalar, rng);
        const ColumnSet active = randomColumns(100, rng);
        diffGate(lib, c.g, word, scalar, c.in, 1, active);
    }
}

TEST(TileFastPath, UnPresetOutputsMatchScalar)
{
    // Force the output row to the non-preset state everywhere: no
    // column may switch (directionality), and the energy must be the
    // honest already-switched current, identically in both paths.
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedStt));
    Rng rng(7);
    for (GateType g : lib.feasibleGates()) {
        Tile word(8, 96);
        Tile scalar(8, 96);
        randomFill(word, scalar, rng);
        const Bit anti = static_cast<Bit>(!gatePreset(g));
        for (ColAddr c = 0; c < 96; ++c) {
            word.setBit(1, c, anti);
            scalar.setBit(1, c, anti);
        }
        ColumnSet active(96);
        active.addRange(0, 95);
        const GateExecResult rw =
            word.executeGate(lib, g, {0, 2, 4}, 1, active);
        GateExecResult rs;
        {
            ScalarOracleGuard oracle;
            rs = scalar.executeGate(lib, g, {0, 2, 4}, 1, active);
        }
        EXPECT_EQ(rw.switched, 0u);
        EXPECT_EQ(rs.switched, 0u);
        EXPECT_EQ(word.snapshot(), scalar.snapshot());
        expectEnergyNear(rw.deviceEnergy, rs.deviceEnergy);
    }
}

TEST(TileFastPath, EmptyAndFullMasksMatchScalar)
{
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedShe));
    Tile word(8, 64);
    Tile scalar(8, 64);
    Rng rng(11);
    randomFill(word, scalar, rng);

    ColumnSet none(64);
    ColumnSet all(64);
    all.addRange(0, 63);
    for (const ColumnSet *active : {&none, &all}) {
        const GateExecResult rw = word.executeGate(
            lib, GateType::kNand2, {0, 2, 0}, 1, *active);
        GateExecResult rs;
        {
            ScalarOracleGuard oracle;
            rs = scalar.executeGate(lib, GateType::kNand2, {0, 2, 0},
                                    1, *active);
        }
        EXPECT_EQ(rw.columns, active->count());
        EXPECT_EQ(rw.switched, rs.switched);
        EXPECT_EQ(word.snapshot(), scalar.snapshot());
        expectEnergyNear(rw.deviceEnergy, rs.deviceEnergy);
    }
}

TEST(TileFastPath, PresetRowInterruptionAcrossWordBoundary)
{
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedStt));
    const double pf = lib.writeOp().pulseTime /
                      lib.config().cycleTime;
    Tile tile(4, 96);
    ColumnSet active(96);
    active.add(0);
    active.add(63);
    active.add(64);
    active.add(95);

    // Interrupt inside the write pulse: contents keep, energy scales.
    const Joules partial =
        tile.presetRow(lib, 1, 1, active, pf * 0.25);
    for (ColAddr c : active.columns()) {
        EXPECT_EQ(tile.bit(1, c), 0);
    }
    const Joules full = tile.presetRow(lib, 1, 1, active, 1.0);
    for (ColAddr c : active.columns()) {
        EXPECT_EQ(tile.bit(1, c), 1);
    }
    EXPECT_EQ(tile.bit(1, 1), 0);
    EXPECT_EQ(tile.bit(1, 65), 0);
    expectEnergyNear(partial, full * 0.25);

    // Preset back to 0 only where active.
    tile.presetRow(lib, 1, 0, active, 1.0);
    for (ColAddr c : active.columns()) {
        EXPECT_EQ(tile.bit(1, c), 0);
    }
}

TEST(TileFastPath, PresetRowChargesOnePulsePerActiveColumn)
{
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedStt));
    const WriteOp &w = lib.writeOp();
    const double pf = w.pulseTime / lib.config().cycleTime;
    Rng rng(53);
    for (unsigned cols : {1u, 63u, 65u, 100u, 1000u}) {
        const ColumnSet active = randomColumns(cols, rng);
        const double pulses =
            static_cast<double>(active.columns().size());
        Tile tile(4, cols);

        const Joules full = tile.presetRow(lib, 1, 1, active, 1.0);
        EXPECT_EQ(full, pulses * w.energy) << "width " << cols;
        const Joules cut = tile.presetRow(lib, 3, 1, active, pf * 0.5);
        expectEnergyNear(cut, pulses * w.energy * 0.5);
        for (ColAddr c = 0; c < cols; ++c) {
            EXPECT_EQ(tile.bit(1, c), active.test(c) ? 1 : 0);
            EXPECT_EQ(tile.bit(3, c), 0);
        }
    }
}

TEST(TileFastPath, WriteReadRowRoundTripAcrossWordBoundary)
{
    const GateLibrary lib(
        makeDeviceConfig(TechConfig::ProjectedShe));
    Tile tile(4, 70);
    Rng rng(23);
    std::vector<Bit> data(70);
    for (Bit &b : data) {
        b = static_cast<Bit>(rng.below(2));
    }
    const double pf = lib.writeOp().pulseTime /
                      lib.config().cycleTime;
    // Interrupted write leaves the row untouched.
    tile.writeRow(lib, 2, data, pf * 0.5);
    std::vector<Bit> readback;
    tile.readRow(lib, 2, readback);
    EXPECT_EQ(readback, std::vector<Bit>(70, 0));
    // Complete write round-trips.
    tile.writeRow(lib, 2, data, 1.0);
    tile.readRow(lib, 2, readback);
    EXPECT_EQ(readback, data);
}

TEST(TileFastPath, ColumnSetWordsAgreeWithEnumeration)
{
    Rng rng(31);
    ColumnSet set(200);
    for (ColAddr c = 0; c < 200; ++c) {
        if (rng.below(3) == 0) {
            set.add(c);
        }
    }
    // word()/numWords() expose exactly the membership columns() and
    // forEachColumn() enumerate.
    std::vector<ColAddr> from_words;
    for (unsigned w = 0; w < set.numWords(); ++w) {
        std::uint64_t bits = set.word(w);
        while (bits) {
            const int b = __builtin_ctzll(bits);
            from_words.push_back(
                static_cast<ColAddr>(w * 64 + static_cast<unsigned>(b)));
            bits &= bits - 1;
        }
    }
    EXPECT_EQ(from_words, set.columns());
    std::vector<ColAddr> visited;
    set.forEachColumn([&](ColAddr c) { visited.push_back(c); });
    EXPECT_EQ(visited, set.columns());
    EXPECT_EQ(set.count(), visited.size());
}

TEST(TileFastPath, AddRangeMatchesPerColumnAdds)
{
    // Ranges inside one word, across word boundaries and ending in a
    // partial word, over sets that already hold some members.
    Rng rng(59);
    for (unsigned cols : {1u, 63u, 64u, 65u, 100u, 1000u, 1024u}) {
        for (int trial = 0; trial < 40; ++trial) {
            ColumnSet ranged(cols);
            ColumnSet single(cols);
            for (int k = 0; k < 3; ++k) {
                const auto c = static_cast<ColAddr>(rng.below(cols));
                ranged.add(c);
                single.add(c);
            }
            auto lo = static_cast<ColAddr>(rng.below(cols));
            auto hi = static_cast<ColAddr>(rng.below(cols));
            if (trial == 0) {
                lo = 0;
                hi = static_cast<ColAddr>(cols - 1);
            }
            if (lo > hi) {
                std::swap(lo, hi);
            }
            ranged.addRange(lo, hi);
            for (unsigned c = lo; c <= hi; ++c) {
                single.add(static_cast<ColAddr>(c));
            }
            ASSERT_EQ(ranged.count(), single.count())
                << cols << " [" << lo << ", " << hi << "]";
            for (unsigned w = 0; w < ranged.numWords(); ++w) {
                ASSERT_EQ(ranged.word(w), single.word(w));
            }
        }
    }
    // An empty range (lo > hi) adds nothing.
    ColumnSet set(128);
    set.addRange(70, 69);
    EXPECT_EQ(set.count(), 0u);
    EXPECT_EQ(set.word(1), 0u);
}

} // namespace
} // namespace mouse
