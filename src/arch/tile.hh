/**
 * @file
 * One MOUSE tile: a 1024x1024 STT/SHE MRAM array with in-array logic
 * (paper Section II-C, Figure 5).
 *
 * The tile is the bit-exact functional model.  Every stored bit is an
 * MTJ state; logic instructions are executed *physically*: the gate
 * current depends on the actual input MTJ resistances through the
 * solved operating voltage, and the output MTJ switches iff that
 * current exceeds the critical current — with the direction
 * constraint that makes every operation idempotent.
 *
 * Execution is word-parallel: the current depends only on (packed
 * input combo, actual output state, operand row span), so each
 * 64-column word is evaluated by deriving per-combo membership masks
 * from the input row planes with bitwise ops and folding popcounts
 * against a ≤16-entry operating table (GateOpTable), in a word loop
 * specialised at compile time for the gate's arity.  The original
 * per-column scalar model is retained behind setScalarOracle() as
 * the differential-testing oracle; see docs/ARCHITECTURE.md
 * ("Functional fast path").
 *
 * Interrupted execution is modelled explicitly: an instruction cycle
 * of length cycleTime carries its current pulse in the first
 * pulseTime seconds; an interrupt before the pulse completes leaves
 * all output MTJs unswitched, an interrupt after it behaves like a
 * completed operation whose bookkeeping was lost.  Tests use this to
 * prove the paper's Table I for every gate and input combination.
 */

#ifndef MOUSE_ARCH_TILE_HH
#define MOUSE_ARCH_TILE_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "logic/gate_library.hh"

namespace mouse
{

/** The columns of 64-column word @p w that lie in lo..hi inclusive
 *  (@pre lo/64 <= w <= hi/64). */
inline std::uint64_t
columnRangeWord(unsigned w, unsigned lo, unsigned hi)
{
    std::uint64_t fill = ~0ULL;
    if (w == (lo >> 6)) {
        fill &= ~0ULL << (lo & 63);
    }
    if (w == (hi >> 6)) {
        fill &= ~0ULL >> (63 - (hi & 63));
    }
    return fill;
}

/** Set of active (latched) columns of the array. */
class ColumnSet
{
  public:
    explicit ColumnSet(unsigned num_cols = 1024)
        : words_((num_cols + 63) / 64, 0), numCols_(num_cols)
    {}

    unsigned size() const { return numCols_; }

    void
    clear()
    {
        for (auto &w : words_) {
            w = 0;
        }
        count_ = 0;
    }

    void
    add(ColAddr col)
    {
        if (!test(col)) {
            words_[col >> 6] |= (1ULL << (col & 63));
            ++count_;
        }
    }

    /** Add columns lo..hi inclusive (none when lo > hi), a whole
     *  64-column word at a time. */
    void addRange(ColAddr lo, ColAddr hi);

    bool
    test(ColAddr col) const
    {
        return (words_[col >> 6] >> (col & 63)) & 1;
    }

    /** Number of currently active columns. */
    unsigned count() const { return count_; }

    /** Number of 64-column machine words backing the set. */
    unsigned
    numWords() const
    {
        return static_cast<unsigned>(words_.size());
    }

    /** Raw 64-column membership word @p w (bit c = column 64w+c). */
    std::uint64_t word(unsigned w) const { return words_[w]; }

    /**
     * Visit active columns in ascending order without materializing
     * a vector — the hot-path replacement for columns().
     */
    template <typename Fn>
    void
    forEachColumn(Fn &&fn) const
    {
        for (unsigned w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits) {
                const int b = __builtin_ctzll(bits);
                fn(static_cast<ColAddr>(w * 64 +
                                        static_cast<unsigned>(b)));
                bits &= bits - 1;
            }
        }
    }

    /** Enumerate active columns in ascending order.  Allocates; kept
     *  for tests and debug dumps only — hot paths use word()/
     *  forEachColumn(). */
    std::vector<ColAddr> columns() const;

  private:
    std::vector<std::uint64_t> words_;
    unsigned numCols_;
    unsigned count_ = 0;
};

/** Outcome summary of a column-parallel gate execution. */
struct GateExecResult
{
    /** Number of active columns the gate ran in. */
    unsigned columns = 0;
    /** How many output MTJs actually switched. */
    unsigned switched = 0;
    /** Device (array) energy summed over columns. */
    Joules deviceEnergy = 0.0;
    /** True iff the pulse completed (not interrupted early). */
    bool completed = true;
};

/** A single MOUSE memory/compute tile. */
class Tile
{
  public:
    /**
     * @param rows Number of word lines (default 1024).
     * @param cols Number of bit-line pairs (default 1024).
     */
    explicit Tile(unsigned rows = 1024, unsigned cols = 1024);

    unsigned numRows() const { return rows_; }
    unsigned numCols() const { return cols_; }

    Bit bit(RowAddr row, ColAddr col) const;
    void setBit(RowAddr row, ColAddr col, Bit value);

    /**
     * Execute one gate in every active column.
     *
     * @param lib Solved gate library (device physics + voltages).
     * @param g Gate type; must be feasible in @p lib.
     * @param in_rows Input row addresses (first numInputs used);
     *        all inputs must share a parity opposite to @p out_row.
     * @param out_row Output row address.
     * @param active Columns to operate in.
     * @param cycle_fraction How much of the instruction cycle elapsed
     *        before an interrupt; 1.0 means uninterrupted.  The
     *        current pulse occupies the first pulseTime/cycleTime of
     *        the cycle.
     */
    GateExecResult executeGate(const GateLibrary &lib, GateType g,
                               const std::array<RowAddr, 3> &in_rows,
                               RowAddr out_row, const ColumnSet &active,
                               double cycle_fraction = 1.0);

    /**
     * Preset (write) @p value into @p row at every active column.
     * Interruption semantics mirror executeGate: a write pulse that
     * does not complete leaves the previous contents.
     *
     * @return Device energy consumed.
     */
    Joules presetRow(const GateLibrary &lib, RowAddr row, Bit value,
                     const ColumnSet &active,
                     double cycle_fraction = 1.0);

    /** Read a full row into @p out (all columns). */
    Joules readRow(const GateLibrary &lib, RowAddr row,
                   std::vector<Bit> &out) const;

    /**
     * Write a full row from @p data (all columns).  A write that is
     * interrupted mid-pulse leaves the row unchanged; as the paper
     * notes, repeating a write is simply writing the value twice.
     */
    Joules writeRow(const GateLibrary &lib, RowAddr row,
                    const std::vector<Bit> &data,
                    double cycle_fraction = 1.0);

    // -- Column packing (host-side deployment/readback) -------------
    //
    // The serving layer packs one independent inference per column
    // slot (docs/SERVING.md); these are its entry points.  Like
    // setBit()/bit() they model the pre-deployment host interface,
    // not priced array instructions.

    /**
     * Set @p row's columns lo..hi inclusive (none when lo > hi) to
     * @p value, a whole 64-column word at a time.
     */
    void
    fillColumns(RowAddr row, ColAddr lo, ColAddr hi, Bit value)
    {
        if (lo > hi) {
            return;
        }
        mouse_assert(row < rows_ && hi < cols_, "tile address OOB");
        std::uint64_t *dst = &bits_[rowBase(row)];
        // All ones or all zeros: a branch on a payload bit would be
        // mispredicted half the time.
        const std::uint64_t ones = 0 - static_cast<std::uint64_t>(value != 0);
        const unsigned last = static_cast<unsigned>(hi) >> 6;
        for (unsigned w = static_cast<unsigned>(lo) >> 6; w <= last;
             ++w) {
            const std::uint64_t fill = columnRangeWord(w, lo, hi);
            dst[w] = (dst[w] & ~fill) | (ones & fill);
        }
    }

    /**
     * Masked whole-row write: every column whose bit is set in
     * @p mask takes its bit of @p words; the others keep their
     * state.  Both spans hold one word per 64 columns.
     * @pre no mask bit lies past the tile edge.
     */
    void setRowWords(RowAddr row, std::span<const std::uint64_t> words,
                     std::span<const std::uint64_t> mask);

    /**
     * Gather the bits of one column at the given rows into a word
     * (rows[j] supplies bit j).  @pre rows.size() <= 64.
     */
    std::uint64_t columnWord(const std::vector<RowAddr> &rows,
                             ColAddr col) const;

    /** Snapshot all bits (row-major) for equality checks in tests. */
    std::vector<Bit> snapshot() const;

    /**
     * Route executeGate() through the retained per-column scalar
     * model instead of the word-parallel fast path.  The scalar path
     * is the differential-testing oracle; both must produce
     * bit-identical MTJ state.  Global and sticky — flip it only
     * around whole runs, never concurrently with execution that
     * expects the other mode.
     */
    static void setScalarOracle(bool enabled);
    static bool scalarOracle();

  private:
    /** Word index of the first word of @p row (rows are word-aligned
     *  so row planes can be combined with bitwise ops). */
    std::size_t
    rowBase(RowAddr row) const
    {
        return static_cast<std::size_t>(row) * wordsPerRow_;
    }

    GateExecResult executeGateScalar(const GateLibrary &lib,
                                     const SolvedGate &solved,
                                     GateType g,
                                     const std::array<RowAddr, 3> &in_rows,
                                     RowAddr out_row,
                                     const ColumnSet &active,
                                     unsigned span, bool pulse_completed,
                                     double energy_fraction);

    /** Number of leading words of @p active that lie in this tile,
     *  after asserting — as the scalar path's per-column bounds check
     *  would — that no active column lies past the tile edge. */
    unsigned activeWords(const ColumnSet &active) const;

    unsigned rows_;
    unsigned cols_;
    /** 64-bit words per row (rows padded to a word boundary). */
    unsigned wordsPerRow_;
    /** Bit-packed MTJ states, row-major, each row word-aligned. */
    std::vector<std::uint64_t> bits_;
};

} // namespace mouse

#endif // MOUSE_ARCH_TILE_HH
