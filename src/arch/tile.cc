#include "tile.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <type_traits>
#include <utility>

#include "common/logging.hh"
#include "device/network.hh"

namespace mouse
{

namespace
{

std::atomic<bool> g_scalar_oracle{false};

/** Outcome of one word-parallel gate pass over a tile row. */
struct WordPass
{
    unsigned switched = 0;
    Joules energy = 0.0;
};

/** Bit c of the returned word: column c reads input combo @p C on
 *  the @p N input planes (bit i of C is input i). */
template <unsigned N, unsigned C>
std::uint64_t
comboColumns(const std::array<std::uint64_t, 3> &plane)
{
    std::uint64_t m = ~0ULL;
    if constexpr (N >= 1) {
        m &= (C & 1) ? plane[0] : ~plane[0];
    }
    if constexpr (N >= 2) {
        m &= (C & 2) ? plane[1] : ~plane[1];
    }
    if constexpr (N >= 3) {
        m &= (C & 4) ? plane[2] : ~plane[2];
    }
    return m;
}

/** Call @p fn with std::integral_constant<unsigned, C> for every C
 *  in 0..K-1, expanded at compile time. */
template <unsigned K, typename Fn>
void
forEachCombo(Fn &&fn)
{
    [&]<unsigned... C>(std::integer_sequence<unsigned, C...>) {
        (fn(std::integral_constant<unsigned, C>{}), ...);
    }(std::make_integer_sequence<unsigned, K>{});
}

/**
 * Word loop of Tile::executeGate for an @p N-input gate.  @p in
 * points at the first word of each input row, @p out at the first
 * word of the output row (never an input: the parity rule puts them
 * on opposite rows); @p words words of @p active are scanned.
 *
 * The current depends only on (input combo, actual output state), so
 * each 64-column word splits its active columns by combo and output
 * state with bitwise ops and popcounts them into 2^N × 2 counters.
 * The combo loop is expanded at compile time, so every mask and
 * counter index is a constant and the counters stay plain locals.
 */
template <unsigned N>
WordPass
gateWords(const std::array<const std::uint64_t *, 3> &in,
          std::uint64_t *out, const ColumnSet &active, unsigned words,
          const GateOpTable &tbl, bool pulse_completed,
          double energy_fraction)
{
    constexpr unsigned kCombos = 1u << N;
    // Column populations per (combo, actual output state).
    std::array<std::array<std::uint64_t, 2>, kCombos> counts{};
    const bool preset = tbl.preset != 0;
    const unsigned switch_mask = tbl.switchMask;
    WordPass pass;

    for (unsigned w = 0; w < words; ++w) {
        const std::uint64_t act = active.word(w);
        if (act == 0) {
            continue;
        }
        // Bit c of plane[i] is input i of column c.
        std::array<std::uint64_t, 3> plane{};
        for (unsigned i = 0; i < N; ++i) {
            plane[i] = in[i][w];
        }
        // Split by the *actual* output state (bit set = AP) so
        // un-preset outputs draw their honest current.
        const std::uint64_t out_w = out[w];
        const std::uint64_t act_ap = act & out_w;
        const std::uint64_t act_p = act & ~out_w;
        // Columns whose combo drives a switching current.
        std::uint64_t hot = 0;
        forEachCombo<kCombos>([&](auto combo) {
            constexpr unsigned C = decltype(combo)::value;
            const std::uint64_t m = comboColumns<N, C>(plane);
            counts[C][0] +=
                static_cast<std::uint64_t>(std::popcount(act_p & m));
            counts[C][1] +=
                static_cast<std::uint64_t>(std::popcount(act_ap & m));
            if ((switch_mask >> C) & 1) {
                hot |= m;
            }
        });
        // Directionality: only outputs still at the preset state can
        // flip; a switching-level current through an already-switched
        // output cannot revert it (idempotency).
        const std::uint64_t flip = hot & (preset ? act_ap : act_p);
        if (pulse_completed && flip != 0) {
            out[w] = preset ? (out_w & ~flip) : (out_w | flip);
            pass.switched += static_cast<unsigned>(std::popcount(flip));
        }
    }

    // Deterministic fixed-order energy fold: one multiply per
    // (combo, out-state) bucket, always in index order, so the total
    // is independent of thread count and schedule.
    for (unsigned combo = 0; combo < kCombos; ++combo) {
        for (unsigned o = 0; o < 2; ++o) {
            if (counts[combo][o] != 0) {
                pass.energy +=
                    static_cast<double>(counts[combo][o]) *
                    (tbl.pulseEnergy[combo][o] * energy_fraction);
            }
        }
    }
    return pass;
}

} // namespace

void
Tile::setScalarOracle(bool enabled)
{
    g_scalar_oracle.store(enabled, std::memory_order_relaxed);
}

bool
Tile::scalarOracle()
{
    return g_scalar_oracle.load(std::memory_order_relaxed);
}

void
ColumnSet::addRange(ColAddr lo, ColAddr hi)
{
    if (lo > hi) {
        return;
    }
    const unsigned last = static_cast<unsigned>(hi) >> 6;
    mouse_assert(last < words_.size(), "column range OOB");
    for (unsigned w = static_cast<unsigned>(lo) >> 6; w <= last; ++w) {
        const std::uint64_t fill = columnRangeWord(w, lo, hi);
        count_ += static_cast<unsigned>(std::popcount(fill & ~words_[w]));
        words_[w] |= fill;
    }
}

std::vector<ColAddr>
ColumnSet::columns() const
{
    std::vector<ColAddr> out;
    out.reserve(count_);
    forEachColumn([&out](ColAddr col) { out.push_back(col); });
    return out;
}

Tile::Tile(unsigned rows, unsigned cols)
    : rows_(rows), cols_(cols), wordsPerRow_((cols + 63) / 64),
      bits_(static_cast<std::size_t>(rows) * ((cols + 63) / 64), 0)
{
    mouse_assert(rows_ > 0 && cols_ > 0, "empty tile");
    mouse_assert(rows_ <= 1024 && cols_ <= 1024,
                 "tile exceeds 10-bit address space");
}

Bit
Tile::bit(RowAddr row, ColAddr col) const
{
    mouse_assert(row < rows_ && col < cols_, "tile address OOB");
    return static_cast<Bit>(
        (bits_[rowBase(row) + (col >> 6)] >> (col & 63)) & 1);
}

void
Tile::setBit(RowAddr row, ColAddr col, Bit value)
{
    mouse_assert(row < rows_ && col < cols_, "tile address OOB");
    const std::size_t i = rowBase(row) + (col >> 6);
    if (value) {
        bits_[i] |= (1ULL << (col & 63));
    } else {
        bits_[i] &= ~(1ULL << (col & 63));
    }
}

void
Tile::setRowWords(RowAddr row, std::span<const std::uint64_t> words,
                  std::span<const std::uint64_t> mask)
{
    mouse_assert(row < rows_, "tile address OOB");
    mouse_assert(words.size() == wordsPerRow_ &&
                     mask.size() == wordsPerRow_,
                 "row word count mismatch");
    const unsigned tail = cols_ & 63;
    mouse_assert(tail == 0 || (mask[wordsPerRow_ - 1] >> tail) == 0,
                 "tile address OOB");
    std::uint64_t *dst = &bits_[rowBase(row)];
    for (unsigned w = 0; w < wordsPerRow_; ++w) {
        dst[w] = (dst[w] & ~mask[w]) | (words[w] & mask[w]);
    }
}

std::uint64_t
Tile::columnWord(const std::vector<RowAddr> &rows, ColAddr col) const
{
    mouse_assert(rows.size() <= 64, "columnWord wider than 64 bits");
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < rows.size(); ++j) {
        w |= static_cast<std::uint64_t>(bit(rows[j], col)) << j;
    }
    return w;
}

unsigned
Tile::activeWords(const ColumnSet &active) const
{
    for (unsigned w = wordsPerRow_; w < active.numWords(); ++w) {
        mouse_assert(active.word(w) == 0, "tile address OOB");
    }
    const unsigned words = std::min(wordsPerRow_, active.numWords());
    const unsigned tail = cols_ & 63;
    if (tail != 0 && words == wordsPerRow_) {
        mouse_assert((active.word(words - 1) >> tail) == 0,
                     "tile address OOB");
    }
    return words;
}

GateExecResult
Tile::executeGate(const GateLibrary &lib, GateType g,
                  const std::array<RowAddr, 3> &in_rows, RowAddr out_row,
                  const ColumnSet &active, double cycle_fraction)
{
    const SolvedGate &solved = lib.gate(g);
    mouse_assert(solved.feasible, "gate not feasible for this tech");
    const GateOpTable &table = lib.opTable(g);
    const unsigned n = table.numInputs;
    const DeviceConfig &cfg = lib.config();

    // Parity rule (Section II-C): all inputs connect to one bitline
    // (same row parity) and the output to the other.
    const unsigned out_parity = out_row & 1;
    for (unsigned i = 0; i < n; ++i) {
        mouse_assert(in_rows[i] < rows_, "input row OOB");
        mouse_assert((in_rows[i] & 1) != out_parity,
                     "logic inputs must have opposite parity to output");
    }
    mouse_assert(out_row < rows_, "output row OOB");

    // The current pulse occupies the head of the cycle; an interrupt
    // that lands inside the pulse prevents every switch.
    const double pulse_fraction = table.pulseFraction;
    const bool pulse_completed = cycle_fraction >= pulse_fraction;
    const double energy_fraction =
        pulse_completed ? 1.0 : cycle_fraction / pulse_fraction;

    // Logic-line span of this execution (parasitic wire length).
    RowAddr row_lo = out_row;
    RowAddr row_hi = out_row;
    for (unsigned i = 0; i < n; ++i) {
        row_lo = std::min(row_lo, in_rows[i]);
        row_hi = std::max(row_hi, in_rows[i]);
    }
    const unsigned span = static_cast<unsigned>(row_hi - row_lo);
    mouse_assert(span <= solved.maxRowSpan ||
                     cfg.wireResistancePerCell == 0.0,
                 "operand span exceeds the solved operating point");

    if (scalarOracle()) {
        return executeGateScalar(lib, solved, g, in_rows, out_row,
                                 active, span, pulse_completed,
                                 energy_fraction);
    }

    // Word-parallel fast path: fold 64 columns at a time against the
    // precomputed operating table.  With ideal wires the logic-line
    // term is identically zero and the cached span-0 table is
    // bit-exact at any span.
    GateOpTable local;
    const GateOpTable *tbl = &table;
    if (cfg.wireResistancePerCell > 0.0 && span > 0) {
        local = lib.opTableAtSpan(g, span);
        tbl = &local;
    }

    const unsigned words = activeWords(active);
    std::array<const std::uint64_t *, 3> in{};
    for (unsigned i = 0; i < n; ++i) {
        in[i] = &bits_[rowBase(in_rows[i])];
    }
    std::uint64_t *out = &bits_[rowBase(out_row)];
    WordPass pass;
    switch (n) {
      case 1:
        pass = gateWords<1>(in, out, active, words, *tbl,
                            pulse_completed, energy_fraction);
        break;
      case 2:
        pass = gateWords<2>(in, out, active, words, *tbl,
                            pulse_completed, energy_fraction);
        break;
      default:
        mouse_assert(n == 3, "gate arity out of range");
        pass = gateWords<3>(in, out, active, words, *tbl,
                            pulse_completed, energy_fraction);
        break;
    }

    GateExecResult result;
    result.columns = active.count();
    result.switched = pass.switched;
    result.deviceEnergy = pass.energy;
    result.completed = pulse_completed;
    return result;
}

GateExecResult
Tile::executeGateScalar(const GateLibrary &lib, const SolvedGate &solved,
                        GateType g,
                        const std::array<RowAddr, 3> &in_rows,
                        RowAddr out_row, const ColumnSet &active,
                        unsigned span, bool pulse_completed,
                        double energy_fraction)
{
    const DeviceConfig &cfg = lib.config();
    const int n = gateNumInputs(g);
    const Bit target = static_cast<Bit>(!gatePreset(g));

    GateExecResult result;
    result.columns = active.count();
    result.completed = pulse_completed;

    std::vector<MtjState> in_states(static_cast<std::size_t>(n));
    active.forEachColumn([&](ColAddr col) {
        unsigned combo = 0;
        for (int i = 0; i < n; ++i) {
            const Bit b = bit(in_rows[static_cast<std::size_t>(i)], col);
            in_states[static_cast<std::size_t>(i)] = stateFromBit(b);
            combo |= static_cast<unsigned>(b) << i;
        }
        // Physical model: the current depends on the *actual* output
        // state (not the nominal preset) so un-preset outputs behave
        // honestly.
        const Bit out_actual = bit(out_row, col);
        const Amperes current = gateOutputCurrent(
            cfg, solved.voltage, in_states,
            stateFromBit(out_actual), span);
        result.deviceEnergy +=
            solved.voltage * current * solved.pulseTime * energy_fraction;
        if (pulse_completed && current >= cfg.mtj.switchingCurrent) {
            // Directionality: the pulse can only drive the output
            // toward the gate's target value; if it is already there
            // the state cannot revert (idempotency).
            if (out_actual != target) {
                setBit(out_row, col, target);
                ++result.switched;
            }
        }
    });
    return result;
}

Joules
Tile::presetRow(const GateLibrary &lib, RowAddr row, Bit value,
                const ColumnSet &active, double cycle_fraction)
{
    mouse_assert(row < rows_, "preset row OOB");
    const WriteOp &w = lib.writeOp();
    const bool completed = cycle_fraction >= w.pulseFraction;
    const double energy_fraction =
        completed ? 1.0 : cycle_fraction / w.pulseFraction;

    const unsigned words = activeWords(active);
    if (completed) {
        std::uint64_t *dst = &bits_[rowBase(row)];
        for (unsigned wi = 0; wi < words; ++wi) {
            const std::uint64_t act = active.word(wi);
            if (act != 0) {
                dst[wi] = value ? (dst[wi] | act) : (dst[wi] & ~act);
            }
        }
    }
    // Every active column lies in the tile (activeWords asserts it),
    // so each one takes one write pulse.
    return static_cast<double>(active.count()) *
           (w.energy * energy_fraction);
}

Joules
Tile::readRow(const GateLibrary &lib, RowAddr row,
              std::vector<Bit> &out) const
{
    mouse_assert(row < rows_, "read row OOB");
    out.resize(cols_);
    ColAddr col = 0;
    for (unsigned w = 0; w < wordsPerRow_; ++w) {
        std::uint64_t word = bits_[rowBase(row) + w];
        const unsigned limit = std::min(64u, cols_ - col);
        for (unsigned b = 0; b < limit; ++b, ++col) {
            out[col] = static_cast<Bit>(word & 1);
            word >>= 1;
        }
    }
    return lib.readOp().energy * cols_;
}

Joules
Tile::writeRow(const GateLibrary &lib, RowAddr row,
               const std::vector<Bit> &data, double cycle_fraction)
{
    mouse_assert(row < rows_, "write row OOB");
    mouse_assert(data.size() >= cols_, "row data too small");
    const WriteOp &w = lib.writeOp();
    const bool completed = cycle_fraction >= w.pulseFraction;
    const double energy_fraction =
        completed ? 1.0 : cycle_fraction / w.pulseFraction;

    if (completed) {
        ColAddr col = 0;
        for (unsigned wi = 0; wi < wordsPerRow_; ++wi) {
            std::uint64_t word = 0;
            const unsigned limit = std::min(64u, cols_ - col);
            for (unsigned b = 0; b < limit; ++b, ++col) {
                word |= static_cast<std::uint64_t>(data[col] & 1) << b;
            }
            bits_[rowBase(row) + wi] = word;
        }
    }
    return w.energy * cols_ * energy_fraction;
}

std::vector<Bit>
Tile::snapshot() const
{
    std::vector<Bit> out;
    out.reserve(static_cast<std::size_t>(rows_) * cols_);
    for (RowAddr r = 0; r < rows_; ++r) {
        for (ColAddr c = 0; c < cols_; ++c) {
            out.push_back(bit(r, c));
        }
    }
    return out;
}

} // namespace mouse
