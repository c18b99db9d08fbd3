#include "models.hh"

#include <algorithm>

#include "common/logging.hh"
#include "compile/builder.hh"
#include "ml/mapping.hh"

namespace mouse::serve
{

namespace
{

std::vector<RowAddr>
rowsOf(const Word &w)
{
    std::vector<RowAddr> rows;
    rows.reserve(w.size());
    for (const Val &v : w) {
        rows.push_back(v.row);
    }
    return rows;
}

} // namespace

PackedModel
PackedModel::compileBnn(const GateLibrary &lib, const ArrayConfig &cfg,
                        ModelId id, BnnServeModel m)
{
    const unsigned k = m.layer.inputs;
    const unsigned classes = m.layer.outputs;
    mouse_assert(k > 0 && classes > 0, "empty BNN serve model");
    mouse_assert(m.layer.weights.size() == classes &&
                     m.layer.thresholds.size() == classes,
                 "BNN serve model weights/thresholds mismatch shape");

    PackedModel pm;
    pm.id_ = id;
    pm.name_ = std::move(m.name);
    pm.kind_ = Kind::kBnn;
    pm.layer_ = std::move(m.layer);
    pm.colsPerRequest_ = classes;
    pm.slots_ = cfg.tileCols / classes;
    pm.inputSize_ = k;
    mouse_assert(pm.slots_ > 0,
                 "engine narrower than one BNN request");

    // Interleaved even-row layout (see buildSmallBnnNeuronKernel):
    // weight bit i at 4i, input bit i at 4i+2; thresholds on the odd
    // bitline above the data.
    pm.inputBase_ = 2;
    pm.inputStride_ = 4;
    pm.threshBits_ = 1;
    while ((1u << pm.threshBits_) <= k) {
        ++pm.threshBits_;
    }
    const RowAddr threshBase = static_cast<RowAddr>(4 * k + 1);
    const unsigned firstFree = 4 * k + 2 * pm.threshBits_ + 4;

    KernelBuilder kb(lib, cfg, 0, firstFree);
    kb.activate(0,
                static_cast<ColAddr>(pm.slots_ * classes - 1));
    Word count;
    Val fires{};
    buildSmallBnnNeuronKernel(kb, /*w_base=*/0, pm.inputBase_,
                              threshBase, k, count, fires);
    pm.program_ = kb.finish();
    pm.countRows_ = rowsOf(count);
    return pm;
}

PackedModel
PackedModel::compileSvm(const GateLibrary &lib, const ArrayConfig &cfg,
                        ModelId id, SvmServeModel m)
{
    const unsigned svs =
        static_cast<unsigned>(m.svm.supportVectors.size());
    mouse_assert(svs > 0 && m.dim > 0, "empty SVM serve model");
    mouse_assert(m.svm.coefficients.size() == svs,
                 "SVM serve model coefficients mismatch SV count");
    mouse_assert(m.inputBits >= 1 && m.inputBits <= 8,
                 "SVM serve model feature precision out of range");
    for (const Features &sv : m.svm.supportVectors) {
        mouse_assert(sv.size() == m.dim,
                     "SVM support vector dimension mismatch");
    }

    PackedModel pm;
    pm.id_ = id;
    pm.name_ = std::move(m.name);
    pm.kind_ = Kind::kSvm;
    pm.svm_ = std::move(m.svm);
    pm.inputBits_ = m.inputBits;
    pm.colsPerRequest_ = svs;
    pm.slots_ = cfg.tileCols / svs;
    pm.inputSize_ = m.dim;
    mouse_assert(pm.slots_ > 0,
                 "engine narrower than one SVM request");

    // buildSmallSvmKernel layout: element e bit b of the support
    // vector at sv_base + e*2*inputBits + 2b, of the input likewise
    // above the support vectors.
    pm.inputBase_ =
        static_cast<RowAddr>(m.dim * 2 * m.inputBits);
    pm.inputStride_ = 2 * m.inputBits;
    const unsigned firstFree = 2 * m.dim * 2 * m.inputBits + 8;

    KernelBuilder kb(lib, cfg, 0, firstFree);
    kb.activate(0, static_cast<ColAddr>(pm.slots_ * svs - 1));
    Word square;
    buildSmallSvmKernel(kb, /*sv_rows=*/0, pm.inputBase_, m.dim,
                        m.inputBits, m.accBits, square);
    pm.program_ = kb.finish();
    pm.squareRows_ = rowsOf(square);
    mouse_assert(pm.squareRows_.size() <= 64,
                 "SVM square word exceeds host readback width");
    return pm;
}

void
PackedModel::deployWeights(TileGrid &grid) const
{
    Tile &tile = grid.tile(0);
    const unsigned words = (tile.numCols() + 63) / 64;
    // unitCols[u]: the columns holding unit u (class or support
    // vector) of every slot.  A weight row is the union of the masks
    // of the units whose bit is set, written as whole words.
    std::vector<std::uint64_t> unitCols(
        static_cast<std::size_t>(colsPerRequest_) * words, 0);
    std::vector<std::uint64_t> slotCols(words, 0);
    for (unsigned col = 0; col < slots_ * colsPerRequest_; ++col) {
        const std::uint64_t b = 1ULL << (col & 63);
        unitCols[(col % colsPerRequest_) * words + (col >> 6)] |= b;
        slotCols[col >> 6] |= b;
    }
    std::vector<std::uint64_t> row(words);
    const auto writeRow = [&](RowAddr r, auto &&unitBit) {
        std::fill(row.begin(), row.end(), 0);
        for (unsigned u = 0; u < colsPerRequest_; ++u) {
            if (unitBit(u)) {
                for (unsigned w = 0; w < words; ++w) {
                    row[w] |= unitCols[u * words + w];
                }
            }
        }
        tile.setRowWords(r, row, slotCols);
    };
    if (kind_ == Kind::kBnn) {
        for (unsigned i = 0; i < layer_.inputs; ++i) {
            writeRow(static_cast<RowAddr>(4 * i), [&](unsigned u) {
                return layer_.weights[u][i] != 0;
            });
        }
        const RowAddr threshBase =
            static_cast<RowAddr>(4 * layer_.inputs + 1);
        for (unsigned b = 0; b < threshBits_; ++b) {
            writeRow(static_cast<RowAddr>(threshBase + 2 * b),
                     [&](unsigned u) {
                         return ((layer_.thresholds[u] >> b) & 1) != 0;
                     });
        }
    } else {
        for (std::size_t e = 0; e < inputSize_; ++e) {
            for (unsigned b = 0; b < inputBits_; ++b) {
                writeRow(
                    static_cast<RowAddr>(e * 2 * inputBits_ + 2 * b),
                    [&](unsigned u) {
                        return ((svm_.supportVectors[u][e] >> b) & 1) !=
                               0;
                    });
            }
        }
    }
}

template <typename BitOf>
void
PackedModel::fillInputRows(TileGrid &grid, unsigned slot,
                           BitOf &&bitOf) const
{
    // Every column of the slot carries the same payload, so each
    // input row is one word-masked write across the slot.
    Tile &tile = grid.tile(0);
    const auto lo = static_cast<ColAddr>(slot * colsPerRequest_);
    const auto hi = static_cast<ColAddr>(lo + colsPerRequest_ - 1);
    const unsigned bits = elementBits();
    for (std::size_t e = 0; e < inputSize_; ++e) {
        const auto row =
            static_cast<RowAddr>(inputBase_ + e * inputStride_);
        for (unsigned b = 0; b < bits; ++b) {
            tile.fillColumns(static_cast<RowAddr>(row + 2 * b), lo, hi,
                             bitOf(e, b));
        }
    }
}

void
PackedModel::packInput(TileGrid &grid, unsigned slot,
                       const Input &in) const
{
    mouse_assert(slot < slots_, "packInput slot out of range");
    mouse_assert(validInput(in), "malformed request payload");
    fillInputRows(grid, slot, [&in](std::size_t e, unsigned b) {
        return static_cast<Bit>((in[e] >> b) & 1);
    });
}

void
PackedModel::clearInput(TileGrid &grid, unsigned slot) const
{
    mouse_assert(slot < slots_, "clearInput slot out of range");
    fillInputRows(grid, slot,
                  [](std::size_t, unsigned) { return Bit{0}; });
}

int
PackedModel::readPrediction(const TileGrid &grid, unsigned slot) const
{
    mouse_assert(slot < slots_, "readPrediction slot out of range");
    const Tile &tile = grid.tile(0);
    if (kind_ == Kind::kBnn) {
        int best = 0;
        std::uint64_t bestPop = 0;
        for (unsigned c = 0; c < colsPerRequest_; ++c) {
            const ColAddr col =
                static_cast<ColAddr>(slot * colsPerRequest_ + c);
            const std::uint64_t pop =
                tile.columnWord(countRows_, col);
            if (pop > bestPop) {
                bestPop = pop;
                best = static_cast<int>(c);
            }
        }
        return best;
    }
    // SVM: the array leaves (sv_s . x)^2 truncated to the square
    // word's width; the host finishes the coefficient sum.  The
    // decision is defined on the truncated fixed-point squares —
    // identical arithmetic whether the request ran packed or alone.
    __int128 decision = svm_.bias;
    for (unsigned s = 0; s < colsPerRequest_; ++s) {
        const ColAddr col =
            static_cast<ColAddr>(slot * colsPerRequest_ + s);
        const std::uint64_t sq = tile.columnWord(squareRows_, col);
        decision += static_cast<__int128>(svm_.coefficients[s]) *
                    static_cast<__int128>(sq);
    }
    return decision > 0 ? 1 : 0;
}

bool
PackedModel::validInput(const Input &in) const
{
    if (in.size() != inputSize_) {
        return false;
    }
    const unsigned bits = kind_ == Kind::kBnn ? 1 : inputBits_;
    if (bits >= 8) {
        return true;
    }
    for (std::uint8_t v : in) {
        if (v >> bits) {
            return false;
        }
    }
    return true;
}

} // namespace mouse::serve
