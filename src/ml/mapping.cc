#include "mapping.hh"

#include <cmath>
#include <functional>

#include "common/logging.hh"

namespace mouse
{

namespace
{

/** Opcode histogram of a builder-generated kernel. */
struct InstrMix
{
    KernelBuilder::OpcodeCounts counts{};
    /** The builder's feasibility queries and answers. */
    GateMask gateQueries = 0;
    GateMask gateAnswers = 0;

    std::uint64_t
    total() const
    {
        std::uint64_t t = 0;
        for (std::uint64_t c : counts) {
            t += c;
        }
        return t;
    }
};

/**
 * Measure the instruction mix of a kernel by actually compiling it
 * on a counting builder, which keeps no Program.  The builder targets
 * a scratch-only configuration; the measured counts are exact because
 * generated code is data-independent.
 */
InstrMix
measureMix(const GateLibrary &lib,
           const std::function<void(KernelBuilder &)> &body)
{
    ArrayConfig cfg;
    cfg.tileRows = 1024;
    cfg.tileCols = 1024;
    cfg.numDataTiles = 1;
    KernelBuilder kb(lib, cfg, 0, 0, KernelBuilder::Mode::kCount);
    body(kb);

    InstrMix mix;
    mix.counts = kb.opcodeCounts();
    mix.gateQueries = kb.gateQueries();
    mix.gateAnswers = kb.gateAnswers();
    return mix;
}

/** Append @p repeats executions of a measured mix to the trace,
 *  which takes on the mix's feasibility queries and answers. */
void
emitMix(Trace &trace, const InstrMix &mix, unsigned touched_cols,
        unsigned active_after, std::uint64_t repeats)
{
    trace.gateQueries |= mix.gateQueries;
    trace.gateAnswers |= mix.gateAnswers;
    if (repeats == 0) {
        return;
    }
    for (std::size_t op = 0; op < mix.counts.size(); ++op) {
        if (mix.counts[op] > 0) {
            trace.append(static_cast<Opcode>(op), touched_cols,
                         active_after, mix.counts[op] * repeats);
        }
    }
}

/** Row-buffer gather moves: @p rows rows x read+write per tile. */
void
emitRowMoves(Trace &trace, const MouseShape &shape,
             std::uint64_t rows, unsigned tiles, unsigned active)
{
    trace.append(Opcode::kReadRow, shape.tileCols, active,
                 rows * tiles);
    trace.append(Opcode::kWriteRow, shape.tileCols, active,
                 rows * tiles);
}

unsigned
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return static_cast<unsigned>((a + b - 1) / b);
}

unsigned
bitsFor(std::uint64_t n)
{
    unsigned bits = 1;
    while ((1ull << bits) <= n) {
        ++bits;
    }
    return bits;
}

} // namespace

SvmWorkload
SvmWorkload::fromModel(const std::string &name, const SvmModel &model,
                       unsigned dim, unsigned input_bits)
{
    SvmWorkload work;
    work.name = name;
    work.numSupportVectors =
        static_cast<unsigned>(model.totalSupportVectors());
    work.dim = dim;
    work.inputBits = input_bits;
    work.numClasses = model.numClasses;
    if (input_bits == 1) {
        // Binarized dot products are popcounts of at most dim.
        work.accBits = bitsFor(dim);
        work.squareBits = 2 * work.accBits;
        work.scoreBits = work.squareBits + work.coefBits;
    }
    return work;
}

Trace
buildSvmTrace(const GateLibrary &lib, const SvmWorkload &work,
              const MouseShape &shape, MappingInfo *info)
{
    mouse_assert(work.numSupportVectors > 0 && work.dim > 0,
                 "empty workload");
    const bool binary = work.inputBits == 1;

    // -- Layout: element pairs per column -----------------------------
    // Per element pair: inputBits rows for the SV element + inputBits
    // for the input element; binarized MACs additionally keep their
    // AND products alive for the popcount tree.
    unsigned k;
    const unsigned reserve = 72;  // scratch + accumulator reserve
    if (binary) {
        k = (shape.tileRows - reserve) / 3;
    } else {
        k = (shape.tileRows - work.accBits - reserve) /
            (2 * work.inputBits);
    }
    mouse_assert(k >= 1, "tile rows cannot hold one element pair");
    k = std::min(k, work.dim);

    const unsigned cols_per_sv = ceilDiv(work.dim, k);
    const std::uint64_t sv_slots = shape.totalColumns() / cols_per_sv;
    mouse_assert(sv_slots > 0, "no column slots");
    const std::uint64_t units_per_batch =
        std::min<std::uint64_t>(work.numSupportVectors, sv_slots);
    const unsigned batches =
        ceilDiv(work.numSupportVectors, units_per_batch);
    const std::uint64_t active_mac = units_per_batch * cols_per_sv;
    const unsigned tiles_used = ceilDiv(active_mac, shape.tileCols);

    // -- Measured kernels ----------------------------------------------
    InstrMix mac_mix;
    if (binary) {
        // Whole-column binarized MAC: k AND products reduced by a
        // popcount tree.
        mac_mix = measureMix(lib, [&](KernelBuilder &kb) {
            std::vector<Val> products;
            products.reserve(k);
            for (unsigned i = 0; i < k; ++i) {
                products.push_back(
                    kb.andSame(kb.pinned(0), kb.pinned(2)));
            }
            Word count = kb.popcountTree(std::move(products));
            (void)count;
        });
    } else {
        // Per-element MAC: 8x8 multiply + accumulate into accBits.
        mac_mix = measureMix(lib, [&](KernelBuilder &kb) {
            const Word a = kb.pinnedWord(0, work.inputBits);
            const Word b = kb.pinnedWord(
                static_cast<RowAddr>(2 * work.inputBits),
                work.inputBits);
            const Word acc = kb.pinnedWord(
                static_cast<RowAddr>(4 * work.inputBits),
                work.accBits);
            Word p = kb.mulUnsigned(a, b);
            Word sum = kb.add(acc, p, /*grow=*/false);
            (void)sum;
        });
    }
    const InstrMix reduce_mix = measureMix(lib, [&](KernelBuilder &kb) {
        const Word a = kb.pinnedWord(0, work.accBits);
        const Word b = kb.pinnedWord(
            static_cast<RowAddr>(2 * work.accBits), work.accBits);
        Word s = kb.add(a, b, /*grow=*/false);
        (void)s;
    });
    const InstrMix square_mix = measureMix(lib, [&](KernelBuilder &kb) {
        const Word d = kb.pinnedWord(0, work.accBits);
        Word sq = kb.mulUnsigned(d, d);
        (void)sq;
    });
    const InstrMix coef_mix = measureMix(lib, [&](KernelBuilder &kb) {
        const Word sq = kb.pinnedWord(0, work.squareBits);
        const Word alpha = kb.pinnedWord(
            static_cast<RowAddr>(2 * work.squareBits), work.coefBits);
        Word scaled = kb.mulSigned(sq, alpha);
        (void)scaled;
    });
    const InstrMix score_add_mix =
        measureMix(lib, [&](KernelBuilder &kb) {
            const Word a = kb.pinnedWord(0, work.scoreBits);
            const Word b = kb.pinnedWord(
                static_cast<RowAddr>(2 * work.scoreBits),
                work.scoreBits);
            Word s = kb.add(a, b, /*grow=*/false);
            (void)s;
        });

    // -- Trace assembly ---------------------------------------------------
    Trace trace;
    const auto active =
        static_cast<unsigned>(std::min<std::uint64_t>(
            active_mac, shape.totalColumns()));
    for (unsigned batch = 0; batch < batches; ++batch) {
        // Activate the batch's column blocks.
        trace.append(Opcode::kActivateRange, active, active, 1);

        // Input distribution: the input vector's element slices are
        // written into every column (k * inputBits rows per tile).
        emitRowMoves(trace, shape,
                     static_cast<std::uint64_t>(k) * work.inputBits,
                     tiles_used, active);

        // Zero the dot-product accumulators.
        if (!binary) {
            trace.append(Opcode::kPreset0, active, active,
                         work.accBits);
        }

        // Element-wise MAC phase (serial over the packed elements,
        // parallel across all active columns).
        emitMix(trace, mac_mix, active, active, binary ? 1 : k);

        // Gather per-SV partial sums into the SV's first column:
        // buffer-shift moves then reduction adds.
        if (cols_per_sv > 1) {
            emitRowMoves(trace, shape,
                         static_cast<std::uint64_t>(cols_per_sv - 1) *
                             work.accBits,
                         tiles_used,
                         static_cast<unsigned>(units_per_batch));
            emitMix(trace, reduce_mix,
                    static_cast<unsigned>(units_per_batch),
                    static_cast<unsigned>(units_per_batch),
                    cols_per_sv - 1);
        }

        // Kernel tail per SV: square, then coefficient multiply.
        emitMix(trace, square_mix,
                static_cast<unsigned>(units_per_batch),
                static_cast<unsigned>(units_per_batch), 1);
        emitMix(trace, coef_mix,
                static_cast<unsigned>(units_per_batch),
                static_cast<unsigned>(units_per_batch), 1);

        // Class-score reduction: tree-sum the per-SV terms of each
        // classifier (log2 rounds of shift-move + add).
        const std::uint64_t per_class =
            std::max<std::uint64_t>(1,
                                    units_per_batch / work.numClasses);
        const unsigned rounds = bitsFor(per_class - 1);
        std::uint64_t live = units_per_batch;
        for (unsigned r = 0; r < rounds; ++r) {
            live = std::max<std::uint64_t>(live / 2, work.numClasses);
            emitRowMoves(trace, shape, work.scoreBits, tiles_used,
                         static_cast<unsigned>(live));
            emitMix(trace, score_add_mix,
                    static_cast<unsigned>(live),
                    static_cast<unsigned>(live), 1);
        }
    }
    // Arg-max: pairwise score comparisons in the score columns.
    emitMix(trace, score_add_mix, work.numClasses, work.numClasses,
            work.numClasses - 1);

    if (info) {
        info->elementsPerColumn = k;
        info->colsPerUnit = cols_per_sv;
        info->unitsPerBatch = units_per_batch;
        info->batches = batches;
        info->peakActiveColumns = active;
        info->dataMB =
            static_cast<double>(active_mac) * shape.tileRows /
            (8.0 * 1024 * 1024);
        info->instrMB = static_cast<double>(trace.totalInstructions()) *
                        8.0 / (1024 * 1024);
    }
    return trace;
}

Trace
buildBnnTrace(const GateLibrary &lib, const BnnShape &net,
              const MouseShape &shape, MappingInfo *info)
{
    // Per column: k (weight, activation) pairs plus the XNOR products
    // kept alive for the popcount tree.
    const unsigned reserve = 64;
    const unsigned k = (shape.tileRows - reserve) / 3;
    mouse_assert(k >= 1, "tile too small for BNN mapping");

    Trace trace;
    MappingInfo local;
    local.elementsPerColumn = k;

    // The per-column MAC kernel depends only on the slice width; use
    // the full-k version (boundary columns are cheaper; charging the
    // full slice is slightly conservative).
    const InstrMix mac_mix = measureMix(lib, [&](KernelBuilder &kb) {
        std::vector<Val> products;
        products.reserve(k);
        for (unsigned i = 0; i < k; ++i) {
            products.push_back(
                kb.xnorFlip(kb.pinned(1), kb.pinned(3)));
        }
        Word count = kb.popcountTree(std::move(products));
        (void)count;
    });

    std::vector<unsigned> widths = net.hiddenWidths;
    widths.push_back(net.numClasses);
    unsigned in_bits = net.inputBits;
    std::uint64_t peak_cols = 0;
    std::uint64_t data_cols = 0;

    for (std::size_t layer = 0; layer < widths.size(); ++layer) {
        const unsigned out = widths[layer];
        const unsigned cols_per_neuron = ceilDiv(in_bits, k);
        const std::uint64_t cols =
            static_cast<std::uint64_t>(out) * cols_per_neuron;
        const std::uint64_t limit = shape.totalColumns();
        mouse_assert(limit >= cols_per_neuron,
                     "BNN layer exceeds the array; add tiles or "
                     "raise the parallelism cap");
        // Power-budgeted layouts process the layer in neuron chunks
        // (Section IV-C: parallelism traded for power draw).  Floor
        // the per-chunk neuron count so a chunk never exceeds the
        // column limit.
        const unsigned out_chunk = static_cast<unsigned>(std::min(
            static_cast<std::uint64_t>(out),
            limit / cols_per_neuron));
        const unsigned chunks = ceilDiv(out, out_chunk);
        const std::uint64_t chunk_cols =
            static_cast<std::uint64_t>(out_chunk) * cols_per_neuron;
        const unsigned tiles = ceilDiv(chunk_cols, shape.tileCols);
        const auto active = static_cast<unsigned>(chunk_cols);
        const unsigned acc_bits = bitsFor(in_bits);
        peak_cols = std::max(peak_cols, chunk_cols);
        data_cols += cols;

        // The partial-count add and the threshold depend only on the
        // layer's accumulator width: measure them once per layer.
        InstrMix add_mix;
        if (cols_per_neuron > 1) {
            add_mix = measureMix(lib, [&](KernelBuilder &kb) {
                const Word a = kb.pinnedWord(0, acc_bits);
                const Word b = kb.pinnedWord(
                    static_cast<RowAddr>(2 * acc_bits), acc_bits);
                Word s = kb.add(a, b, false);
                (void)s;
            });
        }
        // Threshold (batch-norm fold): count - threshold.
        const InstrMix thresh_mix =
            measureMix(lib, [&](KernelBuilder &kb) {
                const Word count = kb.pinnedWord(0, acc_bits);
                const Word thresh = kb.pinnedWord(
                    static_cast<RowAddr>(2 * acc_bits), acc_bits);
                Word diff = kb.sub(count, thresh);
                (void)diff;
            });

        for (unsigned chunk = 0; chunk < chunks; ++chunk) {
            trace.append(Opcode::kActivateRange, active, active, 1);

            // Distribute this layer's input activations into each
            // neuron's column slices.
            emitRowMoves(trace, shape, std::min(in_bits, k), tiles,
                         active);

            // XNOR + popcount-tree MAC in every column.
            emitMix(trace, mac_mix, active, active, 1);

            // Gather per-neuron partial counts and sum them.
            if (cols_per_neuron > 1) {
                emitRowMoves(trace, shape,
                             static_cast<std::uint64_t>(
                                 cols_per_neuron - 1) *
                                 acc_bits,
                             tiles, out_chunk);
                emitMix(trace, add_mix, out_chunk, out_chunk,
                        cols_per_neuron - 1);
            }

            // Threshold (batch-norm fold).
            emitMix(trace, thresh_mix, out_chunk, out_chunk, 1);
        }

        in_bits = out;
    }

    if (info) {
        local.colsPerUnit = ceilDiv(net.inputBits, k);
        local.unitsPerBatch = widths.front();
        local.batches = 1;
        local.peakActiveColumns = peak_cols;
        local.dataMB = static_cast<double>(data_cols) *
                       shape.tileRows / (8.0 * 1024 * 1024);
        local.instrMB =
            static_cast<double>(trace.totalInstructions()) * 8.0 /
            (1024 * 1024);
        *info = local;
    }
    return trace;
}

void
buildSmallBnnNeuronKernel(KernelBuilder &kb, RowAddr w_base,
                          RowAddr x_base, RowAddr thresh_base,
                          unsigned k, Word &count_out,
                          Val &fires_out)
{
    mouse_assert(k > 0, "empty neuron");
    mouse_assert((w_base & 1) == 0 && (x_base & 1) == 0,
                 "weights/activations live on even rows");
    mouse_assert((thresh_base & 1) == 1,
                 "threshold must sit on odd rows (popcount parity)");
    std::vector<Val> products;
    products.reserve(k);
    for (unsigned i = 0; i < k; ++i) {
        // XNOR flips parity: even-row operands, odd-row products.
        products.push_back(kb.xnorFlip(
            kb.pinned(static_cast<RowAddr>(w_base + 4 * i)),
            kb.pinned(static_cast<RowAddr>(x_base + 4 * i))));
    }
    count_out = kb.popcountTree(std::move(products));

    // Threshold compare: diff = count - threshold (two's complement,
    // both on the odd bitline); the neuron fires iff diff >= 0.
    // Both operands are *unsigned*, so zero-extend them by one bit
    // before the signed subtract (the popcount can fill its top
    // bit, which sign extension would misread as negative).
    unsigned thresh_bits = 1;
    while ((1u << thresh_bits) <= k) {
        ++thresh_bits;
    }
    const Val zero = kb.constant(0, 1);
    Word count_ext = count_out;
    count_ext.push_back(zero);
    Word thresh = kb.pinnedWord(thresh_base, thresh_bits);
    thresh.push_back(zero);
    Word diff = kb.sub(count_ext, thresh);
    fires_out = kb.not_(diff.back());
    kb.freeWord(diff);
    kb.free(zero);
}

void
buildSmallSvmKernel(KernelBuilder &kb, RowAddr sv_rows, RowAddr x_rows,
                    unsigned dim, unsigned input_bits,
                    unsigned acc_bits, Word &square_out)
{
    Word acc = kb.zeroWord(acc_bits);
    for (unsigned e = 0; e < dim; ++e) {
        const Word sv = kb.pinnedWord(
            static_cast<RowAddr>(sv_rows + e * 2 * input_bits),
            input_bits);
        const Word x = kb.pinnedWord(
            static_cast<RowAddr>(x_rows + e * 2 * input_bits),
            input_bits);
        Word p = kb.mulUnsigned(sv, x);
        Word next = kb.add(acc, p, /*grow=*/false);
        kb.freeWord(acc);
        kb.freeWord(p);
        acc = std::move(next);
    }
    square_out = kb.mulUnsigned(acc, acc);
    kb.freeWord(acc);
}

} // namespace mouse
