#include "mapping.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mouse
{

namespace
{

/** Append @p repeats executions of a measured mix to the trace,
 *  which takes on the mix's feasibility queries and answers. */
void
emitMix(Trace &trace, const KernelMix &mix, unsigned touched_cols,
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

/** Cells of an m x n unsigned multiply: m bit products per row plus
 *  the carry ripple to the top of the m + n bit accumulator. */
std::uint64_t
mulUnsignedCells(std::uint64_t m, std::uint64_t n)
{
    return m * n + n * (n + 1) / 2;
}

/** Sorted, duplicate-free copy of @p kernels. */
std::vector<Kernel>
distinct(std::vector<Kernel> kernels)
{
    std::sort(kernels.begin(), kernels.end());
    kernels.erase(std::unique(kernels.begin(), kernels.end()),
                  kernels.end());
    return kernels;
}

/** The SVM layout and the kernels its phases repeat. */
struct SvmPlan
{
    bool binary = false;
    /** Element pairs per column. */
    unsigned k = 0;
    unsigned colsPerSv = 0;
    std::uint64_t unitsPerBatch = 0;
    unsigned batches = 0;
    std::uint64_t activeMac = 0;
    unsigned tilesUsed = 0;
    /** Active columns of the MAC phase. */
    unsigned active = 0;

    Kernel mac;
    /** Gathers partial sums; repeated only when colsPerSv > 1. */
    Kernel reduce;
    Kernel square;
    Kernel coef;
    Kernel scoreAdd;
};

SvmPlan
planSvm(const SvmWorkload &work, const MouseShape &shape)
{
    mouse_assert(work.numSupportVectors > 0 && work.dim > 0,
                 "empty workload");
    SvmPlan plan;
    plan.binary = work.inputBits == 1;

    // -- Layout: element pairs per column -----------------------------
    // Per element pair: inputBits rows for the SV element + inputBits
    // for the input element; binarized MACs additionally keep their
    // AND products alive for the popcount tree.
    unsigned k;
    const unsigned reserve = 72;  // scratch + accumulator reserve
    if (plan.binary) {
        k = (shape.tileRows - reserve) / 3;
    } else {
        k = (shape.tileRows - work.accBits - reserve) /
            (2 * work.inputBits);
    }
    mouse_assert(k >= 1, "tile rows cannot hold one element pair");
    plan.k = std::min(k, work.dim);

    plan.colsPerSv = ceilDiv(work.dim, plan.k);
    const std::uint64_t sv_slots =
        shape.totalColumns() / plan.colsPerSv;
    mouse_assert(sv_slots > 0, "no column slots");
    plan.unitsPerBatch =
        std::min<std::uint64_t>(work.numSupportVectors, sv_slots);
    plan.batches = ceilDiv(work.numSupportVectors, plan.unitsPerBatch);
    plan.activeMac = plan.unitsPerBatch * plan.colsPerSv;
    plan.tilesUsed = ceilDiv(plan.activeMac, shape.tileCols);
    plan.active = static_cast<unsigned>(std::min<std::uint64_t>(
        plan.activeMac, shape.totalColumns()));

    // -- Kernels ---------------------------------------------------------
    // Binarized: a whole-column MAC of k AND products reduced by a
    // popcount tree.  Otherwise a per-element MAC: inputBits x
    // inputBits multiply + accumulate into accBits.
    plan.mac = plan.binary ? Kernel::andPopcount(plan.k)
                           : Kernel::svmMac(work.inputBits, work.accBits);
    plan.reduce = Kernel::add(work.accBits);
    plan.square = Kernel::square(work.accBits);
    plan.coef = Kernel::mulSigned(work.squareBits, work.coefBits);
    plan.scoreAdd = Kernel::add(work.scoreBits);
    return plan;
}

/** One BNN layer's layout. */
struct LayerPlan
{
    unsigned inBits = 0;
    /** Neurons. */
    unsigned out = 0;
    unsigned colsPerNeuron = 0;
    /** Neurons per chunk; the layer runs in @c chunks chunks. */
    unsigned outChunk = 0;
    unsigned chunks = 0;
    unsigned tiles = 0;
    /** Active columns of one chunk. */
    unsigned active = 0;
    unsigned accBits = 0;
    /** Columns the whole layer's data occupies. */
    std::uint64_t cols = 0;

    /** Sums a neuron's partial counts; repeated only when
     *  colsPerNeuron > 1. */
    Kernel partialAdd;
    /** Threshold (batch-norm fold): count - threshold. */
    Kernel threshold;
};

/** The BNN layout: per-column slice width and the layers. */
struct BnnPlan
{
    unsigned k = 0;
    /**
     * The per-column XNOR + popcount MAC.  It depends only on the
     * slice width; the full-k version serves every column (boundary
     * columns are cheaper; charging the full slice is slightly
     * conservative).
     */
    Kernel mac;
    std::vector<LayerPlan> layers;
};

BnnPlan
planBnn(const BnnShape &net, const MouseShape &shape)
{
    // Per column: k (weight, activation) pairs plus the XNOR products
    // kept alive for the popcount tree.
    const unsigned reserve = 64;
    BnnPlan plan;
    plan.k = (shape.tileRows - reserve) / 3;
    mouse_assert(plan.k >= 1, "tile too small for BNN mapping");
    plan.mac = Kernel::xnorPopcount(plan.k);

    std::vector<unsigned> widths = net.hiddenWidths;
    widths.push_back(net.numClasses);
    unsigned in_bits = net.inputBits;
    for (const unsigned out : widths) {
        LayerPlan layer;
        layer.inBits = in_bits;
        layer.out = out;
        layer.colsPerNeuron = ceilDiv(in_bits, plan.k);
        layer.cols =
            static_cast<std::uint64_t>(out) * layer.colsPerNeuron;
        const std::uint64_t limit = shape.totalColumns();
        mouse_assert(limit >= layer.colsPerNeuron,
                     "BNN layer exceeds the array; add tiles or "
                     "raise the parallelism cap");
        // Power-budgeted layouts process the layer in neuron chunks
        // (Section IV-C: parallelism traded for power draw).  Floor
        // the per-chunk neuron count so a chunk never exceeds the
        // column limit.
        layer.outChunk = static_cast<unsigned>(std::min(
            static_cast<std::uint64_t>(out),
            limit / layer.colsPerNeuron));
        layer.chunks = ceilDiv(out, layer.outChunk);
        const std::uint64_t chunk_cols =
            static_cast<std::uint64_t>(layer.outChunk) *
            layer.colsPerNeuron;
        layer.tiles = ceilDiv(chunk_cols, shape.tileCols);
        layer.active = static_cast<unsigned>(chunk_cols);
        layer.accBits = bitsFor(in_bits);
        layer.partialAdd = Kernel::add(layer.accBits);
        layer.threshold = Kernel::sub(layer.accBits);
        plan.layers.push_back(layer);
        in_bits = out;
    }
    return plan;
}

} // namespace

std::uint64_t
Kernel::cells() const
{
    switch (kind) {
      case Kind::kSvmMac:
        return mulUnsignedCells(a, a) + b;
      case Kind::kAndPopcount:
      case Kind::kXnorPopcount:
      case Kind::kAdd:
      case Kind::kSub:
        return a;
      case Kind::kSquare:
        return mulUnsignedCells(a, a);
      case Kind::kMulSigned:
        // Both operands are sign-extended to the a + b bit product.
        return static_cast<std::uint64_t>(a + b) * (a + b + 1) / 2;
    }
    mouse_panic("bad kernel kind %d", static_cast<int>(kind));
}

KernelMix
measureKernel(const GateLibrary &lib, const Kernel &kernel)
{
    // A scratch-only one-tile configuration.
    ArrayConfig cfg;
    cfg.tileRows = 1024;
    cfg.tileCols = 1024;
    cfg.numDataTiles = 1;
    KernelBuilder kb(lib, cfg, 0, 0, KernelBuilder::Mode::kCount);
    const unsigned a = kernel.a;
    const unsigned b = kernel.b;
    // Operands sit back to back on even rows, two rows per bit: the
    // operand after @p offset bits of earlier ones.  Pinning one
    // moves the builder's placement anchor, so operands are pinned in
    // order, one statement each.
    const auto operand = [&](unsigned offset, unsigned bits) {
        return kb.pinnedWord(static_cast<RowAddr>(2 * offset), bits);
    };
    switch (kernel.kind) {
      case Kernel::Kind::kSvmMac: {
        const Word x = operand(0, a);
        const Word y = operand(a, a);
        const Word acc = operand(2 * a, b);
        const Word p = kb.mulUnsigned(x, y);
        (void)kb.add(acc, p, /*grow=*/false);
        break;
      }
      case Kernel::Kind::kAndPopcount:
      case Kernel::Kind::kXnorPopcount: {
        const bool xnor = kernel.kind == Kernel::Kind::kXnorPopcount;
        std::vector<Val> products;
        products.reserve(a);
        for (unsigned i = 0; i < a; ++i) {
            products.push_back(
                xnor ? kb.xnorFlip(kb.pinned(1), kb.pinned(3))
                     : kb.andSame(kb.pinned(0), kb.pinned(2)));
        }
        (void)kb.popcountTree(std::move(products));
        break;
      }
      case Kernel::Kind::kAdd:
      case Kernel::Kind::kSub: {
        const Word x = operand(0, a);
        const Word y = operand(a, a);
        (void)(kernel.kind == Kernel::Kind::kAdd
                   ? kb.add(x, y, /*grow=*/false)
                   : kb.sub(x, y));
        break;
      }
      case Kernel::Kind::kSquare: {
        const Word d = operand(0, a);
        (void)kb.mulUnsigned(d, d);
        break;
      }
      case Kernel::Kind::kMulSigned: {
        const Word x = operand(0, a);
        const Word y = operand(a, b);
        (void)kb.mulSigned(x, y);
        break;
      }
    }

    KernelMix mix;
    mix.counts = kb.opcodeCounts();
    mix.gateQueries = kb.gateQueries();
    mix.gateAnswers = kb.gateAnswers();
    return mix;
}

KernelMixes
measureKernels(const GateLibrary &lib, const std::vector<Kernel> &kernels)
{
    KernelMixes mixes;
    for (const Kernel &kernel : kernels) {
        mixes.emplace(kernel, measureKernel(lib, kernel));
    }
    return mixes;
}

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

std::vector<Kernel>
svmKernels(const SvmWorkload &work, const MouseShape &shape)
{
    const SvmPlan plan = planSvm(work, shape);
    std::vector<Kernel> kernels = {plan.mac, plan.square, plan.coef,
                                   plan.scoreAdd};
    if (plan.colsPerSv > 1) {
        kernels.push_back(plan.reduce);
    }
    return distinct(std::move(kernels));
}

Trace
assembleSvmTrace(const SvmWorkload &work, const MouseShape &shape,
                 const KernelMixes &mixes, MappingInfo *info)
{
    const SvmPlan plan = planSvm(work, shape);
    const unsigned k = plan.k;
    const unsigned cols_per_sv = plan.colsPerSv;
    const std::uint64_t units_per_batch = plan.unitsPerBatch;
    const unsigned tiles_used = plan.tilesUsed;
    const unsigned active = plan.active;
    const auto units = static_cast<unsigned>(units_per_batch);
    const KernelMix &mac_mix = mixes.at(plan.mac);
    const KernelMix &square_mix = mixes.at(plan.square);
    const KernelMix &coef_mix = mixes.at(plan.coef);
    const KernelMix &score_add_mix = mixes.at(plan.scoreAdd);

    Trace trace;
    for (unsigned batch = 0; batch < plan.batches; ++batch) {
        // Activate the batch's column blocks.
        trace.append(Opcode::kActivateRange, active, active, 1);

        // Input distribution: the input vector's element slices are
        // written into every column (k * inputBits rows per tile).
        emitRowMoves(trace, shape,
                     static_cast<std::uint64_t>(k) * work.inputBits,
                     tiles_used, active);

        // Zero the dot-product accumulators.
        if (!plan.binary) {
            trace.append(Opcode::kPreset0, active, active,
                         work.accBits);
        }

        // Element-wise MAC phase (serial over the packed elements,
        // parallel across all active columns).
        emitMix(trace, mac_mix, active, active, plan.binary ? 1 : k);

        // Gather per-SV partial sums into the SV's first column:
        // buffer-shift moves then reduction adds.
        if (cols_per_sv > 1) {
            emitRowMoves(trace, shape,
                         static_cast<std::uint64_t>(cols_per_sv - 1) *
                             work.accBits,
                         tiles_used, units);
            emitMix(trace, mixes.at(plan.reduce), units, units,
                    cols_per_sv - 1);
        }

        // Kernel tail per SV: square, then coefficient multiply.
        emitMix(trace, square_mix, units, units, 1);
        emitMix(trace, coef_mix, units, units, 1);

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
        info->batches = plan.batches;
        info->peakActiveColumns = active;
        info->dataMB =
            static_cast<double>(plan.activeMac) * shape.tileRows /
            (8.0 * 1024 * 1024);
        info->instrMB = static_cast<double>(trace.totalInstructions()) *
                        8.0 / (1024 * 1024);
    }
    return trace;
}

Trace
buildSvmTrace(const GateLibrary &lib, const SvmWorkload &work,
              const MouseShape &shape, MappingInfo *info)
{
    return assembleSvmTrace(
        work, shape, measureKernels(lib, svmKernels(work, shape)), info);
}

std::vector<Kernel>
bnnKernels(const BnnShape &net, const MouseShape &shape)
{
    const BnnPlan plan = planBnn(net, shape);
    std::vector<Kernel> kernels = {plan.mac};
    for (const LayerPlan &layer : plan.layers) {
        if (layer.colsPerNeuron > 1) {
            kernels.push_back(layer.partialAdd);
        }
        kernels.push_back(layer.threshold);
    }
    return distinct(std::move(kernels));
}

Trace
assembleBnnTrace(const BnnShape &net, const MouseShape &shape,
                 const KernelMixes &mixes, MappingInfo *info)
{
    const BnnPlan plan = planBnn(net, shape);
    const KernelMix &mac_mix = mixes.at(plan.mac);

    Trace trace;
    std::uint64_t peak_cols = 0;
    std::uint64_t data_cols = 0;
    for (const LayerPlan &layer : plan.layers) {
        peak_cols = std::max<std::uint64_t>(peak_cols, layer.active);
        data_cols += layer.cols;
        const KernelMix &thresh_mix = mixes.at(layer.threshold);

        for (unsigned chunk = 0; chunk < layer.chunks; ++chunk) {
            trace.append(Opcode::kActivateRange, layer.active,
                         layer.active, 1);

            // Distribute this layer's input activations into each
            // neuron's column slices.
            emitRowMoves(trace, shape, std::min(layer.inBits, plan.k),
                         layer.tiles, layer.active);

            // XNOR + popcount-tree MAC in every column.
            emitMix(trace, mac_mix, layer.active, layer.active, 1);

            // Gather per-neuron partial counts and sum them.
            if (layer.colsPerNeuron > 1) {
                emitRowMoves(trace, shape,
                             static_cast<std::uint64_t>(
                                 layer.colsPerNeuron - 1) *
                                 layer.accBits,
                             layer.tiles, layer.outChunk);
                emitMix(trace, mixes.at(layer.partialAdd),
                        layer.outChunk, layer.outChunk,
                        layer.colsPerNeuron - 1);
            }

            // Threshold (batch-norm fold).
            emitMix(trace, thresh_mix, layer.outChunk, layer.outChunk,
                    1);
        }
    }

    if (info) {
        info->elementsPerColumn = plan.k;
        info->colsPerUnit = ceilDiv(net.inputBits, plan.k);
        info->unitsPerBatch = plan.layers.front().out;
        info->batches = 1;
        info->peakActiveColumns = peak_cols;
        info->dataMB = static_cast<double>(data_cols) *
                       shape.tileRows / (8.0 * 1024 * 1024);
        info->instrMB =
            static_cast<double>(trace.totalInstructions()) * 8.0 /
            (1024 * 1024);
    }
    return trace;
}

Trace
buildBnnTrace(const GateLibrary &lib, const BnnShape &net,
              const MouseShape &shape, MappingInfo *info)
{
    return assembleBnnTrace(
        net, shape, measureKernels(lib, bnnKernels(net, shape)), info);
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
