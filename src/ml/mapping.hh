/**
 * @file
 * Application mapping: SVM and BNN inference compiled onto the MOUSE
 * tile grid (paper Sections VI, VII, VIII).
 *
 * The mapping follows the paper's greedy scheme: pack as many
 * element pairs of the two vectors as fit into a single column (with
 * rows to spare for scratch bits), spill the rest to neighbouring
 * columns, run the element-wise multiply-accumulate serially per
 * column with full column- and tile-parallelism, then gather partial
 * sums with buffer-assisted row moves and finish with reduction
 * adds.
 *
 * Per-block instruction costs are not hand-estimated: each phase's
 * instruction mix is *measured* by running the real KernelBuilder on
 * a representative column and counting the instructions it emits.
 * The workload trace is those measured mixes replicated by the
 * layout's phase counts — so the performance model and the bit-exact
 * functional compiler can never drift apart.
 *
 * A trace is built in two steps.  Its layout names the kernels its
 * phases repeat (svmKernels/bnnKernels), each a small comparable
 * Kernel descriptor; measureKernel() measures one on a gate library;
 * the assembly step (assembleSvmTrace/assembleBnnTrace) replicates
 * the measured mixes.  Generated code is data-oblivious (Section
 * IV-B), so a kernel's mix depends only on its descriptor and the
 * library's feasibility answers, and a sweep can measure each
 * distinct kernel once for all of its benchmarks.
 *
 * Fixed-point truncation: accumulators use the bit widths below
 * rather than full-precision growth (dot products truncate to
 * accBits, squares to squareBits, coefficient products to
 * scoreBits), matching the paper's fixed-point integer arithmetic.
 */

#ifndef MOUSE_ML_MAPPING_HH
#define MOUSE_ML_MAPPING_HH

#include <compare>
#include <map>
#include <string>

#include "compile/builder.hh"
#include "ml/bnn.hh"
#include "ml/svm.hh"

namespace mouse
{

/** Accelerator geometry available to a workload. */
struct MouseShape
{
    unsigned numDataTiles = 64;
    unsigned tileRows = 1024;
    unsigned tileCols = 1024;
    /**
     * Power-budget knob (paper Section IV-C): cap on simultaneously
     * active columns.  0 means unlimited.  Lower caps trade latency
     * for peak power draw — "by adjusting the amount of parallelism
     * in the computation, the power consumption of MOUSE can be
     * finely tuned".
     */
    std::uint64_t maxActiveColumns = 0;

    std::uint64_t
    totalColumns() const
    {
        const std::uint64_t physical =
            static_cast<std::uint64_t>(numDataTiles) * tileCols;
        return maxActiveColumns > 0
                   ? std::min(maxActiveColumns, physical)
                   : physical;
    }
};

/** Shape of an SVM inference workload. */
struct SvmWorkload
{
    std::string name;
    unsigned numSupportVectors = 0;
    unsigned dim = 0;
    /** Feature precision: 8, or 1 for binarized inputs. */
    unsigned inputBits = 8;
    unsigned numClasses = 2;
    /** Dot-product accumulator width (truncated fixed point). */
    unsigned accBits = 24;
    /** Width kept after squaring the dot product. */
    unsigned squareBits = 32;
    /** Dual-coefficient precision. */
    unsigned coefBits = 8;
    /** Class-score accumulator width. */
    unsigned scoreBits = 40;

    /** Workload derived from a trained model's shape. */
    static SvmWorkload fromModel(const std::string &name,
                                 const SvmModel &model, unsigned dim,
                                 unsigned input_bits);
};

/** Derived layout facts, reported for documentation and tests. */
struct MappingInfo
{
    /** Element pairs packed per column (the paper's "as many as
     *  possible bits ... into a single column"). */
    unsigned elementsPerColumn = 0;
    /** Columns one dot product spans. */
    unsigned colsPerUnit = 0;
    /** Units (support vectors / neurons) processed per batch. */
    std::uint64_t unitsPerBatch = 0;
    /** Sequential batches needed. */
    unsigned batches = 0;
    /** Peak simultaneously active columns. */
    std::uint64_t peakActiveColumns = 0;
    /** Data footprint in MB (columns used x rows). */
    double dataMB = 0.0;
    /** Instruction footprint in MB (straight-line program). */
    double instrMB = 0.0;

    double
    totalMB() const
    {
        return dataMB + instrMB;
    }
};

/**
 * One kernel a trace repeats: a kind plus the widths that fix its
 * code.  Equal descriptors compile to the same instruction mix on
 * any library answering the same feasibility queries alike.
 */
struct Kernel
{
    enum class Kind : std::uint8_t
    {
        /** a x a unsigned multiply accumulated into b bits. */
        kSvmMac,
        /** a AND products reduced by a popcount tree. */
        kAndPopcount,
        /** a XNOR products reduced by a popcount tree. */
        kXnorPopcount,
        /** a-bit add, truncated to a bits. */
        kAdd,
        /** a-bit two's-complement subtract. */
        kSub,
        /** a x a unsigned multiply. */
        kSquare,
        /** a x b two's-complement multiply. */
        kMulSigned,
    };

    Kind kind = Kind::kAdd;
    unsigned a = 0;
    unsigned b = 0;

    static Kernel
    svmMac(unsigned input_bits, unsigned acc_bits)
    {
        return {Kind::kSvmMac, input_bits, acc_bits};
    }
    static Kernel
    andPopcount(unsigned k)
    {
        return {Kind::kAndPopcount, k, 0};
    }
    static Kernel
    xnorPopcount(unsigned k)
    {
        return {Kind::kXnorPopcount, k, 0};
    }
    static Kernel
    add(unsigned width)
    {
        return {Kind::kAdd, width, 0};
    }
    static Kernel
    sub(unsigned width)
    {
        return {Kind::kSub, width, 0};
    }
    static Kernel
    square(unsigned width)
    {
        return {Kind::kSquare, width, 0};
    }
    static Kernel
    mulSigned(unsigned a_bits, unsigned b_bits)
    {
        return {Kind::kMulSigned, a_bits, b_bits};
    }

    auto operator<=>(const Kernel &) const = default;

    /**
     * Fixed size proxy: the adder cells (bit products, full and half
     * adders) the kernel's code is made of.  A sweep starts its
     * largest measurements first.
     */
    std::uint64_t cells() const;
};

/** The measured instruction mix of one kernel. */
struct KernelMix
{
    KernelBuilder::OpcodeCounts counts{};
    /** The builder's feasibility queries and answers. */
    GateMask gateQueries = 0;
    GateMask gateAnswers = 0;

    /** True when @p lib answers every recorded feasibility query as
     *  this measurement's library did, i.e. measuring on @p lib
     *  would give this same mix. */
    bool
    measuredFor(const GateLibrary &lib) const
    {
        return lib.feasibleAmong(gateQueries) == gateAnswers;
    }
};

/**
 * Measure @p kernel on @p lib by compiling it on a counting builder
 * (which keeps no Program).  The counts are exact because generated
 * code is data-independent.
 */
KernelMix measureKernel(const GateLibrary &lib, const Kernel &kernel);

/** Measured mixes by kernel: what a trace assembly reads. */
using KernelMixes = std::map<Kernel, KernelMix>;

/** measureKernel() of every kernel in @p kernels on @p lib. */
KernelMixes measureKernels(const GateLibrary &lib,
                           const std::vector<Kernel> &kernels);

/** The distinct kernels an SVM trace of @p work on @p shape repeats,
 *  in ascending order. */
std::vector<Kernel> svmKernels(const SvmWorkload &work,
                               const MouseShape &shape);

/** The distinct kernels a BNN trace of @p net on @p shape repeats,
 *  in ascending order. */
std::vector<Kernel> bnnKernels(const BnnShape &net,
                               const MouseShape &shape);

/**
 * Assemble the SVM trace from measured mixes.  @p mixes must hold
 * every kernel svmKernels(work, shape) lists, all measured on one
 * library (or on libraries answering their queries alike).
 */
Trace assembleSvmTrace(const SvmWorkload &work, const MouseShape &shape,
                       const KernelMixes &mixes,
                       MappingInfo *info = nullptr);

/** Assemble the BNN trace from measured mixes of
 *  bnnKernels(net, shape). */
Trace assembleBnnTrace(const BnnShape &net, const MouseShape &shape,
                       const KernelMixes &mixes,
                       MappingInfo *info = nullptr);

/**
 * Build the compressed execution trace of one SVM inference:
 * measure svmKernels() on @p lib, then assembleSvmTrace().
 *
 * @param lib Gate library of the target technology.
 * @param work Workload shape.
 * @param shape Accelerator geometry.
 * @param info Optional out-parameter for layout facts.
 */
Trace buildSvmTrace(const GateLibrary &lib, const SvmWorkload &work,
                    const MouseShape &shape,
                    MappingInfo *info = nullptr);

/**
 * Build the compressed execution trace of one BNN inference for a
 * FINN / FP-BNN style MLP: measure bnnKernels() on @p lib, then
 * assembleBnnTrace().
 */
Trace buildBnnTrace(const GateLibrary &lib, const BnnShape &net,
                    const MouseShape &shape,
                    MappingInfo *info = nullptr);

/**
 * Compile a *small* SVM binary classifier into a real runnable
 * program for the functional simulator: one support vector per
 * column block, used by the end-to-end examples and the
 * software-vs-array equivalence tests.
 *
 * The generated program leaves, for each support vector s (column
 * block s), the truncated value (sv_s . x)^2 at the rows returned in
 * @p square_out.
 *
 * @param kb Builder targeting the tile holding the data.
 * @param sv_rows Row of the first support-vector element bit.
 * @param x_rows Row of the first input element bit.
 * @param dim Elements per vector.
 * @param input_bits Feature precision.
 * @param acc_bits Dot accumulator width.
 * @param square_out Receives the rows of the squared dot product.
 */
void buildSmallSvmKernel(KernelBuilder &kb, RowAddr sv_rows,
                         RowAddr x_rows, unsigned dim,
                         unsigned input_bits, unsigned acc_bits,
                         Word &square_out);

/**
 * Compile one BNN neuron (paper Section III) for the functional
 * simulator: XNOR the weight bits against the activation bits,
 * popcount with a carry-save tree, and threshold — one neuron per
 * column, the exact computation buildBnnTrace prices at scale.
 *
 * Row layout (all even rows): weight bit i at w_base + 4*i,
 * activation bit i at x_base + 4*i.  The threshold is stored
 * per-column at *odd* rows thresh_base + 2*i (it meets the popcount
 * word on the odd bitline).
 *
 * @param kb Builder.
 * @param w_base First weight row.
 * @param x_base First activation row.
 * @param thresh_base First threshold row (odd).
 * @param k Number of weight/activation pairs.
 * @param count_out Receives the popcount word rows.
 * @param fires_out Receives the activation bit row (1 iff
 *        popcount >= threshold).
 */
void buildSmallBnnNeuronKernel(KernelBuilder &kb, RowAddr w_base,
                               RowAddr x_base, RowAddr thresh_base,
                               unsigned k, Word &count_out,
                               Val &fires_out);

} // namespace mouse

#endif // MOUSE_ML_MAPPING_HH
