/**
 * @file
 * Gate-level kernel builder: compiles bit- and word-level operations
 * into MOUSE instruction sequences (paper Sections VI, VII).
 *
 * The builder works in the SIMD model of the array: one instruction
 * sequence is generated against row addresses of a single tile, and
 * executes simultaneously in every active column (each column holds
 * its own data at the same rows).
 *
 * Parity discipline: every gate's inputs must share a row parity and
 * its output must take the other (Section II-C).  Values track their
 * parity through their row address; the builder inserts BUF copies
 * where a dataflow needs a value on the other bitline.  The paper's
 * "9 NAND gates + 7 temporaries" full adder becomes 9 NANDs plus 2
 * parity copies here, with every gate's output preset emitted as an
 * explicit write instruction (the paper prices these too, it merely
 * elides them from Figure 8).
 *
 * All generated code is data-oblivious — the instruction sequence
 * never depends on runtime values (Section IV-B: "the sequence of
 * instructions performed doesn't change as a function of inputs") —
 * so arithmetic is two's-complement with sign-extension multiplies.
 */

#ifndef MOUSE_COMPILE_BUILDER_HH
#define MOUSE_COMPILE_BUILDER_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "compile/program.hh"
#include "compile/row_alloc.hh"
#include "logic/gate_library.hh"

namespace mouse
{

/** A single-bit value: the row that holds it (in every active
 *  column).  Parity is implied by the row address. */
struct Val
{
    RowAddr row = 0;

    unsigned
    parity() const
    {
        return row & 1;
    }
};

/** A multi-bit two's-complement value, LSB first. */
using Word = std::vector<Val>;

/** Gate-level program builder for one tile. */
class KernelBuilder
{
  public:
    /** What the builder keeps of the code it generates. */
    enum class Mode
    {
        /** Store every instruction; finish() returns the Program. */
        kRecord,
        /**
         * Count opcodes only.  Generated code is data-oblivious, so
         * the histogram is a kernel's whole cost; this is how the
         * mapping measures kernel mixes without storing a Program.
         * Calling activate() or finish() on a counting builder is a
         * caller bug: the trace that repeats the mix places those.
         */
        kCount,
    };

    /** Instructions emitted, indexed by opcode. */
    using OpcodeCounts =
        std::array<std::uint64_t,
                   static_cast<std::size_t>(Opcode::kNumOpcodes)>;

    /**
     * @param lib Gate library (feasibility + device parameters).
     * @param cfg Array geometry.
     * @param tile Tile the kernel executes in.
     * @param first_free_row First row the allocator may hand out;
     *        rows below it are owned by the caller's data layout.
     * @param mode Record a Program, or only count opcodes.
     */
    KernelBuilder(const GateLibrary &lib, const ArrayConfig &cfg,
                  TileAddr tile, unsigned first_free_row,
                  Mode mode = Mode::kRecord);

    // -- Program assembly ---------------------------------------------

    /** Activate a contiguous column range (clears previous set). */
    void activate(ColAddr lo, ColAddr hi);

    /** Finish: append HALT and return the program.  Recording
     *  builders only. */
    Program finish();

    /** Opcode histogram of everything emitted so far (in either
     *  mode; includes the HALT once finished). */
    const OpcodeCounts &opcodeCounts() const { return counts_; }

    /** Peak scratch rows in simultaneous use. */
    unsigned scratchHighWater() const { return rows_.highWater(); }

    /**
     * Gates whose feasibility this kernel asked the library about,
     * and the subset answered feasible.  The emitted instruction
     * sequence is a function of these answers alone (placement only
     * moves rows), so any library answering them alike compiles the
     * same opcode stream.
     */
    GateMask gateQueries() const { return queries_; }
    GateMask gateAnswers() const { return answers_; }

    /**
     * Placement locality: allocate every gate's output row as close
     * as possible to its inputs, keeping operand spans short.
     * Defaults to on when the device has logic-line parasitics
     * (where span costs voltage — see the [95] ablation), off for
     * ideal wires.
     */
    void setPlacementLocality(bool on) { locality_ = on; }
    bool placementLocality() const { return locality_; }

    // -- Values ---------------------------------------------------------

    /** Wrap a caller-owned row as a value (not allocator-managed). */
    Val
    pinned(RowAddr row) const
    {
        return Val{row};
    }

    /** Caller-owned word at rows start, start+stride, ... (all the
     *  same parity; stride must be even). */
    Word pinnedWord(RowAddr start, unsigned bits,
                    unsigned stride = 2) const;

    /** Fresh scratch bit of the given parity, preset to @p value. */
    Val constant(Bit value, unsigned parity = 0);

    /** Fresh scratch bit with *no* preset emitted — for rows about
     *  to be overwritten by a row transfer. */
    Val
    scratch(unsigned parity)
    {
        return Val{allocOut(parity, anchor_)};
    }

    // -- Row transfers (cross-column transport) -------------------------

    /** Tile row -> controller row buffer. */
    void readRow(RowAddr row);

    /** Row buffer -> tile row. */
    void writeRow(RowAddr row);

    /** Row buffer -> tile row, rotated left by @p shift columns
     *  (column c receives buffer column c + shift). */
    void writeRowShifted(RowAddr row, ColAddr shift);

    /**
     * Copy the word at @p src into freshly allocated rows of the
     * same parity, with every bit shifted left by @p shift columns:
     * column c of the result holds column c + shift of the source.
     * Costs 2 row transfers per bit.
     */
    Word shiftedCopy(const Word &src, ColAddr shift);

    /**
     * Tree-sum a word across @p columns consecutive columns (power
     * of two): after log2(columns) rounds of shifted copies and
     * SIMD adds, column c holds the sum over columns [c, c+columns)
     * (wrapping); column 0 holds the full total.  The result grows
     * by log2(columns) bits.
     *
     * @param signed_values Treat the word as two's complement (sign
     *        extension instead of carry growth per round).
     */
    Word crossColumnSum(Word value, unsigned columns,
                        bool signed_values = false);

    /** Release a scratch bit. */
    void free(Val v);
    void freeWord(Word &w);

    // -- Single gates -----------------------------------------------------

    /** Preset + gate; output allocated at the opposite parity of the
     *  inputs.  Inputs must share parity; the gate must be feasible. */
    Val gate1(GateType g, Val a);
    Val gate2(GateType g, Val a, Val b);
    Val gate3(GateType g, Val a, Val b, Val c);

    /** BUF-copy @p v to the opposite parity. */
    Val copyFlip(Val v);

    /** Ensure a value sits at @p parity, copying if needed.  The
     *  original is *not* freed when a copy is made. */
    Val asParity(Val v, unsigned parity);

    // -- Logic helpers (results at the stated parity) ---------------------

    /** NOT; result parity = !a.parity(). */
    Val not_(Val a);
    /** NAND; result parity flips. */
    Val nand(Val a, Val b);
    /** AND via direct gate when feasible (parity flips). */
    Val andFlip(Val a, Val b);
    /** AND with result at the inputs' parity (NAND + NOT). */
    Val andSame(Val a, Val b);
    /** OR with parity flip (direct gate or DeMorgan fallback). */
    Val orFlip(Val a, Val b);
    /** XOR at the inputs' parity (4 NAND + 1 copy). */
    Val xorSame(Val a, Val b);
    /** XNOR at the flipped parity (XOR + NOT). */
    Val xnorFlip(Val a, Val b);

    // -- Arithmetic (words are even-parity, LSB first) ---------------------

    /**
     * Full adder (paper Section II-B): 9 NANDs + 2 parity copies,
     * 7 live temporaries.  a, b, cin share a parity; sum and cout
     * come back at that same parity.
     */
    void fullAdder(Val a, Val b, Val cin, Val &sum, Val &cout);

    /** Half adder: XOR + AND (sum/carry at the inputs' parity). */
    void halfAdder(Val a, Val b, Val &sum, Val &carry);

    /**
     * Ripple-carry add.  Operands may differ in width (the shorter
     * is implicitly sign- or zero-extended per @p signed_ext).
     * Result width = max width (+1 when @p grow).
     */
    Word add(const Word &a, const Word &b, bool grow = true,
             bool signed_ext = false);

    /** a - b in two's complement; result width = max width + 1 with
     *  sign extension semantics. */
    Word sub(const Word &a, const Word &b);

    /** Unsigned shift-add multiply; result width = |a| + |b|. */
    Word mulUnsigned(const Word &a, const Word &b);

    /**
     * Signed (two's complement) multiply: operands are sign-extended
     * to the result width and multiplied modulo 2^w.
     */
    Word mulSigned(const Word &a, const Word &b);

    /** Population count of @p bits (even parity), as a word.
     *  Linear counter-increment form: minimal scratch, O(n log n)
     *  gates. */
    Word popcount(const std::vector<Val> &bits);

    /**
     * Population count via carry-save (Wallace) reduction: ~n full
     * adders total, the form a latency-conscious mapping uses for
     * the BNN popcounts.  Consumes (frees) the input bits.
     */
    Word popcountTree(std::vector<Val> bits);

    /** Zero-valued word of @p bits. */
    Word zeroWord(unsigned bits, unsigned parity = 0);

  private:
    /** Count one @p op instruction and, when recording, append the
     *  one @p make builds (a counting builder never builds it). */
    template <typename Make>
    void
    emit(Opcode op, Make make)
    {
        ++counts_[static_cast<std::size_t>(op)];
        if (mode_ == Mode::kRecord) {
            program_.instructions.push_back(make());
        }
    }

    /** Emit a preset of @p row to the gate's required value. */
    void emitPreset(Bit value, RowAddr row);

    void emitGate(GateType g, const std::array<RowAddr, 3> &in, int n,
                  RowAddr out);

    /** Ask the library whether @p g is feasible, recording the
     *  query and its answer. */
    bool feasible(GateType g);

    /** Pick an implementable variant: asserts feasibility. */
    void requireFeasible(GateType g);

    /** Output-row allocation honoring the locality policy. */
    RowAddr allocOut(unsigned parity, RowAddr anchor);

    const GateLibrary &lib_;
    ArrayConfig cfg_;
    TileAddr tile_;
    RowAllocator rows_;
    Mode mode_;
    Program program_;
    OpcodeCounts counts_{};
    bool locality_ = false;
    bool finished_ = false;
    GateMask queries_ = 0;
    GateMask answers_ = 0;
    /** Row neighbourhood of recent activity: pinned operands and
     *  gate outputs update it; locality allocation gravitates to
     *  it.  Mutable because pinnedWord() is logically const. */
    mutable RowAddr anchor_ = 0;
};

} // namespace mouse

#endif // MOUSE_COMPILE_BUILDER_HH
