/**
 * @file
 * Program containers for the two simulation fidelities.
 *
 * A Program is the literal instruction sequence stored in the
 * instruction tiles — what the functional simulator runs.
 *
 * A Trace is the compressed form used for the paper's large
 * benchmarks: a run-length-encoded stream of (opcode, touched
 * columns) pairs.  Energy and latency of a trace are computed with
 * the exact same EnergyModel as the functional path; a Trace built
 * from a Program is cycle- and energy-equivalent by construction
 * (tested), which is what licenses using traces for the big
 * workloads.
 */

#ifndef MOUSE_COMPILE_PROGRAM_HH
#define MOUSE_COMPILE_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "arch/tile_grid.hh"
#include "isa/instruction.hh"

namespace mouse
{

class GateLibrary;

/** A complete MOUSE program (must end with HALT). */
struct Program
{
    std::vector<Instruction> instructions;

    /** Encode to the 64-bit words stored in instruction tiles. */
    std::vector<std::uint64_t> encode() const;

    std::size_t size() const { return instructions.size(); }

    /** Count instructions with a given opcode. */
    std::size_t countOpcode(Opcode op) const;
};

/** One run of identical-cost instructions in a compressed trace. */
struct TraceBlock
{
    Opcode op = Opcode::kHalt;
    /** Columns the instruction drives (active set, row width, or
     *  activation size — see EnergyModel::instructionEnergy). */
    unsigned touchedCols = 0;
    /** Active-column count *after* the instruction, needed to price
     *  a restart that interrupts this block. */
    unsigned activeColsAfter = 0;
    /** Number of identical repetitions. */
    std::uint64_t count = 1;
};

/** Compressed instruction trace for the performance simulator. */
struct Trace
{
    std::vector<TraceBlock> blocks;

    /**
     * The only thing a compiled trace takes from its technology: the
     * gates whose feasibility its kernels asked about, and the subset
     * answered feasible.  The mapping's trace builders fill these; a
     * trace derived any other way records none.
     */
    GateMask gateQueries = 0;
    GateMask gateAnswers = 0;

    /** True when @p lib answers every recorded feasibility query as
     *  this trace's compile did, i.e. compiling for @p lib would
     *  produce this same trace. */
    bool compiledFor(const GateLibrary &lib) const;

    std::uint64_t totalInstructions() const;

    /** Append one block, merging with the tail when possible. */
    void append(Opcode op, unsigned touched_cols,
                unsigned active_after, std::uint64_t count = 1);

    /** Append another trace @p times times (its gate queries and
     *  answers join this trace's). */
    void appendTrace(const Trace &other, std::uint64_t times = 1);

    /**
     * Derive the trace of a concrete program by replaying its
     * activation state (to learn the active-column count at each
     * instruction).
     */
    static Trace fromProgram(const Program &prog,
                             const ArrayConfig &cfg);
};

} // namespace mouse

#endif // MOUSE_COMPILE_PROGRAM_HH
