/**
 * @file
 * MCU op streams: the compiled MOUSE workload re-expressed as the
 * instruction stream an MSP430-class MCU would execute.
 *
 * There is no Thumb decoding here (docs/BASELINES.md).  Each MOUSE
 * instruction becomes one *op bundle* — the word-serial loop a C
 * compiler would emit for the same row/gate operation — priced from
 * the datasheet constants.  The stream keeps the Trace's run-length
 * compression (one McuBlock per TraceBlock) so harvested runs stay
 * closed-form per block, while op *indices* stay MOUSE-instruction
 * granular: op i of the stream corresponds to instruction i of the
 * source program, which is what lets the fault-injection campaigns
 * and the Clank checkpoint placement share coordinates with the
 * MOUSE side.
 */

#ifndef MOUSE_BASELINE_MCU_OP_STREAM_HH
#define MOUSE_BASELINE_MCU_OP_STREAM_HH

#include <cstdint>
#include <vector>

#include "compile/program.hh"

namespace mouse::mcu
{

/** Cost of one op bundle (one MOUSE-instruction equivalent). */
struct McuCost
{
    double energy = 0.0;
    double seconds = 0.0;
};

/** A run of identical-cost op bundles. */
struct McuBlock
{
    std::uint64_t count = 0;
    McuCost per{};
};

/** One workload as an MCU op stream plus checkpoint placement. */
struct McuProgram
{
    std::vector<McuBlock> blocks;
    /** Op index at which each block starts (prefix sums; one extra
     *  trailing entry equal to totalOps). */
    std::vector<std::uint64_t> blockStart;
    std::uint64_t totalOps = 0;
    /** Plain per-op cost totals (no scheme overheads). */
    double totalEnergy = 0.0;
    double totalSeconds = 0.0;
    /**
     * Sorted op indices at which a Clank-style region begins; always
     * contains 0 when non-empty.  fromTrace() places them uniformly;
     * the fault-injection layer substitutes the WAR-hazard-safe
     * placement of inject::idempotentCheckpoints() via
     * setCheckpoints().  Ignored by the other schemes.
     */
    std::vector<std::uint64_t> checkpoints;

    /** Largest checkpoint <= @p op (0 when none are placed). */
    std::uint64_t regionStart(std::uint64_t op) const;
};

/** Number of MCU instructions in the bundle for @p op touching
 *  @p touchedCols columns (the word-serial loop). */
std::uint64_t mcuOpsFor(Opcode op, unsigned touchedCols);

/** Datasheet cost of one bundle of @p ops MCU instructions. */
McuCost mcuCostFor(std::uint64_t ops);

/**
 * Build the op stream of a compressed trace with uniform Clank
 * regions every @p clankRegionOps ops (0 = kClankDefaultRegionOps).
 */
McuProgram mcuProgramFromTrace(const Trace &trace,
                               unsigned clankRegionOps = 0);

/** Build the op stream of a concrete program (one bundle per
 *  instruction, uniform regions as above). */
McuProgram mcuProgramFromProgram(const Program &prog,
                                 unsigned clankRegionOps = 0);

/** Replace the checkpoint placement (sorted; must start at 0). */
void setCheckpoints(McuProgram &prog,
                    std::vector<std::uint64_t> checkpoints);

} // namespace mouse::mcu

#endif // MOUSE_BASELINE_MCU_OP_STREAM_HH
