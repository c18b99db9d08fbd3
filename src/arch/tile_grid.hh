/**
 * @file
 * The MOUSE tile grid: data tiles, the broadcast column-activation
 * latch, the 128 B transfer buffer, and the instruction store.
 *
 * Volatility model (paper Section IV-A):
 *  - Tile contents are MTJs: non-volatile, survive power loss.
 *  - The column-activation latches are peripheral CMOS: *volatile*,
 *    cleared by an outage; the controller re-issues the last
 *    Activate Columns instruction(s) on restart.
 *  - The 128 B row buffer is itself a small MRAM row (the paper
 *    allots it alongside the non-volatile PC registers); modelling
 *    it volatile would break the idempotent-replay argument for
 *    READ/WRITE pairs, so it persists.
 */

#ifndef MOUSE_ARCH_TILE_GRID_HH
#define MOUSE_ARCH_TILE_GRID_HH

#include <memory>
#include <vector>

#include "arch/tile.hh"
#include "isa/instruction.hh"
#include "obs/stat_registry.hh"

namespace mouse
{

/** Geometry of the accelerator's memory arrays. */
struct ArrayConfig
{
    unsigned tileRows = 1024;
    unsigned tileCols = 1024;
    unsigned numDataTiles = 4;
    unsigned numInstructionTiles = 1;

    /** Bits stored by one tile. */
    std::size_t
    tileBits() const
    {
        return static_cast<std::size_t>(tileRows) * tileCols;
    }

    /** Instruction capacity of the instruction tiles (64 b each). */
    std::size_t
    instructionCapacity() const
    {
        return numInstructionTiles * tileBits() / 64;
    }
};

/**
 * Encoded-instruction store mapped onto the instruction tiles.  The
 * bits live in MRAM exactly like data, but are written once before
 * deployment, so we store the packed words directly.
 */
class InstructionMemory
{
  public:
    explicit InstructionMemory(const ArrayConfig &cfg) : cfg_(cfg) {}

    /** Load a program image. @pre fits in the instruction tiles. */
    void load(const std::vector<std::uint64_t> &words);

    std::size_t size() const { return words_.size(); }

    /** Fetch one 64-bit instruction word. */
    std::uint64_t fetch(std::size_t addr) const;

  private:
    ArrayConfig cfg_;
    std::vector<std::uint64_t> words_;
};

/** Result of executing one instruction on the grid. */
struct ExecOutcome
{
    /** Device (array) energy: gate pulses, presets, row transfers. */
    Joules deviceEnergy = 0.0;
    /** Active columns the instruction operated across. */
    unsigned activeColumns = 0;
    /** Output MTJs that switched (gate ops only). */
    unsigned switched = 0;
};

/** The full set of data tiles plus shared peripherals. */
class TileGrid
{
  public:
    TileGrid(const ArrayConfig &cfg, const GateLibrary &lib);

    const ArrayConfig &config() const { return cfg_; }

    /** Access a data tile, allocating it on first touch. */
    Tile &tile(TileAddr addr);
    const Tile &tile(TileAddr addr) const;

    /** True once @p addr has been touched (const tile() requires
     *  it; state-capture code checks before snapshotting). */
    bool
    tileAllocated(TileAddr addr) const
    {
        return addr < tiles_.size() && tiles_[addr] != nullptr;
    }

    const ColumnSet &activeColumns() const { return active_; }

    /**
     * Execute one non-HALT instruction.
     *
     * @param inst Decoded instruction.
     * @param cycle_fraction Fraction of the cycle that elapses before
     *        an interrupt; 1.0 for uninterrupted execution.
     */
    ExecOutcome execute(const Instruction &inst,
                        double cycle_fraction = 1.0);

    /**
     * Model a power outage: peripheral state (the column latches) is
     * lost; MTJ contents and the MRAM row buffer persist.  The
     * controller's non-volatile Activate Columns journal is what
     * rebuilds the latch on restart.
     */
    void powerLoss();

    /** Direct row-buffer access (sensor/transmitter interface). */
    std::vector<Bit> &rowBuffer() { return buffer_; }
    const std::vector<Bit> &rowBuffer() const { return buffer_; }

    /**
     * Register per-tile telemetry counters ("tile.<id>.ops" — array
     * operations issued, including interrupted attempts and restart
     * replays — and "tile.<id>.switched" — output MTJs that flipped)
     * with @p reg, which must outlive the attachment.  Pass nullptr
     * to detach.
     */
    void attachStats(obs::StatRegistry *reg);

  private:
    void applyActivation(const Instruction &inst);

    /** Count one op (and @p switched MTJ flips) against a tile. */
    void
    countOp(TileAddr t, unsigned switched)
    {
        if (!stOps_.empty()) {
            stOps_[t]->increment();
            *stSwitched_[t] += switched;
        }
    }

    ArrayConfig cfg_;
    const GateLibrary &lib_;
    std::vector<std::unique_ptr<Tile>> tiles_;
    ColumnSet active_;
    std::vector<Bit> buffer_;
    /** Scratch row kWriteRowShifted rotates the buffer into; holds
     *  no state between instructions. */
    std::vector<Bit> shifted_;
    /** Telemetry counters, indexed by tile (empty when detached). */
    std::vector<obs::Counter *> stOps_;
    std::vector<obs::Counter *> stSwitched_;
};

} // namespace mouse

#endif // MOUSE_ARCH_TILE_GRID_HH
