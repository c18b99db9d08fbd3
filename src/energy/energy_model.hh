/**
 * @file
 * Instruction-level energy model (paper Section VIII).
 *
 * Per-instruction energy has two parts:
 *
 *  - device energy: the gate/write/read pulses in the array, computed
 *    exactly by the GateLibrary / Tile in functional mode, or from
 *    mean-over-combos gate energy in trace mode;
 *  - peripheral energy: decoders, drivers, latches and control.  The
 *    paper calibrates this so peripherals consume the same share of
 *    total energy/latency as NVSim reports for modern MRAM arrays;
 *    we expose the share as a parameter (default 70 % on a full-row
 *    operation) and derive a fixed per-instruction term plus a
 *    per-active-column term from it.
 *
 * Latency is trivial by design (Section IV-B): the controller waits
 * out the worst-case instruction every time, so every instruction
 * costs exactly one cycle (33 ns modern / 11 ns projected).
 *
 * The model also prices the intermittency machinery with the EH-model
 * metric names the paper adopts:
 *  - Backup: per-cycle non-volatile PC + parity-bit writes, plus the
 *    Activate Columns shadow-register write when one is issued;
 *  - Restore: re-issuing the activation journal on restart;
 *  - Dead: re-execution of the interrupted instruction (charged by
 *    the simulator using the normal instruction energy).
 */

#ifndef MOUSE_ENERGY_ENERGY_MODEL_HH
#define MOUSE_ENERGY_ENERGY_MODEL_HH

#include "common/types.hh"
#include "isa/instruction.hh"
#include "logic/gate_library.hh"

namespace mouse
{

/** Tunable peripheral-circuitry calibration. */
struct PeripheralParams
{
    /**
     * Target peripheral share of total energy for a full-row
     * (all-columns) array write, after NVSim's reported MRAM
     * subarray breakdowns.  The anchor is the *generation's STT
     * write pulse* (same MTJ parameters, 1T1M path) regardless of
     * cell kind: peripheral decoders and drivers are CMOS shared by
     * the STT and SHE designs (the paper notes SHE has no peripheral
     * advantage on restore), so a SHE array does not get cheaper
     * peripherals just because its write pulse is cheaper.
     *
     * The default is calibrated so the paper's Section IV-C power
     * example holds: a 60 uW budget supports only a handful of
     * parallel columns on the least efficient (Modern STT)
     * configuration.
     */
    double energyShare = 0.57;
    /** Portion of peripheral energy that is per-instruction fixed
     *  (decode, wordline select) vs per-active-column (bitline
     *  drivers).  NVSim attributes almost everything to the
     *  column/bitline path at these array sizes. */
    double fixedFraction = 0.005;
    /** NV register bit write costs this multiple of an array cell
     *  write (the register has private write drivers). */
    double nvRegisterOverhead = 1.5;
    /**
     * Average register bits that actually flip per PC increment.
     * Writing an MTJ register only pulses cells whose value changes;
     * a binary increment flips ~2 bits on average, which is how the
     * paper's "writing only a few bits on every cycle" backup cost
     * arises.
     */
    double avgPcBitsFlipped = 2.0;
    /** Standby power while the accelerator is energized but idle.
     *  MRAM retains for free; only the controller leaks. */
    Watts idlePower = 0.0;
};

/** Width of the program counter checkpoint written every cycle. */
constexpr unsigned kPcBits = 24;
/** Parity bit selecting the valid PC register. */
constexpr unsigned kParityBits = 1;
/** Width of the Activate Columns shadow register. */
constexpr unsigned kActRegisterBits = 64;

/** Expected load-side cost of one instruction, split the way
 *  RunStats reports it. */
struct InstrCost
{
    Joules exec = 0.0;    ///< fetch + array + peripherals
    Joules backup = 0.0;  ///< NV checkpoint writes

    Joules total() const { return exec + backup; }
};

/** Energy/latency oracle for one device configuration. */
class EnergyModel
{
  public:
    EnergyModel(const GateLibrary &lib,
                const PeripheralParams &params = PeripheralParams{});

    const GateLibrary &library() const { return lib_; }
    const DeviceConfig &config() const { return lib_.config(); }

    /** Peripheral energy of one instruction touching @p cols columns. */
    Joules peripheralEnergy(unsigned cols) const;

    /**
     * Total energy of one executed instruction in functional mode,
     * where the array already measured its exact device energy.
     *
     * @param touched_cols Columns the instruction drove: the active
     *        set for gates/presets, the full row width for row
     *        transfers.
     */
    Joules instructionEnergy(const Instruction &inst,
                             Joules device_energy,
                             unsigned touched_cols) const;

    /**
     * Expected energy of one instruction in trace mode (data values
     * unknown): gate pulses use mean-over-combos device energy.
     * @param touched_cols See instructionEnergy().
     */
    Joules estimateInstructionEnergy(Opcode op,
                                     unsigned touched_cols) const;

    /**
     * Expected cost of one whole instruction: its fetch and
     * estimateInstructionEnergy() as exec, the per-cycle checkpoint
     * (plus the shadow-register write for an activation) as backup.
     * HALT commits nothing, so it has no backup.
     */
    InstrCost instructionCost(Opcode op, unsigned touched_cols) const;

    /** Reading one 64-bit instruction word from the instruction
     *  tiles, including its peripheral cost. */
    Joules fetchEnergy() const;

    /** Per-cycle checkpoint: PC + parity bit into NV registers. */
    Joules backupEnergyPerCycle() const;

    /** Extra backup when an Activate Columns instruction is issued:
     *  the 64-bit shadow register write. */
    Joules actRegisterBackupEnergy() const;

    /**
     * Restore cost of a restart: re-issuing @p journal_entries
     * Activate Columns instructions that re-latch @p active_cols
     * columns in total.
     */
    Joules restoreEnergy(unsigned journal_entries,
                         unsigned active_cols) const;

    /** Restore latency in cycles (one per re-issued instruction). */
    Cycle
    restoreCycles(unsigned journal_entries) const
    {
        return journal_entries;
    }

    Watts idlePower() const { return params_.idlePower; }

    Seconds cycleTime() const { return lib_.config().cycleTime; }

  private:
    const GateLibrary &lib_;
    PeripheralParams params_;
    /** Derived fixed peripheral energy per instruction. */
    Joules periphFixed_;
    /** Derived peripheral energy per active column. */
    Joules periphPerCol_;
    /** One NV register bit write. */
    Joules nvRegBitWrite_;
};

} // namespace mouse

#endif // MOUSE_ENERGY_ENERGY_MODEL_HH
