#include "energy_model.hh"

#include "common/logging.hh"

namespace mouse
{

EnergyModel::EnergyModel(const GateLibrary &lib,
                         const PeripheralParams &params)
    : lib_(lib), params_(params)
{
    mouse_assert(params_.energyShare > 0.0 && params_.energyShare < 1.0,
                 "peripheral share must be in (0,1)");
    mouse_assert(params_.fixedFraction >= 0.0 &&
                     params_.fixedFraction <= 1.0,
                 "fixed fraction must be in [0,1]");

    // Calibration anchor: a full-row (1024-column) write through the
    // *generation's STT path* — peripheral CMOS is common to the STT
    // and SHE cell designs, so the anchor deliberately ignores the
    // SHE channel.  NVSim reports peripheral : total = energyShare
    // for such accesses, so peripheral = device * share/(1 - share).
    constexpr double kCalibrationCols = 1024.0;
    const DeviceConfig &cfg = lib_.config();
    const Ohms stt_write_r =
        cfg.mtj.rAntiParallel + cfg.accessTransistorR;
    const Amperes i_write =
        GateLibrary::kWriteOverdrive * cfg.mtj.switchingCurrent;
    const Joules stt_cell_write =
        i_write * i_write * stt_write_r * cfg.mtj.switchingTime;
    const Joules device_row_write = stt_cell_write * kCalibrationCols;
    const Joules periph_row =
        device_row_write * params_.energyShare /
        (1.0 - params_.energyShare);
    periphFixed_ = periph_row * params_.fixedFraction;
    periphPerCol_ = periph_row * (1.0 - params_.fixedFraction) /
                    kCalibrationCols;

    // NV register bits are cells of the configuration's own kind:
    // SHE registers write through their cheap SHE channel, which is
    // why the paper's SHE backup share collapses to 0.007 %.
    nvRegBitWrite_ =
        lib_.writeOp().energy * params_.nvRegisterOverhead;
}

Joules
EnergyModel::peripheralEnergy(unsigned cols) const
{
    return periphFixed_ + periphPerCol_ * cols;
}

Joules
EnergyModel::instructionEnergy(const Instruction &inst,
                               Joules device_energy,
                               unsigned touched_cols) const
{
    (void)inst;
    return device_energy + peripheralEnergy(touched_cols);
}

Joules
EnergyModel::estimateInstructionEnergy(Opcode op,
                                       unsigned touched_cols) const
{
    Joules device = 0.0;
    switch (op) {
      case Opcode::kHalt:
        return 0.0;
      case Opcode::kActivateList:
      case Opcode::kActivateRange:
        // Latch update only; charge the fixed peripheral term plus
        // the latches being set.
        return peripheralEnergy(touched_cols);
      case Opcode::kReadRow:
        device = lib_.readOp().energy * touched_cols;
        break;
      case Opcode::kWriteRow:
      case Opcode::kWriteRowShifted:
      case Opcode::kPreset0:
      case Opcode::kPreset1:
        device = lib_.writeOp().energy * touched_cols;
        break;
      default: {
        mouse_assert(isGateOpcode(op), "unhandled opcode");
        device =
            lib_.gateAvgEnergy(gateFromOpcode(op)) * touched_cols;
        break;
      }
    }
    return device + peripheralEnergy(touched_cols);
}

InstrCost
EnergyModel::instructionCost(Opcode op, unsigned touched_cols) const
{
    InstrCost cost;
    cost.exec = fetchEnergy() +
                estimateInstructionEnergy(op, touched_cols);
    if (op != Opcode::kHalt) {
        cost.backup = backupEnergyPerCycle();
        if (op == Opcode::kActivateList ||
            op == Opcode::kActivateRange) {
            cost.backup += actRegisterBackupEnergy();
        }
    }
    return cost;
}

Joules
EnergyModel::fetchEnergy() const
{
    // 64 sense operations in the instruction tile plus the fixed
    // decode cost; the read path is narrow, so no per-column driver
    // energy is charged.
    return lib_.readOp().energy * 64 + periphFixed_;
}

Joules
EnergyModel::backupEnergyPerCycle() const
{
    // Only the PC bits that change are pulsed (writes to an MTJ
    // already in the target state drive no switching), plus the
    // parity-bit flip.
    return nvRegBitWrite_ *
           (params_.avgPcBitsFlipped + kParityBits);
}

Joules
EnergyModel::actRegisterBackupEnergy() const
{
    return nvRegBitWrite_ * kActRegisterBits;
}

Joules
EnergyModel::restoreEnergy(unsigned journal_entries,
                           unsigned active_cols) const
{
    // Each re-issued Activate Columns instruction costs a fetch from
    // the NV shadow register (reads are cheap; charge the register
    // read as kActRegisterBits sense ops) plus the peripheral cost of
    // re-latching the columns.
    const Joules register_read =
        lib_.readOp().energy * kActRegisterBits;
    return journal_entries * (register_read + periphFixed_) +
           periphPerCol_ * active_cols;
}

} // namespace mouse
