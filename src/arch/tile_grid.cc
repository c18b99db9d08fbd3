#include "tile_grid.hh"

#include "common/logging.hh"
#include "obs/stat_registry.hh"

namespace mouse
{

void
InstructionMemory::load(const std::vector<std::uint64_t> &words)
{
    if (words.size() > cfg_.instructionCapacity()) {
        mouse_fatal("program of %zu instructions exceeds the %zu-entry "
                    "instruction tile capacity",
                    words.size(), cfg_.instructionCapacity());
    }
    words_ = words;
}

std::uint64_t
InstructionMemory::fetch(std::size_t addr) const
{
    mouse_assert(addr < words_.size(), "instruction fetch OOB");
    return words_[addr];
}

TileGrid::TileGrid(const ArrayConfig &cfg, const GateLibrary &lib)
    : cfg_(cfg), lib_(lib), tiles_(cfg.numDataTiles),
      active_(cfg.tileCols), buffer_(cfg.tileCols, 0),
      shifted_(cfg.tileCols, 0)
{
}

void
TileGrid::attachStats(obs::StatRegistry *reg)
{
    stOps_.clear();
    stSwitched_.clear();
    if (reg == nullptr) {
        return;
    }
    stOps_.reserve(cfg_.numDataTiles);
    stSwitched_.reserve(cfg_.numDataTiles);
    for (TileAddr t = 0; t < cfg_.numDataTiles; ++t) {
        const std::string id = std::to_string(t);
        stOps_.push_back(&reg->counter(
            "tile." + id + ".ops",
            "array operations issued (incl. attempts/replays)"));
        stSwitched_.push_back(&reg->counter(
            "tile." + id + ".switched",
            "output MTJs that flipped"));
    }
}

Tile &
TileGrid::tile(TileAddr addr)
{
    mouse_assert(addr < tiles_.size(), "tile address OOB");
    if (!tiles_[addr]) {
        tiles_[addr] =
            std::make_unique<Tile>(cfg_.tileRows, cfg_.tileCols);
    }
    return *tiles_[addr];
}

const Tile &
TileGrid::tile(TileAddr addr) const
{
    mouse_assert(addr < tiles_.size(), "tile address OOB");
    mouse_assert(tiles_[addr] != nullptr, "tile never touched");
    return *tiles_[addr];
}

void
TileGrid::applyActivation(const Instruction &inst)
{
    if (inst.clearActivation) {
        active_.clear();
    }
    if (inst.op == Opcode::kActivateList) {
        for (int i = 0; i < inst.numCols; ++i) {
            const ColAddr c = inst.cols[static_cast<std::size_t>(i)];
            mouse_assert(c < cfg_.tileCols, "activated column OOB");
            active_.add(c);
        }
    } else {
        mouse_assert(inst.colHi < cfg_.tileCols,
                     "activated column OOB");
        active_.addRange(inst.colLo, inst.colHi);
    }
}

ExecOutcome
TileGrid::execute(const Instruction &inst, double cycle_fraction)
{
    ExecOutcome out;
    out.activeColumns = active_.count();
    switch (inst.op) {
      case Opcode::kHalt:
        mouse_panic("HALT reached TileGrid::execute");
      case Opcode::kActivateList:
      case Opcode::kActivateRange:
        // The latch update is peripheral-only.  An activation
        // interrupted mid-flight leaves an arbitrary partial latch
        // state, but the latch is volatile and rebuilt on restart, so
        // no persistent state is touched; model it as applying only
        // when the cycle completes.
        if (cycle_fraction >= 1.0) {
            applyActivation(inst);
        }
        out.activeColumns = active_.count();
        break;
      case Opcode::kReadRow: {
        countOp(inst.tile, 0);
        if (cycle_fraction >= 1.0) {
            out.deviceEnergy +=
                tile(inst.tile).readRow(lib_, inst.outRow, buffer_);
        } else {
            // Sense current was flowing but the latched result is
            // lost; charge a proportional fraction of the energy.
            out.deviceEnergy += lib_.readOp().energy * cfg_.tileCols *
                                cycle_fraction;
        }
        break;
      }
      case Opcode::kWriteRow:
        countOp(inst.tile, 0);
        out.deviceEnergy += tile(inst.tile).writeRow(
            lib_, inst.outRow, buffer_, cycle_fraction);
        break;
      case Opcode::kWriteRowShifted: {
        // Barrel-shifted write: destination column c receives buffer
        // column (c + shift) mod width — the cross-column transport
        // behind gather/reduction phases.
        const unsigned width = cfg_.tileCols;
        for (unsigned c = 0; c < width; ++c) {
            shifted_[c] = buffer_[(c + inst.colLo) % width];
        }
        countOp(inst.tile, 0);
        out.deviceEnergy += tile(inst.tile).writeRow(
            lib_, inst.outRow, shifted_, cycle_fraction);
        break;
      }
      case Opcode::kPreset0:
      case Opcode::kPreset1: {
        const Bit value = inst.op == Opcode::kPreset1 ? 1 : 0;
        if (inst.tile == kBroadcastTile) {
            for (TileAddr t = 0; t < cfg_.numDataTiles; ++t) {
                countOp(t, 0);
                out.deviceEnergy += tile(t).presetRow(
                    lib_, inst.outRow, value, active_,
                    cycle_fraction);
            }
        } else {
            countOp(inst.tile, 0);
            out.deviceEnergy += tile(inst.tile).presetRow(
                lib_, inst.outRow, value, active_, cycle_fraction);
        }
        break;
      }
      default: {
        mouse_assert(isGateOpcode(inst.op), "unhandled opcode");
        const GateType g = gateFromOpcode(inst.op);
        if (inst.tile == kBroadcastTile) {
            for (TileAddr t = 0; t < cfg_.numDataTiles; ++t) {
                const GateExecResult r = tile(t).executeGate(
                    lib_, g, inst.rows, inst.outRow, active_,
                    cycle_fraction);
                out.deviceEnergy += r.deviceEnergy;
                out.switched += r.switched;
                countOp(t, r.switched);
            }
        } else {
            const GateExecResult r = tile(inst.tile).executeGate(
                lib_, g, inst.rows, inst.outRow, active_,
                cycle_fraction);
            out.deviceEnergy += r.deviceEnergy;
            out.switched = r.switched;
            countOp(inst.tile, r.switched);
        }
        break;
      }
    }
    return out;
}

void
TileGrid::powerLoss()
{
    // Column latches are volatile peripheral circuitry.
    active_.clear();
}

} // namespace mouse
