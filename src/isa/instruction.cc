#include "instruction.hh"

#include <sstream>

#include "common/logging.hh"

namespace mouse
{

namespace
{

// Bit-field layout helpers.  All fields are packed MSB-first:
// [63:60] opcode, then class-specific payload.
constexpr int kOpcodeShift = 60;
constexpr std::uint64_t kOpcodeMask = 0xF;
constexpr int kTileShift = 51;
constexpr std::uint64_t kTileMask = 0x1FF;

constexpr std::uint64_t kRowMask = 0x3FF;
constexpr std::uint64_t kColMask = 0x3FF;

// Logic/memory: rows at [50:41] [40:31] [30:21], outRow at [20:11].
constexpr int kRowShift0 = 41;
constexpr int kRowShift1 = 31;
constexpr int kRowShift2 = 21;
constexpr int kOutRowShift = 11;

// Activation: clear flag [59], count [58:56], cols / range below.
constexpr int kClearShift = 59;
constexpr int kCountShift = 56;
constexpr std::uint64_t kCountMask = 0x7;
constexpr int kColShiftBase = 46;  // cols at [55:46],[45:36],...
constexpr int kColShiftStep = 10;
constexpr int kRangeLoShift = 46;
constexpr int kRangeHiShift = 36;

std::uint64_t
field(std::uint64_t value, int shift, std::uint64_t mask)
{
    return (value & mask) << shift;
}

std::uint64_t
extract(std::uint64_t word, int shift, std::uint64_t mask)
{
    return (word >> shift) & mask;
}

} // namespace

std::uint64_t
Instruction::encode() const
{
    std::uint64_t word =
        field(static_cast<std::uint64_t>(op), kOpcodeShift, kOpcodeMask);
    switch (op) {
      case Opcode::kHalt:
        break;
      case Opcode::kActivateList:
        word |= field(clearActivation ? 1 : 0, kClearShift, 0x1);
        word |= field(numCols, kCountShift, kCountMask);
        for (int i = 0; i < numCols; ++i) {
            word |= field(cols[static_cast<std::size_t>(i)],
                          kColShiftBase - i * kColShiftStep, kColMask);
        }
        break;
      case Opcode::kActivateRange:
        word |= field(clearActivation ? 1 : 0, kClearShift, 0x1);
        word |= field(colLo, kRangeLoShift, kColMask);
        word |= field(colHi, kRangeHiShift, kColMask);
        break;
      case Opcode::kWriteRowShifted:
        // The shift rides the (otherwise unused) second row field;
        // the range field would collide with the tile address.
        word |= field(colLo, kRowShift1, kColMask);
        [[fallthrough]];
      case Opcode::kReadRow:
      case Opcode::kWriteRow:
      case Opcode::kPreset0:
      case Opcode::kPreset1:
        word |= field(tile, kTileShift, kTileMask);
        word |= field(outRow, kOutRowShift, kRowMask);
        break;
      default: {
        mouse_assert(isGateOpcode(op), "unencodable opcode");
        word |= field(tile, kTileShift, kTileMask);
        const int n = gateNumInputs(gateFromOpcode(op));
        word |= field(rows[0], kRowShift0, kRowMask);
        if (n > 1) {
            word |= field(rows[1], kRowShift1, kRowMask);
        }
        if (n > 2) {
            word |= field(rows[2], kRowShift2, kRowMask);
        }
        word |= field(outRow, kOutRowShift, kRowMask);
        break;
      }
    }
    return word;
}

Instruction
Instruction::decode(std::uint64_t word)
{
    Instruction inst;
    const auto op_bits = extract(word, kOpcodeShift, kOpcodeMask);
    if (op_bits >= static_cast<std::uint64_t>(Opcode::kNumOpcodes)) {
        mouse_panic("undefined opcode %llu",
                    static_cast<unsigned long long>(op_bits));
    }
    inst.op = static_cast<Opcode>(op_bits);
    switch (inst.op) {
      case Opcode::kHalt:
        break;
      case Opcode::kActivateList:
        inst.clearActivation = extract(word, kClearShift, 0x1) != 0;
        inst.numCols = static_cast<std::uint8_t>(
            extract(word, kCountShift, kCountMask));
        mouse_assert(inst.numCols <= kMaxActivateList,
                     "activate list count out of range");
        for (int i = 0; i < inst.numCols; ++i) {
            inst.cols[static_cast<std::size_t>(i)] =
                static_cast<ColAddr>(extract(
                    word, kColShiftBase - i * kColShiftStep, kColMask));
        }
        break;
      case Opcode::kActivateRange:
        inst.clearActivation = extract(word, kClearShift, 0x1) != 0;
        inst.colLo =
            static_cast<ColAddr>(extract(word, kRangeLoShift, kColMask));
        inst.colHi =
            static_cast<ColAddr>(extract(word, kRangeHiShift, kColMask));
        break;
      case Opcode::kWriteRowShifted:
        inst.colLo =
            static_cast<ColAddr>(extract(word, kRowShift1, kColMask));
        [[fallthrough]];
      case Opcode::kReadRow:
      case Opcode::kWriteRow:
      case Opcode::kPreset0:
      case Opcode::kPreset1:
        inst.tile =
            static_cast<TileAddr>(extract(word, kTileShift, kTileMask));
        inst.outRow =
            static_cast<RowAddr>(extract(word, kOutRowShift, kRowMask));
        break;
      default: {
        inst.tile =
            static_cast<TileAddr>(extract(word, kTileShift, kTileMask));
        const int n = gateNumInputs(gateFromOpcode(inst.op));
        inst.rows[0] =
            static_cast<RowAddr>(extract(word, kRowShift0, kRowMask));
        if (n > 1) {
            inst.rows[1] =
                static_cast<RowAddr>(extract(word, kRowShift1, kRowMask));
        }
        if (n > 2) {
            inst.rows[2] =
                static_cast<RowAddr>(extract(word, kRowShift2, kRowMask));
        }
        inst.outRow =
            static_cast<RowAddr>(extract(word, kOutRowShift, kRowMask));
        break;
      }
    }
    return inst;
}

std::string
Instruction::disassemble() const
{
    std::ostringstream os;
    switch (op) {
      case Opcode::kHalt:
        os << "HALT";
        break;
      case Opcode::kActivateList:
        os << "ACT" << (clearActivation ? " clr" : " add");
        for (int i = 0; i < numCols; ++i) {
            os << (i ? "," : " ") << "c"
               << cols[static_cast<std::size_t>(i)];
        }
        break;
      case Opcode::kActivateRange:
        os << "ACTR" << (clearActivation ? " clr" : " add") << " c"
           << colLo << "..c" << colHi;
        break;
      case Opcode::kReadRow:
        os << "READ t" << tile << " r" << outRow;
        break;
      case Opcode::kWriteRow:
        os << "WRITE t" << tile << " r" << outRow;
        break;
      case Opcode::kWriteRowShifted:
        os << "WRITES t" << tile << " r" << outRow << " <<c"
           << colLo;
        break;
      case Opcode::kPreset0:
        os << "PRE0 t" << tile << " r" << outRow;
        break;
      case Opcode::kPreset1:
        os << "PRE1 t" << tile << " r" << outRow;
        break;
      default: {
        const GateType g = gateFromOpcode(op);
        os << gateName(g) << " t" << tile << " r" << rows[0];
        const int n = gateNumInputs(g);
        for (int i = 1; i < n; ++i) {
            os << ",r" << rows[static_cast<std::size_t>(i)];
        }
        os << " -> r" << outRow;
        break;
      }
    }
    return os.str();
}

Instruction
Instruction::halt()
{
    return Instruction{};
}

Instruction
Instruction::gate(GateType g, TileAddr tile, RowAddr in0, RowAddr out)
{
    mouse_assert(gateNumInputs(g) == 1, "gate arity mismatch");
    Instruction inst;
    inst.op = opcodeFromGate(g);
    inst.tile = tile;
    inst.rows[0] = in0;
    inst.outRow = out;
    return inst;
}

Instruction
Instruction::gate(GateType g, TileAddr tile, RowAddr in0, RowAddr in1,
                  RowAddr out)
{
    mouse_assert(gateNumInputs(g) == 2, "gate arity mismatch");
    Instruction inst;
    inst.op = opcodeFromGate(g);
    inst.tile = tile;
    inst.rows[0] = in0;
    inst.rows[1] = in1;
    inst.outRow = out;
    return inst;
}

Instruction
Instruction::gate(GateType g, TileAddr tile, RowAddr in0, RowAddr in1,
                  RowAddr in2, RowAddr out)
{
    mouse_assert(gateNumInputs(g) == 3, "gate arity mismatch");
    Instruction inst;
    inst.op = opcodeFromGate(g);
    inst.tile = tile;
    inst.rows[0] = in0;
    inst.rows[1] = in1;
    inst.rows[2] = in2;
    inst.outRow = out;
    return inst;
}

Instruction
Instruction::preset(Bit value, TileAddr tile, RowAddr row)
{
    Instruction inst;
    inst.op = value ? Opcode::kPreset1 : Opcode::kPreset0;
    inst.tile = tile;
    inst.outRow = row;
    return inst;
}

Instruction
Instruction::readRow(TileAddr tile, RowAddr row)
{
    Instruction inst;
    inst.op = Opcode::kReadRow;
    inst.tile = tile;
    inst.outRow = row;
    return inst;
}

Instruction
Instruction::writeRow(TileAddr tile, RowAddr row)
{
    Instruction inst;
    inst.op = Opcode::kWriteRow;
    inst.tile = tile;
    inst.outRow = row;
    return inst;
}

Instruction
Instruction::writeRowShifted(TileAddr tile, RowAddr row, ColAddr shift)
{
    Instruction inst;
    inst.op = Opcode::kWriteRowShifted;
    inst.tile = tile;
    inst.outRow = row;
    inst.colLo = shift;
    return inst;
}

Instruction
Instruction::activateList(
    const std::array<ColAddr, kMaxActivateList> &cols, std::uint8_t count,
    bool clear)
{
    mouse_assert(count <= kMaxActivateList, "too many columns");
    Instruction inst;
    inst.op = Opcode::kActivateList;
    inst.cols = cols;
    inst.numCols = count;
    inst.clearActivation = clear;
    return inst;
}

Instruction
Instruction::activateRange(ColAddr lo, ColAddr hi, bool clear)
{
    mouse_assert(lo <= hi, "bad activation range");
    Instruction inst;
    inst.op = Opcode::kActivateRange;
    inst.colLo = lo;
    inst.colHi = hi;
    inst.clearActivation = clear;
    return inst;
}

} // namespace mouse
