/**
 * @file
 * The MOUSE instruction set (paper Figure 6).
 *
 * Instructions are 64 bits with a 4-bit opcode, 9-bit tile address
 * and 10-bit row/column addresses.  There are three classes:
 *
 *  - Logic: one gate applied at the given input/output rows of one
 *    tile, executed simultaneously in every *active* column.
 *  - Memory: row-buffer reads/writes and column-parallel presets.
 *  - Activate Columns: (re)configure the latched set of active
 *    columns; list form carries up to five column addresses, range
 *    form provides the paper's bulk addressing.
 *
 * Column activation is broadcast and latched in every data tile, so
 * the instruction carries no tile field; that is what makes the
 * restart procedure a single re-issued instruction.
 */

#ifndef MOUSE_ISA_INSTRUCTION_HH
#define MOUSE_ISA_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"
#include "logic/gate.hh"

namespace mouse
{

/** 4-bit opcode space. */
enum class Opcode : std::uint8_t
{
    kHalt = 0,           ///< End of program.
    kActivateList = 1,   ///< Activate <=5 listed columns.
    kActivateRange = 2,  ///< Activate a contiguous column range.
    kReadRow = 3,        ///< Tile row -> controller row buffer.
    kWriteRow = 4,       ///< Controller row buffer -> tile row.
    kPreset0 = 5,        ///< Write 0 at (row, active columns).
    kPreset1 = 6,        ///< Write 1 at (row, active columns).
    kGateBuf = 7,
    kGateNot = 8,
    kGateAnd2 = 9,
    kGateNand2 = 10,
    kGateOr2 = 11,
    kGateNor2 = 12,
    kGateMaj3 = 13,
    kGateMin3 = 14,
    /**
     * Row buffer -> tile row, cyclically rotated left by `colLo`
     * columns.  The barrel shifter on the 128 B buffer is the
     * cross-column transport behind the mapping's gather/reduction
     * phases (Ambit-style row-copy extensions); costs one cycle
     * like every memory instruction.
     */
    kWriteRowShifted = 15,

    kNumOpcodes,
};

/** Whether the opcode is an in-array logic gate. */
inline bool
isGateOpcode(Opcode op)
{
    const auto v = static_cast<std::uint8_t>(op);
    return v >= static_cast<std::uint8_t>(Opcode::kGateBuf) &&
           v <= static_cast<std::uint8_t>(Opcode::kGateMin3);
}

/** Map a gate opcode to the gate it performs. @pre isGateOpcode. */
inline GateType
gateFromOpcode(Opcode op)
{
    switch (op) {
      case Opcode::kGateBuf: return GateType::kBuf;
      case Opcode::kGateNot: return GateType::kNot;
      case Opcode::kGateAnd2: return GateType::kAnd2;
      case Opcode::kGateNand2: return GateType::kNand2;
      case Opcode::kGateOr2: return GateType::kOr2;
      case Opcode::kGateNor2: return GateType::kNor2;
      case Opcode::kGateMaj3: return GateType::kMaj3;
      case Opcode::kGateMin3: return GateType::kMin3;
      default:
        mouse_panic("opcode %d is not a gate",
                    static_cast<int>(op));
    }
}

/** Map an ISA-encodable gate to its opcode.  Only the eight gates in
 *  the opcode table are encodable; others panic. */
inline Opcode
opcodeFromGate(GateType g)
{
    switch (g) {
      case GateType::kBuf: return Opcode::kGateBuf;
      case GateType::kNot: return Opcode::kGateNot;
      case GateType::kAnd2: return Opcode::kGateAnd2;
      case GateType::kNand2: return Opcode::kGateNand2;
      case GateType::kOr2: return Opcode::kGateOr2;
      case GateType::kNor2: return Opcode::kGateNor2;
      case GateType::kMaj3: return Opcode::kGateMaj3;
      case GateType::kMin3: return Opcode::kGateMin3;
      default:
        mouse_panic("gate %s is not ISA-encodable",
                    gateName(g).c_str());
    }
}

/** Maximum columns one kActivateList instruction can carry. */
constexpr int kMaxActivateList = 5;

/**
 * Reserved tile address meaning "every data tile": the broadcast
 * form of the paper's tile-parallelism, where one logic instruction
 * executes in all tiles simultaneously at the same rows/columns.
 */
constexpr TileAddr kBroadcastTile = 0x1FF;

/** Decoded MOUSE instruction. */
struct Instruction
{
    Opcode op = Opcode::kHalt;
    /** Target tile for logic/memory instructions. */
    TileAddr tile = 0;
    /** Input rows of a logic gate (rows[0..numInputs-1]). */
    std::array<RowAddr, 3> rows{};
    /** Output row of a logic gate, or the row of a memory op. */
    RowAddr outRow = 0;
    /** kActivateList payload. */
    std::array<ColAddr, kMaxActivateList> cols{};
    std::uint8_t numCols = 0;
    /** kActivateRange payload: [colLo, colHi] inclusive. */
    ColAddr colLo = 0;
    ColAddr colHi = 0;
    /** Activation clears the previous set (true) or adds (false). */
    bool clearActivation = true;

    bool operator==(const Instruction &other) const = default;

    /** Pack into the 64-bit wire format. */
    std::uint64_t encode() const;

    /** Unpack from the 64-bit wire format. */
    static Instruction decode(std::uint64_t word);

    /** Human-readable disassembly, e.g. "NAND2 t3 r0,r4 -> r9". */
    std::string disassemble() const;

    // -- Convenience constructors -------------------------------------

    static Instruction halt();

    static Instruction
    gate(GateType g, TileAddr tile, RowAddr in0, RowAddr out);

    static Instruction
    gate(GateType g, TileAddr tile, RowAddr in0, RowAddr in1, RowAddr out);

    static Instruction
    gate(GateType g, TileAddr tile, RowAddr in0, RowAddr in1, RowAddr in2,
         RowAddr out);

    static Instruction preset(Bit value, TileAddr tile, RowAddr row);

    static Instruction readRow(TileAddr tile, RowAddr row);

    static Instruction writeRow(TileAddr tile, RowAddr row);

    /** Buffer -> row with a cyclic left rotation by @p shift. */
    static Instruction writeRowShifted(TileAddr tile, RowAddr row,
                                       ColAddr shift);

    static Instruction
    activateList(const std::array<ColAddr, kMaxActivateList> &cols,
                 std::uint8_t count, bool clear = true);

    static Instruction
    activateRange(ColAddr lo, ColAddr hi, bool clear = true);
};

} // namespace mouse

#endif // MOUSE_ISA_INSTRUCTION_HH
