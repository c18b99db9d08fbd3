#include "program.hh"

#include "common/logging.hh"
#include "logic/gate_library.hh"

namespace mouse
{

std::vector<std::uint64_t>
Program::encode() const
{
    std::vector<std::uint64_t> words;
    words.reserve(instructions.size());
    for (const Instruction &inst : instructions) {
        words.push_back(inst.encode());
    }
    return words;
}

std::size_t
Program::countOpcode(Opcode op) const
{
    std::size_t n = 0;
    for (const Instruction &inst : instructions) {
        n += inst.op == op;
    }
    return n;
}

std::uint64_t
Trace::totalInstructions() const
{
    std::uint64_t total = 0;
    for (const TraceBlock &b : blocks) {
        total += b.count;
    }
    return total;
}

bool
Trace::compiledFor(const GateLibrary &lib) const
{
    return lib.feasibleAmong(gateQueries) == gateAnswers;
}

void
Trace::append(Opcode op, unsigned touched_cols, unsigned active_after,
              std::uint64_t count)
{
    if (count == 0) {
        return;
    }
    if (!blocks.empty()) {
        TraceBlock &tail = blocks.back();
        if (tail.op == op && tail.touchedCols == touched_cols &&
            tail.activeColsAfter == active_after) {
            tail.count += count;
            return;
        }
    }
    blocks.push_back(TraceBlock{op, touched_cols, active_after, count});
}

void
Trace::appendTrace(const Trace &other, std::uint64_t times)
{
    // Appending block-by-block keeps the run-length merge working
    // across the seam; repeated appends of a cyclic trace compress
    // when the trace is homogeneous.
    gateQueries |= other.gateQueries;
    gateAnswers |= other.gateAnswers;
    for (std::uint64_t t = 0; t < times; ++t) {
        for (const TraceBlock &b : other.blocks) {
            append(b.op, b.touchedCols, b.activeColsAfter, b.count);
        }
    }
}

Trace
Trace::fromProgram(const Program &prog, const ArrayConfig &cfg)
{
    Trace trace;
    // Replay the activation state machine to learn how many columns
    // each instruction drives.
    ColumnSet active(cfg.tileCols);
    for (const Instruction &inst : prog.instructions) {
        unsigned touched = 0;
        switch (inst.op) {
          case Opcode::kHalt:
            continue;  // HALT costs nothing in the trace
          case Opcode::kActivateList:
            if (inst.clearActivation) {
                active.clear();
            }
            for (int i = 0; i < inst.numCols; ++i) {
                active.add(inst.cols[static_cast<std::size_t>(i)]);
            }
            touched = inst.numCols;
            break;
          case Opcode::kActivateRange:
            if (inst.clearActivation) {
                active.clear();
            }
            active.addRange(inst.colLo, inst.colHi);
            touched =
                static_cast<unsigned>(inst.colHi - inst.colLo + 1);
            break;
          case Opcode::kReadRow:
          case Opcode::kWriteRow:
          case Opcode::kWriteRowShifted:
            touched = cfg.tileCols;
            break;
          default:
            touched = active.count() *
                      (inst.tile == kBroadcastTile ? cfg.numDataTiles
                                                   : 1);
            break;
        }
        trace.append(inst.op, touched, active.count());
    }
    return trace;
}

} // namespace mouse
