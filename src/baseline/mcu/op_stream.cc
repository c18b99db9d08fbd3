#include "op_stream.hh"

#include <algorithm>

#include "baseline/mcu/datasheet.hh"
#include "common/logging.hh"

namespace mouse::mcu
{

namespace
{

/** Uniform region placement: 0, P, 2P, ... < totalOps. */
std::vector<std::uint64_t>
uniformCheckpoints(std::uint64_t totalOps, unsigned regionOps)
{
    const std::uint64_t period =
        regionOps == 0 ? kClankDefaultRegionOps : regionOps;
    std::vector<std::uint64_t> cps;
    if (totalOps == 0) {
        return cps;
    }
    cps.reserve(static_cast<std::size_t>(totalOps / period) + 1);
    for (std::uint64_t op = 0; op < totalOps; op += period) {
        cps.push_back(op);
    }
    return cps;
}

void
finalize(McuProgram &prog, unsigned clankRegionOps)
{
    prog.blockStart.clear();
    prog.blockStart.reserve(prog.blocks.size() + 1);
    std::uint64_t at = 0;
    double energy = 0.0;
    double seconds = 0.0;
    for (const McuBlock &b : prog.blocks) {
        prog.blockStart.push_back(at);
        at += b.count;
        energy += static_cast<double>(b.count) * b.per.energy;
        seconds += static_cast<double>(b.count) * b.per.seconds;
    }
    prog.blockStart.push_back(at);
    prog.totalOps = at;
    prog.totalEnergy = energy;
    prog.totalSeconds = seconds;
    prog.checkpoints = uniformCheckpoints(at, clankRegionOps);
}

} // namespace

std::uint64_t
McuProgram::regionStart(std::uint64_t op) const
{
    if (checkpoints.empty()) {
        return 0;
    }
    const auto it = std::upper_bound(checkpoints.begin(),
                                     checkpoints.end(), op);
    return it == checkpoints.begin() ? 0 : *(it - 1);
}

std::uint64_t
mcuOpsFor(Opcode op, unsigned touchedCols)
{
    if (op == Opcode::kHalt) {
        return 1;
    }
    const std::uint64_t words =
        (std::max(touchedCols, 1u) + kWordBits - 1) / kWordBits;
    unsigned perWord = kOpsPerWordCtl;
    if (isGateOpcode(op)) {
        perWord = kOpsPerWordGate;
    } else if (op == Opcode::kReadRow || op == Opcode::kWriteRow ||
               op == Opcode::kWriteRowShifted) {
        perWord = kOpsPerWordRow;
    }
    return kOpsBase + words * perWord;
}

McuCost
mcuCostFor(std::uint64_t ops)
{
    McuCost cost;
    cost.energy = static_cast<double>(ops) * kInstructionEnergy;
    cost.seconds = static_cast<double>(ops) *
                   kCyclesPerInstruction / kCpuFrequencyHz;
    return cost;
}

McuProgram
mcuProgramFromTrace(const Trace &trace, unsigned clankRegionOps)
{
    McuProgram prog;
    prog.blocks.reserve(trace.blocks.size());
    for (const TraceBlock &tb : trace.blocks) {
        McuBlock b;
        b.count = tb.count;
        b.per = mcuCostFor(mcuOpsFor(tb.op, tb.touchedCols));
        prog.blocks.push_back(b);
    }
    finalize(prog, clankRegionOps);
    return prog;
}

McuProgram
mcuProgramFromProgram(const Program &program, unsigned clankRegionOps)
{
    // Replay just the column-activation latch to learn how many
    // columns each instruction drives (the Trace builder does the
    // same replay bit-exactly; here the count is all that matters).
    McuProgram prog;
    prog.blocks.reserve(program.instructions.size());
    unsigned active = 0;
    for (const Instruction &inst : program.instructions) {
        unsigned touched = active;
        switch (inst.op) {
          case Opcode::kActivateList:
            touched = inst.numCols;
            active = inst.clearActivation ? inst.numCols
                                          : active + inst.numCols;
            break;
          case Opcode::kActivateRange: {
            const unsigned n =
                inst.colHi >= inst.colLo
                    ? static_cast<unsigned>(inst.colHi - inst.colLo) +
                          1
                    : 0;
            touched = n;
            active = inst.clearActivation ? n : active + n;
            break;
          }
          default:
            break;
        }
        McuBlock b;
        b.count = 1;
        b.per = mcuCostFor(mcuOpsFor(inst.op, touched));
        prog.blocks.push_back(b);
    }
    finalize(prog, clankRegionOps);
    return prog;
}

void
setCheckpoints(McuProgram &prog,
               std::vector<std::uint64_t> checkpoints)
{
    mouse_assert(!checkpoints.empty() && checkpoints.front() == 0,
                 "checkpoint placement must start at op 0");
    mouse_assert(std::is_sorted(checkpoints.begin(),
                                checkpoints.end()),
                 "checkpoint placement must be sorted");
    prog.checkpoints = std::move(checkpoints);
}

} // namespace mouse::mcu
