#include "gate_library.hh"

#include <algorithm>

#include "common/logging.hh"
#include "device/network.hh"

namespace mouse
{

GateLibrary::GateLibrary(const DeviceConfig &cfg, double margin)
    : cfg_(cfg)
{
    // With parasitic wires the operating points must cover the worst
    // operand placement: a full-tile row span.
    const unsigned max_span =
        cfg.wireResistancePerCell > 0.0 ? 1023 : 0;
    for (int i = 0; i < kNumGateTypes; ++i) {
        gates_[static_cast<std::size_t>(i)] =
            solveGate(cfg_, static_cast<GateType>(i), margin,
                      max_span);
        opTables_[static_cast<std::size_t>(i)] =
            opTableAtSpan(static_cast<GateType>(i), 0);
    }

    // Write pulse: drive overdrive * I_c through the worst-case
    // (anti-parallel) write path.  For SHE cells the write path is
    // state-independent and cheap — the key SHE efficiency win.
    const Ohms worst_write_r = std::max(
        writePathResistance(cfg_, MtjState::P),
        writePathResistance(cfg_, MtjState::AP));
    const Amperes i_write =
        kWriteOverdrive * cfg_.mtj.switchingCurrent;
    write_.voltage = i_write * worst_write_r;
    write_.pulseTime = cfg_.mtj.switchingTime;
    write_.energy = write_.voltage * i_write * write_.pulseTime;
    write_.pulseFraction = write_.pulseTime / cfg_.cycleTime;

    // Read pulse: sense with a sub-critical current through the
    // low-resistance (parallel) path so the worst case stays safely
    // below threshold, for one switching time.
    const Amperes i_read =
        kReadCurrentFraction * cfg_.mtj.switchingCurrent;
    const Ohms read_r_low = readPathResistance(cfg_, MtjState::P);
    read_.voltage = i_read * read_r_low;
    read_.pulseTime = cfg_.mtj.switchingTime;
    read_.energy = read_.voltage * i_read * read_.pulseTime;

    // A universal gate set must exist for every supported
    // configuration, otherwise the compiler cannot target it.
    mouse_assert(feasible(GateType::kNand2) && feasible(GateType::kNot),
                 "NAND2/NOT infeasible: configuration unusable");
}

GateOpTable
GateLibrary::opTableAtSpan(GateType g, unsigned row_span) const
{
    const SolvedGate &solved = gate(g);
    GateOpTable t;
    t.numInputs = static_cast<unsigned>(gateNumInputs(g));
    t.preset = gatePreset(g);
    if (!solved.feasible) {
        return t;
    }
    t.pulseFraction = solved.pulseTime / cfg_.cycleTime;
    for (unsigned combo = 0; combo < (1u << t.numInputs); ++combo) {
        for (unsigned out = 0; out < 2; ++out) {
            const Amperes i = gateOutputCurrentFactored(
                cfg_, solved.voltage, solved.inputParallelR[combo],
                stateFromBit(static_cast<Bit>(out)), row_span);
            t.current[combo][out] = i;
            t.pulseEnergy[combo][out] =
                solved.voltage * i * solved.pulseTime;
            if (out == t.preset &&
                i >= cfg_.mtj.switchingCurrent) {
                t.switchMask |= static_cast<std::uint8_t>(1u << combo);
            }
        }
    }
    return t;
}

std::vector<GateType>
GateLibrary::feasibleGates() const
{
    std::vector<GateType> out;
    for (int i = 0; i < kNumGateTypes; ++i) {
        const auto g = static_cast<GateType>(i);
        if (feasible(g)) {
            out.push_back(g);
        }
    }
    return out;
}

GateMask
GateLibrary::feasibleAmong(GateMask gates) const
{
    GateMask answers = 0;
    for (int i = 0; i < kNumGateTypes; ++i) {
        const auto g = static_cast<GateType>(i);
        if ((gates & gateBit(g)) && feasible(g)) {
            answers |= gateBit(g);
        }
    }
    return answers;
}

} // namespace mouse
