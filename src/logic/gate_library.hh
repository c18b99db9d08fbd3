/**
 * @file
 * Per-technology library of solved gates plus memory-operation
 * operating points (write and read pulses).
 *
 * The library is the single source of truth for "what does one
 * in-array operation cost" — both the tile-level functional
 * simulator and the trace-level performance model draw from it, so
 * the two fidelity levels can never disagree on device energy.
 */

#ifndef MOUSE_LOGIC_GATE_LIBRARY_HH
#define MOUSE_LOGIC_GATE_LIBRARY_HH

#include <array>
#include <vector>

#include "common/types.hh"
#include "device/mtj_params.hh"
#include "logic/gate.hh"
#include "logic/gate_solver.hh"

namespace mouse
{

/** Operating point of a memory write pulse. */
struct WriteOp
{
    /** Voltage chosen to push overdrive * I_c through the worst-case
     *  (highest resistance) write path. */
    Volts voltage = 0.0;
    /** Supply energy of a single-cell write pulse. */
    Joules energy = 0.0;
    Seconds pulseTime = 0.0;
    /** pulseTime / cycleTime: share of the instruction cycle the
     *  write pulse occupies (an earlier interrupt cuts it short). */
    double pulseFraction = 0.0;
};

/** Operating point of a memory read (sense) pulse. */
struct ReadOp
{
    Volts voltage = 0.0;
    /** Supply energy of sensing a single cell. */
    Joules energy = 0.0;
    Seconds pulseTime = 0.0;
};

/**
 * Operating table of one gate execution at one operand row span:
 * for every (packed input combination × actual output state), the
 * output-device current and the supply energy of one full pulse,
 * plus the per-gate invariants the word-parallel Tile path needs on
 * every call.  This is the lookup table that path folds popcounts
 * against — at most 2^n × 2 entries replace one network solve per
 * column.
 */
struct GateOpTable
{
    /** Gate arity n (1..3); rows below 2^n are filled. */
    unsigned numInputs = 0;
    /** Value the output MTJ is preset to before the pulse. */
    Bit preset = 0;
    /** Bit c set iff combo c drives at least the critical current
     *  through an output still at the preset state — the only state
     *  the pulse can switch (directionality). */
    std::uint8_t switchMask = 0;
    /** pulseTime / cycleTime: share of the instruction cycle the
     *  gate pulse occupies. */
    double pulseFraction = 0.0;
    /** [packed combo][actual output state (P=0, AP=1)]. */
    std::array<std::array<Amperes, 2>, 8> current{};
    /** Supply energy of one complete pulse, (V·I)·t. */
    std::array<std::array<Joules, 2>, 8> pulseEnergy{};
};

/** Solved gates and memory operations for one device configuration. */
class GateLibrary
{
  public:
    /** Current overdrive factor applied to write pulses. */
    static constexpr double kWriteOverdrive = 1.2;
    /** Read current as a fraction of the switching current, keeping
     *  reads non-destructive. */
    static constexpr double kReadCurrentFraction = 0.3;

    explicit GateLibrary(const DeviceConfig &cfg,
                         double margin = kDefaultGateMargin);

    const DeviceConfig &config() const { return cfg_; }

    const SolvedGate &
    gate(GateType g) const
    {
        return gates_[static_cast<std::size_t>(g)];
    }

    bool feasible(GateType g) const { return gate(g).feasible; }

    /** Mean-over-combos energy of one gate pulse; used by the trace
     *  model when the data values are not simulated. */
    Joules gateAvgEnergy(GateType g) const { return gate(g).avgEnergy; }

    /** Physically evaluate a gate (threshold model) at its solved
     *  operating voltage. */
    Bit
    evaluate(GateType g, unsigned inputs) const
    {
        return gatePhysicalOutput(cfg_, g, gate(g).voltage, inputs);
    }

    const WriteOp &writeOp() const { return write_; }
    const ReadOp &readOp() const { return read_; }

    /**
     * Span-0 operating table of @p g, cached at construction.  For
     * the standard technologies (wireResistancePerCell == 0) the
     * logic-line term is identically zero, so this one table is
     * bit-exact at *any* operand row span.
     */
    const GateOpTable &
    opTable(GateType g) const
    {
        return opTables_[static_cast<std::size_t>(g)];
    }

    /**
     * Span-dependent operating table for parasitic-wire
     * configurations: re-derives the ≤16 currents from the factored
     * combo resistances (SolvedGate::inputParallelR) at @p row_span,
     * matching the per-column solver bit for bit.
     */
    GateOpTable opTableAtSpan(GateType g, unsigned row_span) const;

    /** All gate types feasible under this technology. */
    std::vector<GateType> feasibleGates() const;

    /** The subset of @p gates feasible under this technology: its
     *  answers to a compile's feasibility queries. */
    GateMask feasibleAmong(GateMask gates) const;

  private:
    DeviceConfig cfg_;
    std::array<SolvedGate, kNumGateTypes> gates_;
    std::array<GateOpTable, kNumGateTypes> opTables_;
    WriteOp write_;
    ReadOp read_;
};

} // namespace mouse

#endif // MOUSE_LOGIC_GATE_LIBRARY_HH
