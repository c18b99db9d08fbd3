/**
 * @file
 * CRAM threshold-logic gate definitions.
 *
 * Every MOUSE gate follows the same template (Section II-B):
 * the output MTJ is preset to a known value, a voltage pulse drives a
 * current whose magnitude depends on the input MTJ resistances, and
 * the output switches away from its preset iff the current exceeds
 * the critical switching current.  The gate *type* is fully
 * determined by the number of inputs, the preset value, and the
 * applied voltage level; the current direction is always the one
 * that drives the output from preset toward !preset.
 */

#ifndef MOUSE_LOGIC_GATE_HH
#define MOUSE_LOGIC_GATE_HH

#include <cstdint>
#include <string>

#include "common/logging.hh"
#include "common/types.hh"

namespace mouse
{

/** Gate types implementable as single-threshold CRAM operations. */
enum class GateType : std::uint8_t
{
    kBuf,    ///< out = a          (1 input, preset 1, switch on a=0)
    kNot,    ///< out = !a         (1 input, preset 0, switch on a=0)
    kAnd2,   ///< out = a & b      (preset 1)
    kNand2,  ///< out = !(a & b)   (preset 0)
    kOr2,    ///< out = a | b      (preset 1)
    kNor2,   ///< out = !(a | b)   (preset 0)
    kAnd3,   ///< out = a & b & c  (preset 1)
    kNand3,  ///< out = !(a&b&c)   (preset 0)
    kOr3,    ///< out = a | b | c  (preset 1)
    kNor3,   ///< out = !(a|b|c)   (preset 0)
    kMaj3,   ///< out = majority   (preset 1)
    kMin3,   ///< out = !majority  (preset 0)

    kNumGateTypes,
};

constexpr int kNumGateTypes =
    static_cast<int>(GateType::kNumGateTypes);

/** A set of gate types: bit g is gateBit(g). */
using GateMask = std::uint16_t;

constexpr GateMask
gateBit(GateType g)
{
    return static_cast<GateMask>(1u << static_cast<unsigned>(g));
}

/** Number of input rows the gate consumes (1, 2, or 3). */
inline int
gateNumInputs(GateType g)
{
    switch (g) {
      case GateType::kBuf:
      case GateType::kNot:
        return 1;
      case GateType::kAnd2:
      case GateType::kNand2:
      case GateType::kOr2:
      case GateType::kNor2:
        return 2;
      case GateType::kAnd3:
      case GateType::kNand3:
      case GateType::kOr3:
      case GateType::kNor3:
      case GateType::kMaj3:
      case GateType::kMin3:
        return 3;
      default:
        mouse_panic("bad gate type %d", static_cast<int>(g));
    }
}

/** Logic value the output MTJ must be preset to before the pulse. */
inline Bit
gatePreset(GateType g)
{
    switch (g) {
      // Inverting gates preset to 0 and switch toward 1.
      case GateType::kNot:
      case GateType::kNand2:
      case GateType::kNor2:
      case GateType::kNand3:
      case GateType::kNor3:
      case GateType::kMin3:
        return 0;
      // Non-inverting gates preset to 1 and switch toward 0.
      case GateType::kBuf:
      case GateType::kAnd2:
      case GateType::kOr2:
      case GateType::kAnd3:
      case GateType::kOr3:
      case GateType::kMaj3:
        return 1;
      default:
        mouse_panic("bad gate type %d", static_cast<int>(g));
    }
}

/**
 * Ideal truth function of the gate.
 *
 * @param g Gate type.
 * @param inputs Input bits packed LSB-first (bit i = input i).
 * @return The boolean output.
 */
Bit gateTruth(GateType g, unsigned inputs);

/**
 * Whether the output MTJ should switch away from its preset for the
 * given input combination (i.e. truth != preset).
 */
inline bool
gateShouldSwitch(GateType g, unsigned inputs)
{
    return gateTruth(g, inputs) != gatePreset(g);
}

/** Short mnemonic, e.g. "NAND2". */
std::string gateName(GateType g);

} // namespace mouse

#endif // MOUSE_LOGIC_GATE_HH
