/**
 * @file
 * Switched-capacitor voltage converter (paper Sections IV-C, VIII).
 *
 * A switched-capacitor DC-DC converter with conversion ratios
 * {0.75, 1, 1.5, 1.75} supplies every voltage the gates require
 * from the buffer capacitor.  Following the paper, the evaluation
 * runs on the power *supplied by* the converter: regulator
 * efficiency (35-80 % for real converters) is outside the reported
 * numbers, so the buffer -> load path is lossless and this class
 * models only which rails the ratios reach.
 */

#ifndef MOUSE_HARVEST_CONVERTER_HH
#define MOUSE_HARVEST_CONVERTER_HH

#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mouse
{

/** The paper's conversion ratios (Section VIII). */
inline std::vector<double>
paperConverterRatios()
{
    return {0.75, 1.0, 1.5, 1.75};
}

/**
 * Extended ratio set.  Our independently solved gate operating
 * points show some pulses (notably the projected-STT write through
 * the 76 kOhm AP path) exceed 1.75x the 100 mV window bottom; real
 * series-parallel switched-capacitor designs provide higher ratios,
 * so the extended set documents that substitution (EXPERIMENTS.md).
 */
inline std::vector<double>
extendedConverterRatios()
{
    return {0.75, 1.0, 1.5, 1.75, 2.5, 3.5};
}

/** Switched-capacitor converter with configurable ratios. */
class SwitchedCapConverter
{
  public:
    /** @param ratios Available conversion ratios, ascending. */
    explicit SwitchedCapConverter(
        std::vector<double> ratios = paperConverterRatios())
        : ratios_(std::move(ratios))
    {
        mouse_assert(!ratios_.empty(), "no conversion ratios");
    }

    const std::vector<double> &ratios() const { return ratios_; }

    /**
     * Lowest output rail >= @p required reachable from a buffer at
     * @p v_buffer, or nullopt when even the highest ratio falls
     * short.
     */
    std::optional<Volts>
    railFor(Volts required, Volts v_buffer) const
    {
        for (double ratio : ratios_) {
            const Volts rail = ratio * v_buffer;
            if (rail >= required) {
                return rail;
            }
        }
        return std::nullopt;
    }

    /**
     * Whether every voltage in @p required can be supplied across
     * the whole buffer window [v_low, v_high].  The binding case is
     * the window bottom.
     */
    bool
    canSupply(Volts required, Volts v_low) const
    {
        return railFor(required, v_low).has_value();
    }

  private:
    std::vector<double> ratios_;
};

} // namespace mouse

#endif // MOUSE_HARVEST_CONVERTER_HH
