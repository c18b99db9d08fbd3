/**
 * @file
 * Datasheet constants: an NVP-style nonvolatile-processor platform.
 *
 * Ma et al.'s NVP line (HPCA'15 and successors): a ferroelectric
 * nonvolatile processor whose near-free backup/restore lets it ride
 * a small ceramic buffer — here the 4.7 uF board variant, half an
 * order of magnitude under Mementos' electrolytic — paired with an
 * efficient on-chip boost converter.  One constexpr constant per
 * datasheet line item (docs/HARVESTING.md).
 */

#ifndef MOUSE_HARVEST_PLATFORMS_NVP_HH
#define MOUSE_HARVEST_PLATFORMS_NVP_HH

#include "common/types.hh"

namespace mouse::platforms
{

inline constexpr Farads kNvpCapacitance = 4.7e-6;
inline constexpr Volts kNvpMaxCapacitorVoltage = 3.3;
inline constexpr double kNvpFrontEndEfficiency = 0.90;

} // namespace mouse::platforms

#endif // MOUSE_HARVEST_PLATFORMS_NVP_HH
