/**
 * @file
 * Datasheet constants: a generic batteryless sensing platform.
 *
 * A Flicker/Capybara-style batteryless sensor node: a 10 uF buffer
 * sized for sensing bursts, a 7.5 V rated input stage so it can sit
 * directly behind a rectified piezo or RF front end, and a mediocre
 * discrete buck regulator.  One constexpr constant per datasheet
 * line item (docs/HARVESTING.md).
 */

#ifndef MOUSE_HARVEST_PLATFORMS_BATTERYLESS_HH
#define MOUSE_HARVEST_PLATFORMS_BATTERYLESS_HH

#include "common/types.hh"

namespace mouse::platforms
{

inline constexpr Farads kBatterylessCapacitance = 10e-6;
inline constexpr Volts kBatterylessMaxCapacitorVoltage = 7.5;
inline constexpr double kBatterylessFrontEndEfficiency = 0.70;

} // namespace mouse::platforms

#endif // MOUSE_HARVEST_PLATFORMS_BATTERYLESS_HH
