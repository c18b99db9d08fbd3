/**
 * @file
 * Datasheet constants: the Mementos reference platform.
 *
 * Ransford et al.'s Mementos (ASPLOS'11) checkpointing platform: an
 * MSP430-class node buffered by a 10 uF electrolytic capacitor rated
 * to 4.5 V, charged through a diode + regulator front end whose
 * conversion losses we fold into one efficiency factor.  Values
 * follow the eh-sim data-sheet convention of one constexpr constant
 * per datasheet line item (docs/HARVESTING.md).
 */

#ifndef MOUSE_HARVEST_PLATFORMS_MEMENTOS_HH
#define MOUSE_HARVEST_PLATFORMS_MEMENTOS_HH

#include "common/types.hh"

namespace mouse::platforms
{

inline constexpr Farads kMementosCapacitance = 10e-6;
inline constexpr Volts kMementosMaxCapacitorVoltage = 4.5;
inline constexpr double kMementosFrontEndEfficiency = 0.80;

} // namespace mouse::platforms

#endif // MOUSE_HARVEST_PLATFORMS_MEMENTOS_HH
