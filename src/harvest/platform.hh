/**
 * @file
 * Named capacitor/converter platform presets (docs/HARVESTING.md).
 *
 * The paper sizes the MOUSE buffer per technology; real energy-
 * harvesting deployments are built around a concrete storage +
 * converter front end.  Each preset bundles one platform's datasheet
 * constants (src/harvest/platforms/) behind a stable name that
 * HarvestConfig::platform, `mouse_cli --platform` and the
 * SweepGrid::platforms axis select:
 *
 *   mementos     10 uF / 4.5 V electrolytic, 80% regulator
 *   nvp          4.7 uF / 3.3 V ceramic, 90% on-chip boost
 *   batteryless  10 uF / 7.5 V sensing node, 70% discrete buck
 *
 * A named platform replaces the system's default buffer capacitance
 * (HarvestConfig::capacitanceOverride still wins), and its front-end
 * efficiency derates the source.  The buffer -> load path is lossless
 * (the paper's accounting).
 */

#ifndef MOUSE_HARVEST_PLATFORM_HH
#define MOUSE_HARVEST_PLATFORM_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace mouse
{

/** One selectable capacitor + converter parameter set. */
struct Platform
{
    /** Stable lookup key ("mementos", "nvp", "batteryless"). */
    std::string name;
    /** One-line datasheet summary for CLI help and docs. */
    std::string description;
    /** Storage capacitance of the platform's buffer. */
    Farads capacitance;
    /** Rated maximum buffer voltage. */
    Volts maxCapacitorVoltage;
    /** Front-end (harvester -> buffer) conversion efficiency. */
    double frontEndEfficiency;
};

/** All presets, in stable listing order. */
const std::vector<Platform> &platformCatalog();

/** Look up a preset by exact name; nullptr when unknown. */
const Platform *platformByName(const std::string &name);

/** Preset names in listing order (CLI help / error messages). */
std::vector<std::string> platformNames();

} // namespace mouse

#endif // MOUSE_HARVEST_PLATFORM_HH
