#include "harvest/platform.hh"

#include "harvest/platforms/batteryless.hh"
#include "harvest/platforms/mementos.hh"
#include "harvest/platforms/nvp.hh"

namespace mouse
{

const std::vector<Platform> &
platformCatalog()
{
    static const std::vector<Platform> catalog = {
        {"mementos",
         "Mementos-style MSP430 node: 10 uF / 4.5 V electrolytic, "
         "80% regulator",
         platforms::kMementosCapacitance,
         platforms::kMementosMaxCapacitorVoltage,
         platforms::kMementosFrontEndEfficiency},
        {"nvp",
         "NVP-style nonvolatile processor: 470 nF / 3.3 V ceramic, "
         "90% on-chip boost",
         platforms::kNvpCapacitance,
         platforms::kNvpMaxCapacitorVoltage,
         platforms::kNvpFrontEndEfficiency},
        {"batteryless",
         "generic batteryless sensing node: 10 uF / 7.5 V buffer, "
         "70% discrete buck",
         platforms::kBatterylessCapacitance,
         platforms::kBatterylessMaxCapacitorVoltage,
         platforms::kBatterylessFrontEndEfficiency},
    };
    return catalog;
}

const Platform *
platformByName(const std::string &name)
{
    for (const Platform &p : platformCatalog()) {
        if (p.name == name) {
            return &p;
        }
    }
    return nullptr;
}

std::vector<std::string>
platformNames()
{
    std::vector<std::string> names;
    for (const Platform &p : platformCatalog()) {
        names.push_back(p.name);
    }
    return names;
}

} // namespace mouse
