/**
 * @file
 * Golden characterisation of the MCU baseline runners.
 *
 * Every scheme runs one op stream continuously and harvested, the
 * latter under constant, square and piezo-impulse sources on the
 * mementos platform and on a 10 nF buffer.  Each case pins its
 * RunStats bit-exactly (hex floats); the expected values live in
 * tests/golden/mcu_golden.txt, one "<case> stats <value>" line each.
 * To re-pin an intended change, run the binary directly (one
 * process) with MOUSE_GOLDEN_OUT=<file> set; it appends every
 * computed line there, ready to replace the golden file.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "baseline/mcu/eh_scheme.hh"
#include "baseline/mcu/mcu_model.hh"

namespace mouse
{
namespace
{

std::string
hexStats(const RunStats &s)
{
    char buf[640];
    std::snprintf(
        buf, sizeof(buf),
        "committed=%llu dead=%llu outages=%llu active=%a deadT=%a "
        "restoreT=%a charging=%a compute=%a backup=%a deadE=%a "
        "restoreE=%a idle=%a",
        static_cast<unsigned long long>(s.instructionsCommitted),
        static_cast<unsigned long long>(s.instructionsDead),
        static_cast<unsigned long long>(s.outages), s.activeTime,
        s.deadTime, s.restoreTime, s.chargingTime, s.computeEnergy,
        s.backupEnergy, s.deadEnergy, s.restoreEnergy, s.idleEnergy);
    return buf;
}

/** The pinned lines, keyed by "<case> stats". */
const std::map<std::string, std::string> &
golden()
{
    static const std::map<std::string, std::string> lines = [] {
        std::map<std::string, std::string> m;
        std::ifstream in(MOUSE_GOLDEN_DIR "/mcu_golden.txt");
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t kind = line.find(' ');
            const std::size_t value = line.find(' ', kind + 1);
            if (kind != std::string::npos &&
                value != std::string::npos) {
                m[line.substr(0, value)] = line.substr(value + 1);
            }
        }
        return m;
    }();
    return lines;
}

void
expectGolden(const std::string &name, const RunStats &stats)
{
    const std::string key = name + " stats";
    const std::string actual = hexStats(stats);
    const auto it = golden().find(key);
    EXPECT_TRUE(it != golden().end()) << "no golden line for " << key;
    if (it != golden().end()) {
        EXPECT_EQ(actual, it->second) << key;
    }
    if (const char *out = std::getenv("MOUSE_GOLDEN_OUT")) {
        std::ofstream(out, std::ios::app) << key << ' ' << actual
                                          << '\n';
    }
}

/**
 * ~200k op bundles of 6-10 MCU instructions in 60 run-length blocks:
 * many bursts on mementos, and every bundle plus the largest backup
 * reserve and restore fits in the 10 nF window.
 */
mcu::McuProgram
goldenProgram()
{
    Trace unit;
    unit.append(Opcode::kGateNand2, 16, 16, 5000);
    unit.append(Opcode::kGateNor2, 32, 32, 3000);
    unit.append(Opcode::kReadRow, 32, 32, 2000);
    Trace trace;
    trace.appendTrace(unit, 20);
    return mcu::mcuProgramFromTrace(trace);
}

TEST(McuGolden, Continuous)
{
    const mcu::McuProgram prog = goldenProgram();
    for (const std::string &name : mcu::ehSchemeNames()) {
        expectGolden("continuous/" + name,
                     mcu::mcuRunContinuous(prog,
                                           *mcu::makeEhScheme(name)));
    }
}

TEST(McuGolden, Harvested)
{
    const mcu::McuProgram prog = goldenProgram();
    const std::pair<const char *, SourceSpec> sources[] = {
        {"constant", SourceSpec::constant(100e-6)},
        {"square", SourceSpec::square(0.01, 0.3, 200e-6)},
        {"piezo-impulse", SourceSpec::corpusTrace("piezo-impulse")},
    };
    for (const std::string &scheme : mcu::ehSchemeNames()) {
        for (const auto &[label, source] : sources) {
            for (const bool tiny : {false, true}) {
                HarvestConfig h;
                h.source = source;
                if (tiny) {
                    h.capacitanceOverride = 10e-9;
                } else {
                    h.platform = "mementos";
                }
                expectGolden("harvested/" + scheme + "/" + label +
                                 (tiny ? "/10nF" : "/mementos"),
                             mcu::mcuRunHarvested(
                                 prog, *mcu::makeEhScheme(scheme), h));
            }
        }
    }
}

} // namespace
} // namespace mouse
