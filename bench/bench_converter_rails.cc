/**
 * @file
 * Converter rail coverage analysis — an independent check of the
 * paper's claim that conversion ratios {0.75, 1, 1.5, 1.75} "can
 * supply all voltages required" (Section VIII).
 *
 * For every feasible operation of every configuration, this bench
 * reports the required operating voltage against the highest rail
 * reachable from the *bottom* of the capacitor window (the binding
 * case), under both the paper's ratio set and the extended set.
 * Finding: with our independently solved operating points, a few
 * pulses (e.g. the projected-STT write through the 76 kOhm AP path)
 * exceed 1.75 x 100 mV — see EXPERIMENTS.md for the discussion.
 */

#include <cstdio>

#include "harvest/converter.hh"
#include "logic/gate_library.hh"

using namespace mouse;

int
main()
{
    const SwitchedCapConverter paper_conv(paperConverterRatios());
    const SwitchedCapConverter ext_conv(extendedConverterRatios());

    for (TechConfig tech :
         {TechConfig::ModernStt, TechConfig::ProjectedStt,
          TechConfig::ProjectedShe}) {
        const GateLibrary lib(makeDeviceConfig(tech));
        const DeviceConfig &cfg = lib.config();
        std::printf("%s: window %.0f..%.0f mV, max paper rail at "
                    "window bottom = %.0f mV\n",
                    cfg.name().c_str(), cfg.capVoltageLow * 1e3,
                    cfg.capVoltageHigh * 1e3,
                    1.75 * cfg.capVoltageLow * 1e3);
        std::printf("%-8s %10s %14s %14s\n", "op", "Vop(mV)",
                    "paper ratios", "extended");
        int uncovered = 0;
        auto report = [&](const char *name, Volts v) {
            const bool paper_ok =
                paper_conv.canSupply(v, cfg.capVoltageLow);
            const bool ext_ok =
                ext_conv.canSupply(v, cfg.capVoltageLow);
            uncovered += !paper_ok;
            std::printf("%-8s %10.1f %14s %14s\n", name, v * 1e3,
                        paper_ok ? "ok" : "UNREACHABLE",
                        ext_ok ? "ok" : "UNREACHABLE");
        };
        for (GateType g : lib.feasibleGates()) {
            report(gateName(g).c_str(), lib.gate(g).voltage);
        }
        report("WRITE", lib.writeOp().voltage);
        report("READ", lib.readOp().voltage);
        std::printf("-> %d operation(s) beyond the paper's rails on "
                    "this configuration\n\n",
                    uncovered);
    }
    std::printf(
        "Conclusion: the modern-STT window covers everything with "
        "the paper's four ratios;\nthe projected 100-120 mV window "
        "needs the higher ratios for preset-1 gates and\nwrites — a "
        "plausible divergence between our solved operating points "
        "and the\nauthors' (their exact pulse voltages are not "
        "published).\n");
    return 0;
}
