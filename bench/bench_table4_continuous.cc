/**
 * @file
 * Table IV regeneration: continuously powered MOUSE (Modern STT)
 * against the CPU, libSVM and SONIC baselines.
 *
 * MOUSE latency/energy comes from simulating the compiled workload
 * traces; CPU/libSVM/SONIC rows are the paper-reported calibrated
 * baselines (their hardware is not reproducible here).  The MOUSE
 * rows print no accuracy: the paper trains its models offline on
 * MNIST, HAR and ADULT, which are not in this repository, and the
 * simulated cost of an inference does not depend on the weights.
 */

#include <cstdio>

#include "baseline/cpu.hh"
#include "baseline/sonic_scheme.hh"
#include "workloads.hh"

using namespace mouse;

namespace
{

void
printHeader()
{
    std::printf("%-22s %13s %13s %8s %14s %10s %9s\n", "Benchmark",
                "Latency(us)", "Energy(uJ)", "#SV", "I/D Mem(MB)",
                "Area(mm2)", "Acc(%)");
    bench::printRule(96);
}

} // namespace

int
main()
{
    std::printf("Table IV: continuously powered MOUSE (Modern STT) "
                "and related work\n\n");

    // -- Paper-reported CPU rows ------------------------------------------
    std::printf("SVM (CPU) [paper-reported reference]\n");
    printHeader();
    for (const auto &row : cpuSvmRows()) {
        std::printf("%-22s %13.0f %13.0f %8u %14s %10s %9.2f\n",
                    row.name.c_str(), row.latency * 1e6,
                    row.energy * 1e6, row.supportVectors, "-", "-",
                    row.accuracyPercent);
    }

    // -- MOUSE rows (simulated) ------------------------------------------
    const GateLibrary lib(makeDeviceConfig(TechConfig::ModernStt));
    const EnergyModel energy(lib);

    std::printf("\nMOUSE (Modern STT) [simulated]\n");
    printHeader();
    for (const auto &b : bench::paperBenchmarks()) {
        MappingInfo info;
        const Trace trace = bench::traceFor(lib, b, &info);
        const RunStats stats = runContinuousTrace(trace, energy);
        char mem[32];
        std::snprintf(mem, sizeof(mem), "%.1f / %.1f", info.instrMB,
                      info.dataMB);
        std::printf("%-22s %13.0f %13.2f %8u %14s %10.2f %9s\n",
                    b.name.c_str(), stats.totalTime() * 1e6,
                    stats.totalEnergy() * 1e6,
                    b.kind == bench::WorkloadKind::Svm
                        ? b.svm.numSupportVectors
                        : 0,
                    mem,
                    mouseArea(TechConfig::ModernStt, b.capacityMB),
                    "-");
    }

    // -- Paper-reported libSVM and SONIC rows ------------------------------
    std::printf("\nlibSVM [paper-reported reference]\n");
    printHeader();
    for (const auto &row : libSvmRows()) {
        std::printf("%-22s %13.0f %13.0f %8u %14s %10s %9.2f\n",
                    row.name.c_str(), row.latency * 1e6,
                    row.energy * 1e6, row.supportVectors, "-", "-",
                    row.accuracyPercent);
    }

    std::printf("\nSONIC [paper-reported reference]\n");
    printHeader();
    for (const auto &bench : {sonicMnist(), sonicHar()}) {
        const RunStats run = sonicRunContinuous(bench);
        std::printf("%-22s %13.0f %13.0f %8s %14s %10s %9.2f\n",
                    bench.name.c_str(), run.totalTime() * 1e6,
                    run.totalEnergy() * 1e6, "-", "0.256", "> 100",
                    bench.accuracyPercent);
    }

    std::printf(
        "\nPaper MOUSE rows (us / uJ): MNIST 23936/1384, "
        "MNIST(Bin) 6575/65.5, HAR 11805/468.6,\nADULT 1189/7.24, "
        "FINN 1485/14.33, FP-BNN 2007/99.9.  The MOUSE rows print no "
        "accuracy:\nthe paper's MNIST/HAR/ADULT datasets are not in "
        "this repository; see EXPERIMENTS.md.\n");
    return 0;
}
