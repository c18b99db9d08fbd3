/**
 * @file
 * CPU baseline rows for Table IV.
 *
 * The paper runs its custom SVM and libSVM on Intel Haswell
 * E5-2680v3 nodes, conservatively charging only the processor's
 * idle power.  The reported numbers are reproduced here as the
 * calibrated reference: the paper's own measurement protocol is not
 * reproducible without that cluster.
 */

#ifndef MOUSE_BASELINE_CPU_HH
#define MOUSE_BASELINE_CPU_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace mouse
{

/** One CPU row of Table IV. */
struct CpuBenchmark
{
    std::string name;
    Seconds latency = 0.0;
    Joules energy = 0.0;
    unsigned supportVectors = 0;
    double accuracyPercent = 0.0;
};

/** Paper Table IV "SVM (CPU)" rows (custom R implementation). */
std::vector<CpuBenchmark> cpuSvmRows();

/** Paper Table IV "libSVM" rows. */
std::vector<CpuBenchmark> libSvmRows();

} // namespace mouse

#endif // MOUSE_BASELINE_CPU_HH
