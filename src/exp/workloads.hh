/**
 * @file
 * The six evaluation workloads of the paper (Section VIII) with
 * their Table III/IV memory provisioning, plus trace builders and
 * the Figure-9 power sweep.  Moved out of bench/ so the experiment
 * runner, the CLI, and the benches all share one definition
 * (bench/workloads.hh re-exports these under mouse::bench for the
 * existing bench sources).
 */

#ifndef MOUSE_EXP_WORKLOADS_HH
#define MOUSE_EXP_WORKLOADS_HH

#include <string>
#include <vector>

#include "ml/mapping.hh"
#include "sim/simulator.hh"

namespace mouse::exp
{

/** Kind discriminator for the evaluation workloads. */
enum class WorkloadKind
{
    Svm,
    Bnn,
};

/** One benchmark row of the evaluation. */
struct Benchmark
{
    std::string name;
    WorkloadKind kind = WorkloadKind::Svm;
    /** Array capacity provisioned (Table III), in MB. */
    double capacityMB = 0.0;
    /** Data tiles (128 KB each) granted to the mapping. */
    unsigned dataTiles = 0;
    SvmWorkload svm{};
    BnnShape bnn{};
};

/** The paper's six benchmarks, index-aligned with
 *  names::listBenchmarks(). */
const std::vector<Benchmark> &paperBenchmarks();

/** Compressed trace of one inference of @p bench on @p lib:
 *  measureKernels() of kernelsFor(bench), then assembleTrace(). */
Trace traceFor(const GateLibrary &lib, const Benchmark &bench,
               MappingInfo *info = nullptr);

/** The distinct kernels a trace of @p bench repeats, ascending. */
std::vector<Kernel> kernelsFor(const Benchmark &bench);

/** Assemble the trace of @p bench from @p mixes, which must hold
 *  every kernel kernelsFor(bench) lists. */
Trace assembleTrace(const Benchmark &bench, const KernelMixes &mixes,
                    MappingInfo *info = nullptr);

/** The paper's power sweep: 60 uW (body heat) to 5 mW (Powercast). */
const std::vector<Watts> &powerSweep();

} // namespace mouse::exp

#endif // MOUSE_EXP_WORKLOADS_HH
