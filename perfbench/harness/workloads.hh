/**
 * @file
 * The benchmark's workloads and what every run of one reports.
 *
 * A run has three parts: set-up (input generation and any warm-up),
 * the timed phase of --seconds, and, with --trace 1, a serial replay
 * of the same work through the public layer calls with spans around
 * each.  The timed phase always runs untraced; the traced run reports
 * per-layer metrics and the end-to-end run reports end-to-end ones.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/metrics.hh"

namespace perfbench
{

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Worker threads of the workload's own pool (0 = the workload's
     *  default). */
    unsigned threads = 0;
    /** Stop after set-up and report only its duration. */
    bool setupOnly = false;
    /** When set-up time is measured from: the process spawn when the
     *  launcher passed it, otherwise entry to main(). */
    std::chrono::steady_clock::time_point start;
    /** Where the traced run writes its Chrome-trace JSON ("" = no
     *  file). */
    std::string traceOut;
};

/** Everything one run found. */
struct Outcome
{
    Report report;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed output checks, one line each. */
    std::vector<std::string> problems;
    double setupSeconds = 0.0;
    /** Digest of the generated inputs. */
    std::string inputDigest;
    /** Digest of the deterministic simulated results. */
    std::string resultDigest;
    /** Human-readable notes printed above the metric table. */
    std::vector<std::string> notes;

    bool correct() const { return problems.empty() && failed == 0; }

    void
    check(bool ok, const std::string &what)
    {
        if (!ok) {
            problems.push_back(what);
        }
    }

    /** Record that set-up ended now. */
    void
    setupDone(const Options &opt)
    {
        setupSeconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - opt.start)
                           .count();
    }
};

/** Host seconds since @p t0. */
inline double
since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** paper_sweep and harvest_matrix. */
void runSweepWorkload(const Options &opt, Outcome &out);

/** serve_mixed. */
void runServeWorkload(const Options &opt, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
