/**
 * @file
 * Open-loop load generation for the serving workload.
 *
 * Arrivals follow a seeded Poisson process.  Time is cut into fixed
 * schedule windows: at the end of each window every arrival due in it
 * is submitted and the service is drained.  Because the windows, not
 * the host clock, decide which requests travel together, batch
 * composition depends only on the seed.
 *
 * Every request is timed from its due time, not from when it was
 * submitted, so a stall in one drain shows up as latency in every
 * request that was due while it lasted.  The generator's own lateness
 * is reported separately: a request's submission is due at the end of
 * its window, and lag is how much later than that it was submitted.
 */

#ifndef PERFBENCH_OPEN_LOOP_HH
#define PERFBENCH_OPEN_LOOP_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench
{

/** Due times (seconds from schedule start, ascending) of Poisson
 *  arrivals at @p rate per second over [0, @p duration). */
std::vector<double> poissonArrivals(std::uint64_t seed, double rate,
                                    double duration);

/** What the open loop drives; all times are seconds. */
struct OpenLoopHooks
{
    /** Monotonic clock. */
    std::function<double()> now;
    /** Block until now() >= t (returns at once when already past). */
    std::function<void(double)> sleepUntil;
    /** Admit arrival @p i. */
    std::function<void(std::size_t i)> submit;
    /** Complete every admitted arrival. */
    std::function<void()> drain;
};

/** Per-arrival timings of one open-loop phase, index-aligned with
 *  the due times. */
struct OpenLoopResult
{
    /** Completion minus due time. */
    std::vector<double> latency;
    /** Submission minus the end of the arrival's window (generator
     *  lateness; 0 when the generator keeps to its schedule). */
    std::vector<double> lag;
    /** Completion, relative to schedule start. */
    std::vector<double> completion;
    /** Submission, relative to schedule start. */
    std::vector<double> submitted;
    /** Host seconds of each window's drain. */
    std::vector<double> drainSeconds;
    /** Schedule windows run. */
    std::size_t windows = 0;
    /** End of the last schedule window, relative to schedule start. */
    double scheduleEnd = 0.0;
};

/** Run the open loop over @p due with windows of @p window seconds. */
OpenLoopResult runOpenLoop(const std::vector<double> &due,
                           double window, const OpenLoopHooks &hooks);

/** Arrivals not yet completed when the schedule ended: the backlog
 *  the generator left behind. */
std::size_t backlogAtEnd(const OpenLoopResult &r);

} // namespace perfbench

#endif // PERFBENCH_OPEN_LOOP_HH
