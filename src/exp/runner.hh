/**
 * @file
 * The parallel experiment engine.
 *
 * ExperimentRunner fans the points of a SweepGrid out across a fixed
 * pool of worker threads (work is stolen from a shared atomic
 * cursor) and aggregates the RunResults into an index-keyed
 * SweepResult table.  The pool starts on the first parallel call,
 * parks between calls and lives as long as the runner; the calling
 * thread works on each call too.  Determinism is by construction: a
 * point's inputs — shared immutable GateLibrary/EnergyModel/Trace
 * contexts plus a seed derived from (rootSeed, index) — depend only
 * on its grid index, never on the thread or schedule, so an N-thread
 * run is bit-identical to a serial one.
 *
 * The generic forEach()/map() primitives are public so benches can
 * parallelize sweeps whose per-point work is not a plain trace
 * simulation (Monte-Carlo variation trials, capacitor sweeps, ...).
 */

#ifndef MOUSE_EXP_RUNNER_HH
#define MOUSE_EXP_RUNNER_HH

#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/accelerator.hh"
#include "exp/sweep.hh"

namespace mouse::exp
{

/** Index-keyed table of sweep results. */
struct SweepResult
{
    /** The grid that produced the results (axis labels). */
    SweepGrid grid;
    /** One result per grid point, in canonical grid order. */
    std::vector<RunResult> points;
    /** Wall-clock of the whole sweep, including context building. */
    double wallSeconds = 0.0;
    /** Worker threads the sweep ran on. */
    unsigned threads = 1;
    /** Point stats folded name-wise; null unless grid.telemetry
     *  asked for stats. */
    std::shared_ptr<obs::StatRegistry> stats;
    /** All points' events/waveform, each tagged with its grid index
     *  as the trace pid; null unless telemetry asked. */
    std::shared_ptr<obs::TraceSink> trace;

    /** Points per second of wall-clock. */
    double
    pointsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(points.size()) / wallSeconds
                   : 0.0;
    }

    /** JSON document: {"threads":..,"wall_seconds":..,"points":[..]}. */
    std::string toJson() const;
};

/** Fixed-pool parallel runner with deterministic aggregation. */
class ExperimentRunner
{
  public:
    /** @param threads Worker count; 0 means hardware_concurrency. */
    explicit ExperimentRunner(unsigned threads = 0);
    ~ExperimentRunner();

    ExperimentRunner(const ExperimentRunner &) = delete;
    ExperimentRunner &operator=(const ExperimentRunner &) = delete;

    unsigned
    threads() const
    {
        return threads_;
    }

    /**
     * Install a progress observer for run(): called as points
     * complete with (done, total).  Invoked from worker threads but
     * serialized by the runner, so the callback itself needs no
     * locking; keep it fast (it holds up result reporting, never
     * the simulations).
     */
    void
    setProgress(std::function<void(std::size_t, std::size_t)> fn)
    {
        progress_ = std::move(fn);
    }

    /**
     * Invoke fn(i) for every i in [0, count), distributing indices
     * across the calling thread and the pool; blocks until all
     * complete, then rethrows the first exception any fn(i) threw.
     * fn must not mutate shared state without its own
     * synchronization.  Called from inside a job of any runner, it
     * runs inline on the calling thread.  Calls from several threads
     * at once take the pool in turn.
     */
    void forEach(std::size_t count,
                 const std::function<void(std::size_t)> &fn) const;

    /** Ordered parallel map: out[i] = fn(i). */
    template <typename F>
    auto
    map(std::size_t count, F &&fn) const
        -> std::vector<std::invoke_result_t<F &, std::size_t>>
    {
        std::vector<std::invoke_result_t<F &, std::size_t>> out(
            count);
        forEach(count,
                [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /**
     * measure(*libs[l], i) for every item i in [0, count) on every
     * library, run once per item and distinct set of answers its
     * measurement asks of the libraries (KernelMix::measuredFor):
     * entry l * count + i is shared by every library answering
     * alike.  Each round measures, one forEach task per item in index
     * order, the item on the first library it does not cover yet;
     * the first round takes libs[0] for every item.
     */
    std::vector<std::shared_ptr<const KernelMix>>
    measurePerAnswerSet(
        const std::vector<const GateLibrary *> &libs, std::size_t count,
        const std::function<KernelMix(const GateLibrary &, std::size_t)>
            &measure) const;

    /**
     * The trace of every benchmark on every library: entry
     * l * benchmarks.size() + b is traceFor(*libs[l], benchmarks[b]).
     * The distinct kernels of all the benchmarks (kernelsFor) are
     * measured through measurePerAnswerSet(), largest
     * (Kernel::cells) first, so no benchmark's compile runs alone on
     * one thread and a kernel two benchmarks share is measured once.
     * Each (library, benchmark) trace is then assembled from the
     * shared mixes; libraries that got the same mixes for a
     * benchmark's kernels share one trace.
     */
    std::vector<std::shared_ptr<const Trace>>
    compileTraces(const std::vector<const GateLibrary *> &libs,
                  const std::vector<Benchmark> &benchmarks) const;

    /**
     * Run every point of @p grid and collect the index-keyed result
     * table.  One gate library per (tech, margin) is built (in
     * parallel), the traces come from compileTraces() over those
     * libraries, and the point runs read both concurrently.
     */
    SweepResult run(const SweepGrid &grid) const;

  private:
    class Pool;

    unsigned threads_;
    std::function<void(std::size_t, std::size_t)> progress_;
    /** threads_ - 1 parked workers, started by the first parallel
     *  forEach. */
    std::unique_ptr<Pool> pool_;
};

} // namespace mouse::exp

#endif // MOUSE_EXP_RUNNER_HH
