#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

#include "baseline/mcu/mcu_model.hh"
#include "baseline/selector.hh"
#include "baseline/sonic_scheme.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "exp/names.hh"

namespace mouse::exp
{

namespace
{

double
elapsed(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** True on a thread that is running a pool job: a pool worker, or
 *  a caller while it works on its own call. */
thread_local bool tl_inJob = false;

} // namespace

/**
 * The runner's worker threads.  One job runs at a time: the caller
 * publishes it, wakes the workers it needs, takes indices from the
 * job's cursor alongside them, and waits until each has checked out.
 * A worker is needed when its id is below the job's participant
 * count, so a job can only end once every worker it counted on has
 * left it.
 */
class ExperimentRunner::Pool
{
  public:
    explicit Pool(unsigned threads) : threads_(threads) {}

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : workers_) {
            t.join();
        }
    }

    /** fn(i) for i in [0, count) on the caller and up to
     *  @p participants - 1 workers. */
    void
    run(std::size_t count, const std::function<void(std::size_t)> &fn,
        unsigned participants)
    {
        std::lock_guard<std::mutex> turn(submit_);
        if (workers_.empty()) {
            workers_.reserve(threads_ - 1);
            for (unsigned id = 1; id < threads_; ++id) {
                workers_.emplace_back([this, id] { serve(id); });
            }
        }
        Job job(fn, count, participants);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            job_ = &job;
            busy_.store(participants - 1, std::memory_order_relaxed);
            generation_.fetch_add(1, std::memory_order_release);
        }
        wake_.notify_all();
        tl_inJob = true;
        work(job);
        tl_inJob = false;
        spinWhile([this] {
            return busy_.load(std::memory_order_acquire) != 0;
        });
        {
            std::unique_lock<std::mutex> lock(mutex_);
            done_.wait(lock, [this] {
                return busy_.load(std::memory_order_acquire) == 0;
            });
            job_ = nullptr;
        }
        if (job.error) {
            std::rethrow_exception(job.error);
        }
    }

  private:
    struct Job
    {
        Job(const std::function<void(std::size_t)> &f, std::size_t n,
            unsigned p)
            : fn(f), count(n), participants(p)
        {
        }

        const std::function<void(std::size_t)> &fn;
        std::size_t count;
        unsigned participants;
        std::atomic<std::size_t> cursor{0};
        std::mutex errorMutex;
        std::exception_ptr error;
    };

    /** Take indices until the cursor runs out; keep the first
     *  exception and go on. */
    static void
    work(Job &job)
    {
        while (true) {
            const std::size_t i =
                job.cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.count) {
                return;
            }
            try {
                job.fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(job.errorMutex);
                if (!job.error) {
                    job.error = std::current_exception();
                }
            }
        }
    }

    /** Worker @p id: park, join each job that counts on it, check
     *  out, until the pool stops. */
    void
    serve(unsigned id)
    {
        tl_inJob = true;
        std::uint64_t seen = 0;
        while (true) {
            spinWhile([&] {
                return generation_.load(std::memory_order_acquire) ==
                       seen;
            });
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ ||
                       generation_.load(std::memory_order_relaxed) != seen;
            });
            if (stop_) {
                return;
            }
            seen = generation_.load(std::memory_order_relaxed);
            Job *job = job_;
            if (job == nullptr || id >= job->participants) {
                continue;
            }
            lock.unlock();
            work(*job);
            if (busy_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                // Under the lock, so the caller is either before its
                // check or already waiting.
                std::lock_guard<std::mutex> done(mutex_);
                done_.notify_one();
            }
        }
    }

    /**
     * Spin while @p busy holds, for at most kSpin: a sweep's calls
     * follow each other within microseconds, and a parked thread
     * takes ~10 us to wake.
     */
    template <class Pred>
    static void
    spinWhile(Pred busy)
    {
        const auto until = std::chrono::steady_clock::now() + kSpin;
        while (busy() && std::chrono::steady_clock::now() < until) {
        }
    }

    unsigned threads_;
    /** Held by the caller of run() for the whole job. */
    std::mutex submit_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
    static constexpr std::chrono::microseconds kSpin{50};
    /** Guarded by mutex_, as are the writes of generation_. */
    Job *job_ = nullptr;
    bool stop_ = false;
    /** Jobs published so far; workers spin on it before parking. */
    std::atomic<std::uint64_t> generation_{0};
    /** Workers still in the current job. */
    std::atomic<unsigned> busy_{0};
};

ExperimentRunner::ExperimentRunner(unsigned threads)
    : threads_(threads)
{
    if (threads_ == 0) {
        threads_ = std::thread::hardware_concurrency();
    }
    if (threads_ == 0) {
        threads_ = 1;
    }
    pool_ = std::make_unique<Pool>(threads_);
}

ExperimentRunner::~ExperimentRunner() = default;

void
ExperimentRunner::forEach(
    std::size_t count,
    const std::function<void(std::size_t)> &fn) const
{
    if (count == 0) {
        return;
    }
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(threads_, count));
    if (workers <= 1 || tl_inJob) {
        for (std::size_t i = 0; i < count; ++i) {
            fn(i);
        }
        return;
    }
    pool_->run(count, fn, workers);
}

std::vector<std::shared_ptr<const KernelMix>>
ExperimentRunner::measurePerAnswerSet(
    const std::vector<const GateLibrary *> &libs, std::size_t count,
    const std::function<KernelMix(const GateLibrary &, std::size_t)>
        &measure) const
{
    std::vector<std::shared_ptr<const KernelMix>> mixes(libs.size() *
                                                        count);
    // One round per distinct set of answers: share every mix already
    // measured for an item with each library it was measuredFor(),
    // then measure, in parallel across items, on the first library of
    // each item that is still uncovered.
    while (true) {
        std::vector<std::size_t> todo;
        for (std::size_t i = 0; i < count; ++i) {
            for (std::size_t l = 0; l < libs.size(); ++l) {
                std::shared_ptr<const KernelMix> &slot =
                    mixes[l * count + i];
                for (std::size_t k = 0; k < libs.size() && !slot;
                     ++k) {
                    const auto &built = mixes[k * count + i];
                    if (built && built->measuredFor(*libs[l])) {
                        slot = built;
                    }
                }
                if (!slot) {
                    todo.push_back(l * count + i);
                    break;
                }
            }
        }
        if (todo.empty()) {
            return mixes;
        }
        forEach(todo.size(), [&](std::size_t t) {
            const std::size_t slot = todo[t];
            mixes[slot] = std::make_shared<const KernelMix>(
                measure(*libs[slot / count], slot % count));
        });
    }
}

std::vector<std::shared_ptr<const Trace>>
ExperimentRunner::compileTraces(
    const std::vector<const GateLibrary *> &libs,
    const std::vector<Benchmark> &benchmarks) const
{
    const std::size_t nbench = benchmarks.size();

    // The distinct kernels of every benchmark, largest first.
    std::vector<std::vector<Kernel>> bench_kernels(nbench);
    std::vector<Kernel> kernels;
    for (std::size_t b = 0; b < nbench; ++b) {
        bench_kernels[b] = kernelsFor(benchmarks[b]);
        kernels.insert(kernels.end(), bench_kernels[b].begin(),
                       bench_kernels[b].end());
    }
    std::sort(kernels.begin(), kernels.end(),
              [](const Kernel &x, const Kernel &y) {
                  const std::uint64_t cx = x.cells();
                  const std::uint64_t cy = y.cells();
                  return cx != cy ? cx > cy : x < y;
              });
    kernels.erase(std::unique(kernels.begin(), kernels.end()),
                  kernels.end());
    const std::size_t nkernel = kernels.size();
    const auto mixes = measurePerAnswerSet(
        libs, nkernel, [&](const GateLibrary &lib, std::size_t k) {
            return measureKernel(lib, kernels[k]);
        });

    // Each benchmark's kernels as indices into `kernels`.
    std::vector<std::vector<std::size_t>> bench_ids(nbench);
    for (std::size_t b = 0; b < nbench; ++b) {
        for (const Kernel &kernel : bench_kernels[b]) {
            bench_ids[b].push_back(static_cast<std::size_t>(
                std::find(kernels.begin(), kernels.end(), kernel) -
                kernels.begin()));
        }
    }
    const auto same_mixes = [&](std::size_t b, std::size_t l,
                                std::size_t m) {
        for (const std::size_t k : bench_ids[b]) {
            if (mixes[l * nkernel + k] != mixes[m * nkernel + k]) {
                return false;
            }
        }
        return true;
    };

    // Assemble one trace per benchmark and distinct set of mixes; a
    // library whose mixes match an earlier library's shares its
    // trace.
    std::vector<std::shared_ptr<const Trace>> traces(libs.size() *
                                                     nbench);
    std::vector<std::size_t> todo;
    std::vector<std::size_t> owner(traces.size());
    for (std::size_t b = 0; b < nbench; ++b) {
        for (std::size_t l = 0; l < libs.size(); ++l) {
            std::size_t m = 0;
            while (m < l && !same_mixes(b, l, m)) {
                ++m;
            }
            owner[l * nbench + b] = m * nbench + b;
            if (m == l) {
                todo.push_back(l * nbench + b);
            }
        }
    }
    forEach(todo.size(), [&](std::size_t t) {
        const std::size_t slot = todo[t];
        const std::size_t l = slot / nbench;
        const std::size_t b = slot % nbench;
        KernelMixes bench_mixes;
        for (const std::size_t k : bench_ids[b]) {
            bench_mixes.emplace(kernels[k], *mixes[l * nkernel + k]);
        }
        traces[slot] = std::make_shared<const Trace>(
            assembleTrace(benchmarks[b], bench_mixes));
    });
    for (std::size_t slot = 0; slot < traces.size(); ++slot) {
        traces[slot] = traces[owner[slot]];
    }
    return traces;
}

SweepResult
ExperimentRunner::run(const SweepGrid &grid) const
{
    const auto t0 = std::chrono::steady_clock::now();
    if (grid.benchmarks.empty()) {
        mouse_fatal("sweep grid has no benchmarks");
    }
    const std::size_t total = grid.size();

    // Shared immutable contexts: one gate library + energy model per
    // (tech, margin), built in parallel, and a table of traces that
    // contexts share wherever their libraries compile alike.  Both
    // are only read during the point runs.
    struct Context
    {
        std::unique_ptr<GateLibrary> lib;
        std::unique_ptr<EnergyModel> energy;
    };
    const std::size_t nctx = grid.techs.size() * grid.margins.size();
    std::vector<Context> contexts(nctx);
    forEach(nctx, [&](std::size_t i) {
        const TechConfig tech = grid.techs[i / grid.margins.size()];
        const double margin = grid.margins[i % grid.margins.size()];
        contexts[i].lib = std::make_unique<GateLibrary>(
            makeDeviceConfig(tech), margin);
        contexts[i].energy =
            std::make_unique<EnergyModel>(*contexts[i].lib);
    });

    std::vector<const GateLibrary *> libs(nctx);
    for (std::size_t i = 0; i < nctx; ++i) {
        libs[i] = contexts[i].lib.get();
    }
    const std::size_t nbench = grid.benchmarks.size();
    const std::vector<std::shared_ptr<const Trace>> traces =
        compileTraces(libs, grid.benchmarks);

    SweepResult result;
    result.grid = grid;
    result.threads = threads_;
    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;
    result.points = map(total, [&](std::size_t i) {
        const SweepPoint point = grid.at(i);
        const std::size_t ctx =
            point.techSlot * grid.margins.size() + point.marginSlot;
        const Trace &trace = *traces[ctx * nbench + point.benchmark];
        const EnergyModel &energy = *contexts[ctx].energy;

        const auto p0 = std::chrono::steady_clock::now();
        RunResult r;
        // Each point records into its own sinks; they are folded in
        // grid-index order below, so any thread count produces the
        // same aggregate bit for bit.
        obs::Telemetry telem = obs::Telemetry::make(grid.telemetry);
        obs::Telemetry *tp = telem.enabled() ? &telem : nullptr;
        // Scheme dispatch: the schemes axis selects which system
        // simulates this point.
        BaselineSelector sel;
        if (!parseBaselineSelector(point.scheme, &sel)) {
            r.error = RunError::kBaselineSchemeUnknown;
        } else if (sel.system == BaselineSystem::kMcu) {
            const auto scheme = mcu::makeEhScheme(sel.scheme);
            const mcu::McuProgram mp = mcu::mcuProgramFromTrace(
                trace, point.checkpointPeriod > 1
                           ? point.checkpointPeriod
                           : 0);
            r.stats =
                point.continuous()
                    ? mcu::mcuRunContinuous(mp, *scheme, tp)
                    : mcu::mcuRunHarvested(mp, *scheme,
                                           grid.harvestFor(point), tp);
        } else if (sel.system == BaselineSystem::kSonic) {
            const auto sb = sonicBenchmarkFor(
                grid.benchmarks[point.benchmark].name);
            if (!sb) {
                // No SONIC calibration for this benchmark: a typed
                // per-point rejection, exactly like the run API.
                r.error = RunError::kBaselineSchemeUnknown;
            } else {
                r.stats = point.continuous()
                              ? sonicRunContinuous(*sb)
                              : sonicRunHarvested(*sb, point.power);
            }
        } else if (point.continuous()) {
            r.stats = runContinuousTrace(trace, energy, tp);
        } else {
            r.stats = runHarvestedTrace(trace, energy,
                                        grid.harvestFor(point), tp);
        }
        r.wallSeconds = elapsed(p0);
        r.meta.index = point.index;
        r.meta.tech = names::techName(point.tech);
        r.meta.benchmark = grid.benchmarks[point.benchmark].name;
        r.meta.system = baselineSystemName(sel.system);
        r.meta.scheme = sel.scheme;
        r.meta.power = point.continuous() ? 0.0 : point.power;
        if (!point.continuous()) {
            r.meta.source = point.source.name();
        }
        r.meta.platform = point.platform;
        r.meta.seed = point.seed;
        r.meta.checkpointPeriod = point.checkpointPeriod;
        r.meta.margin = point.margin;
        r.statsTree = telem.stats;
        r.traceSink = telem.sink;
        if (progress_) {
            const std::size_t d =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress_(d, total);
        }
        return r;
    });
    // Fold per-point telemetry at the join, in index order.
    if (grid.telemetry.stats) {
        result.stats = std::make_shared<obs::StatRegistry>();
        for (const RunResult &r : result.points) {
            if (r.statsTree) {
                result.stats->merge(*r.statsTree);
            }
        }
    }
    if (grid.telemetry.events || grid.telemetry.waveform) {
        // The merged sink holds every point's buffers; scale the cap
        // with the grid (bounded) so per-point caps stay the limit.
        const std::size_t per =
            grid.telemetry.maxEvents > 0 ? grid.telemetry.maxEvents
                                         : (std::size_t{1} << 20);
        const std::size_t cap = std::min<std::size_t>(
            per * std::max<std::size_t>(total, 1),
            std::size_t{1} << 24);
        result.trace =
            std::make_shared<obs::TraceSink>(cap, cap);
        for (std::size_t i = 0; i < result.points.size(); ++i) {
            if (result.points[i].traceSink) {
                result.trace->mergeFrom(
                    *result.points[i].traceSink,
                    static_cast<std::uint32_t>(i));
            }
        }
    }
    result.wallSeconds = elapsed(t0);
    return result;
}

std::string
SweepResult::toJson() const
{
    std::string j = "{";
    j += "\"schema\":" + std::to_string(kResultSchemaVersion);
    j += ",\"threads\":" + std::to_string(threads);
    j += ",\"wall_seconds\":" + json::num(wallSeconds);
    j += ",\"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += points[i].toJson();
    }
    j += "]}";
    return j;
}

} // namespace mouse::exp
