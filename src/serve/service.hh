/**
 * @file
 * InferenceService: a long-lived serving front end over a pool of
 * accelerator engines (docs/SERVING.md).
 *
 * Lifecycle: construct -> addModel() (compiles a PackedModel per
 * registered classifier) -> any number of {submit()* -> drain()}
 * cycles.  submit() admits a classification request and *forms
 * batches at admission time*: requests for the same model are packed
 * into one gate pass's column slots, and a batch is cut the moment
 * it fills (flush() cuts partials, drain() flushes first).  drain()
 * then executes every ready batch across the engine pool and
 * completes the corresponding results.
 *
 * Determinism by construction:
 *  - Batch composition depends only on the submission sequence
 *    (batches are cut in submission order at slot capacity), never
 *    on worker count or timing.
 *  - A batch's simulated stats are a pure function of (program,
 *    weights, batch contents): weights are redeployed on model
 *    switch, unused slots are zero-filled every batch, and preset/
 *    write energies are state-independent — so any engine computes
 *    the identical RunStats for the same batch.
 *  - The service registry is rebuilt by folding per-batch records in
 *    batch-id order *after* the join, so stats() is byte-identical
 *    for any worker count (no FP-order dependence on scheduling).
 *
 * Host wall-clock quantities (queueing delay, drain throughput) are
 * inherently nondeterministic; they are reported in ClassifyResult
 * and reportJson() but deliberately kept out of stats().
 *
 * Threading contract: submit/flush/drain/stats are called from one
 * thread; drain() parallelizes internally over cfg.workers engines.
 */

#ifndef MOUSE_SERVE_SERVICE_HH
#define MOUSE_SERVE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/accelerator.hh"
#include "obs/stat_registry.hh"
#include "obs/trace_sink.hh"
#include "serve/models.hh"

namespace mouse::serve
{

/** Identifier of an admitted request (dense, submission order). */
using RequestId = std::uint64_t;

/** Static configuration of a service instance. */
struct ServiceConfig
{
    /** Per-engine accelerator configuration (geometry + tech).
     *  Every engine in the pool is identical. */
    MouseConfig engine;
    /** Engines run in parallel by drain(). */
    unsigned workers = 1;
    /** Cap on requests per batch; 0 means one full pass (all
     *  column slots). */
    unsigned maxBatch = 0;
    /**
     * Run every pass under the energy-harvesting simulator instead
     * of wall power (the ROADMAP's harvested-power serving mode).
     * Determinism is preserved: a harvested pass is still a pure
     * function of (program, weights, batch contents, harvest), so
     * stats() stays byte-identical across worker counts.
     */
    bool harvested = false;
    /** Harvesting environment; only read when harvested. */
    HarvestConfig harvest{};
};

/** Completed classification (schema v4 serve fields). */
struct ClassifyResult
{
    RequestId id = 0;
    ModelId model = 0;
    int predicted = -1;
    std::uint64_t batchId = 0;
    unsigned batchSize = 0;
    unsigned slot = 0;
    /** Simulated array latency of the carrying pass (deterministic). */
    double simSeconds = 0.0;
    /** Pass energy amortized over the batch (deterministic). */
    Joules energy = 0.0;
    /** Admission -> completion on the host clock (nondeterministic,
     *  excluded from stats()). */
    double hostSeconds = 0.0;
};

/** A long-lived batched-inference front end. */
class InferenceService
{
  public:
    explicit InferenceService(const ServiceConfig &cfg);
    ~InferenceService();

    InferenceService(const InferenceService &) = delete;
    InferenceService &operator=(const InferenceService &) = delete;

    /** Compile and register a model; returns its id. */
    ModelId addModel(const BnnServeModel &m);
    ModelId addModel(const SvmServeModel &m);

    const PackedModel &model(ModelId id) const;
    std::size_t numModels() const { return models_.size(); }

    /**
     * Admit one classification request.  The payload is validated
     * against the model (size and element range) and moved in; a
     * full batch is cut immediately.  Returns the dense RequestId
     * under which result() will file the outcome.
     */
    RequestId submit(ModelId model, Input in);

    /** Cut every non-empty partial batch (they run at next drain). */
    void flush();

    /**
     * Flush, then execute every ready batch across the engine pool
     * (cfg.workers threads, engines created on first use).  An
     * engine claims the oldest batch of the model it has deployed,
     * and the oldest batch left when that model has none.  Returns
     * the host wall seconds the drain took.
     */
    double drain();

    /** Requests admitted but not yet completed. */
    std::size_t pendingRequests() const;
    /** Requests completed over the service lifetime. */
    std::size_t completed() const { return completedRequests_; }
    /** Batches executed over the service lifetime. */
    std::size_t batchesRun() const { return runCursor_; }

    /**
     * Program loads (with their weight deploys) across all engines
     * over the service lifetime.  It depends on which engine claims
     * which batch, so it stays out of stats() and reportJson().
     */
    std::size_t
    programLoads() const
    {
        return programLoads_.load(std::memory_order_relaxed);
    }

    /** Result of a completed request.  @p id must be completed. */
    const ClassifyResult &result(RequestId id) const;

    /**
     * Service statistics, rebuilt by folding per-batch records in
     * batch-id order: byte-identical toJson() for any worker count.
     */
    std::shared_ptr<obs::StatRegistry> stats() const;

    /** Schema-v4 serve report: totals, per-model counts, latency
     *  percentiles, plus the deterministic stat registry. */
    std::string reportJson() const;

    // -- Observability (docs/OBSERVABILITY.md) ----------------------
    //
    // All of it is observational: span tracing and progress
    // reporting never feed back into batch composition, results,
    // stats() or reportJson(), so those stay byte-identical with
    // observability on or off.

    /**
     * Record per-request lifecycle spans (host timeline, anchored at
     * service construction).  Toggle before submitting; see
     * requestTrace() for the span taxonomy.
     */
    void setTracing(bool on) { tracing_ = on; }
    bool tracing() const { return tracing_; }

    /**
     * The collected request spans as one Chrome-trace sink, composed
     * in batch-id order.  Tracks: pid 0 is the engine pool (one tid
     * per worker, "batch"/"deploy"/"pack"/"sim"/"readout" phases and
     * the host-attributed "outage_stall" span); pid 1+batchId is the
     * batch's request row (one tid per slot, a "request" span
     * covering admission -> completion with a nested "queued" span);
     * "batch_cut" instants mark batch formation and one "drain" span
     * per drain() covers its host wall time on the pool track.
     */
    obs::TraceSink requestTrace() const;

    /**
     * Progress callback, fired after every batch a drain() retires
     * as (batches done, batches total) for that drain.  Invoked from
     * worker threads under an internal mutex; keep it cheap.
     */
    void
    setProgress(
        std::function<void(std::size_t, std::size_t)> cb)
    {
        progress_ = std::move(cb);
    }

  private:
    struct PendingReq
    {
        RequestId id = 0;
        Input in;
        std::chrono::steady_clock::time_point submitted;
    };

    /** One cut batch, ready to run. */
    struct Batch
    {
        std::uint64_t id = 0;
        ModelId model = 0;
        std::vector<PendingReq> reqs;
    };

    /** Deterministic per-batch accounting, folded by stats(). */
    struct BatchRecord
    {
        ModelId model = 0;
        unsigned size = 0;
        unsigned slots = 0;
        double simSeconds = 0.0;
        Joules energy = 0.0;
        /** Brownouts and simulated recharge seconds of the pass
         *  (zero under wall power). */
        std::uint64_t outages = 0;
        double chargingSeconds = 0.0;
    };

    /** One pooled engine: an accelerator plus its deployed model. */
    struct Engine
    {
        explicit Engine(const MouseConfig &cfg) : acc(cfg) {}
        Accelerator acc;
        /** Model whose program/weights are deployed; -1 = none. */
        std::int64_t loaded = -1;
    };

    void cutBatch(ModelId model);
    void runBatch(Engine &eng, unsigned engineIdx,
                  const Batch &batch);
    unsigned batchCapacity(const PackedModel &m) const;

    /** Host seconds since construction (the span timeline). */
    double
    hostSince(std::chrono::steady_clock::time_point tp) const
    {
        return std::chrono::duration<double>(tp - epoch_).count();
    }

    ServiceConfig cfg_;
    /** Library used to compile models (engines solve their own,
     *  identical, libraries). */
    GateLibrary lib_;
    std::vector<PackedModel> models_;
    /** Per-model open (not yet cut) batch. */
    std::vector<std::vector<PendingReq>> open_;
    /** Cut batches in cut order; [runCursor_, end) are unrun. */
    std::vector<Batch> ready_;
    std::size_t runCursor_ = 0;
    std::vector<BatchRecord> records_;
    std::vector<ClassifyResult> results_;
    std::vector<std::unique_ptr<Engine>> engines_;
    RequestId nextRequest_ = 0;
    std::size_t completedRequests_ = 0;
    double drainSeconds_ = 0.0;
    /** Incremented by whichever worker loads a program. */
    std::atomic<std::size_t> programLoads_{0};

    // Observability (never read by the deterministic paths).
    std::chrono::steady_clock::time_point epoch_;
    bool tracing_ = false;
    /** Per-batch span sinks, indexed by batch id like records_:
     *  each worker writes only its claimed batches' cells. */
    std::vector<std::unique_ptr<obs::TraceSink>> traces_;
    /** Main-thread-only sink for batch-formation instants and
     *  drain spans. */
    obs::TraceSink formationTrace_;
    std::function<void(std::size_t, std::size_t)> progress_;
    std::mutex progressMutex_;
};

} // namespace mouse::serve

#endif // MOUSE_SERVE_SERVICE_HH
