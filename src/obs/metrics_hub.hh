/**
 * @file
 * Live serving metrics: a lock-free rolling-window aggregation hub.
 *
 * The StatRegistry/TraceSink pair answers "what happened" after a run
 * completes; a MetricsHub answers "what is happening" while a
 * long-lived serving process (`mouse_cli serve`) is still running.
 * Its one publisher, serve::InferenceService (admission and its drain
 * workers), writes through relaxed atomics only, so publishing never
 * blocks and never takes a lock; any thread may call snapshot()
 * concurrently and gets a coherent-enough view for monitoring
 * (counters may be mid-update; no torn doubles, no data races).
 *
 * Aggregation is two-level:
 *  - lifetime totals (monotonic counters and sums since construction);
 *  - a rolling window (10 s in 16 slots) implemented as a ring of
 *    time slots.  Each slot holds its own atomic counters and
 *    geometric-bucket latency histograms (same bucketing as
 *    obs::Histogram, so percentile math matches the post-mortem
 *    registry); a slot is reclaimed by the first writer to land in
 *    its time range.  The window therefore decays in slot-sized
 *    steps, and a reclaim racing a concurrent writer may drop that
 *    writer's single sample — monitoring-grade accuracy, never a
 *    race.
 *
 * The hub deliberately stays out of every deterministic artifact:
 * serving stats, reports and traces are byte-identical with a hub
 * attached or not (publishing is observational, keyed off host time).
 *
 * MetricsSnapshot serializes as JSON ("metrics_schema":1) or
 * Prometheus text exposition; see docs/OBSERVABILITY.md for the
 * field-by-field format.  StallWatchdog turns hub progress counters
 * into no-progress warnings (queue non-empty but nothing completing).
 */

#ifndef MOUSE_OBS_METRICS_HUB_HH
#define MOUSE_OBS_METRICS_HUB_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "obs/stat_registry.hh"

namespace mouse::obs
{

/** Windowed latency distribution summary. */
struct LatencyQuantiles
{
    std::uint64_t count = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
};

/** One coherent read of a MetricsHub (see snapshot()). */
struct MetricsSnapshot
{
    /** Host seconds since the hub was constructed. */
    double uptimeSeconds = 0.0;
    /** Host seconds the windowed figures cover (<= the window). */
    double windowSeconds = 0.0;

    // -- Lifetime totals ------------------------------------------------
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    /** Column slots offered / actually used by executed batches. */
    std::uint64_t slotsTotal = 0;
    std::uint64_t slotsUsed = 0;
    std::uint64_t outages = 0;
    std::uint64_t stallWarnings = 0;
    /** Admitted but not yet completed (may be mid-update). */
    std::int64_t queueDepth = 0;
    /** Workers currently inside a drain. */
    std::uint32_t activeWorkers = 0;
    /** Simulated array seconds / joules across executed batches. */
    double simSeconds = 0.0;
    double energyJoules = 0.0;
    /** Simulated seconds lost to harvested-power brownouts. */
    double outageStallSeconds = 0.0;
    /** completed / uptime. */
    double throughputPerS = 0.0;

    // -- Rolling window -------------------------------------------------
    std::uint64_t windowCompleted = 0;
    std::uint64_t windowBatches = 0;
    double windowThroughputPerS = 0.0;
    /** slotsUsed / slotsTotal of the window's batches (0..1). */
    double windowOccupancy = 0.0;
    double windowEnergyPerRequestJ = 0.0;
    double windowOutageStallSeconds = 0.0;
    /** Admission-to-completion host latency of windowed requests. */
    LatencyQuantiles hostLatency;
    /** Simulated pass latency of the same requests. */
    LatencyQuantiles simLatency;

    /** One-line JSON document ("metrics_schema":1). */
    std::string toJson() const;
    /** Prometheus text exposition (mouse_serve_* families). */
    std::string toPrometheus() const;
    /** Parse a toJson() document; nullopt on malformed input. */
    static std::optional<MetricsSnapshot>
    fromJson(const std::string &text);
};

/** Lock-free live-metrics aggregation point. */
class MetricsHub
{
  public:
    MetricsHub();
    MetricsHub(const MetricsHub &) = delete;
    MetricsHub &operator=(const MetricsHub &) = delete;
    ~MetricsHub();

    /** Host seconds since construction (the hub's timeline). */
    double now() const;

    // -- Publishers (any thread, lock-free) -----------------------------

    /** One request admitted; raises the queue-depth gauge. */
    void recordSubmit();

    /**
     * One executed batch: @p size requests over @p slots offered
     * column slots, taking @p simSeconds of simulated array time and
     * @p energyJ, of which @p outageStallS were spent powered off
     * across @p outages brownouts.
     */
    void recordBatch(unsigned size, unsigned slots, double simSeconds,
                     double energyJ, double outageStallS,
                     std::uint64_t outages);

    /** One request completed; lowers the queue-depth gauge and
     *  samples both latency distributions. */
    void recordDone(double hostLatencyS, double simLatencyS);

    /** A watchdog fired (see StallWatchdog). */
    void recordStallWarning();

    /** A drain worker became active (+1) or idle (-1). */
    void workerActive(int delta);

    // -- Readers --------------------------------------------------------

    /** Aggregate everything into one snapshot (any thread). */
    MetricsSnapshot snapshot() const;

  private:
    struct Slot;

    Slot &slotFor(double nowS, std::uint64_t &epochOut);

    std::chrono::steady_clock::time_point epoch_;

    // Lifetime totals.
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<std::uint64_t> batches_{0};
    std::atomic<std::uint64_t> slotsTotal_{0};
    std::atomic<std::uint64_t> slotsUsed_{0};
    std::atomic<std::uint64_t> outages_{0};
    std::atomic<std::uint64_t> stallWarnings_{0};
    std::atomic<std::int64_t> queueDepth_{0};
    std::atomic<std::int32_t> activeWorkers_{0};
    std::atomic<double> simSeconds_{0.0};
    std::atomic<double> energyJoules_{0.0};
    std::atomic<double> outageStallSeconds_{0.0};

    std::unique_ptr<Slot[]> slots_;
};

/** What a watchdog saw when it declared a stall. */
struct StallReport
{
    enum class Kind
    {
        /** Queue non-empty, no workers active: nothing will drain. */
        kIdleQueue,
        /** Workers active but the drain cursor is not advancing. */
        kStuckDrain,
    };

    Kind kind = Kind::kIdleQueue;
    /** Host seconds without progress when the report fired. */
    double stalledSeconds = 0.0;
    /** Queue snapshot at detection time. */
    std::int64_t queueDepth = 0;
    std::uint64_t completed = 0;
    std::uint64_t batches = 0;
    std::uint32_t activeWorkers = 0;

    const char *kindName() const;
    /** Structured queue snapshot for the warning log line. */
    std::string toJson() const;
};

/**
 * No-progress detector over a MetricsHub.
 *
 * Progress is `completed + batches`; a stall is a window of at least
 * @p noProgressSeconds during which the queue stayed non-empty and
 * progress did not advance.  check() is the pure detector — feed it
 * a monotonic clock and it reports at most once per stall episode
 * (re-arming as soon as progress resumes) — so tests drive it
 * deterministically without threads.  start() wraps it in a polling
 * thread that records hub stall warnings and invokes the callback.
 */
class StallWatchdog
{
  public:
    StallWatchdog(MetricsHub &hub, double noProgressSeconds);
    ~StallWatchdog();

    StallWatchdog(const StallWatchdog &) = delete;
    StallWatchdog &operator=(const StallWatchdog &) = delete;

    /** Evaluate at time @p nowSeconds (hub timeline); a report the
     *  first time a no-progress window exceeds the threshold. */
    std::optional<StallReport> check(double nowSeconds);

    /** Poll check() every @p pollSeconds on a background thread;
     *  each report bumps hub.stall_warnings and calls @p onStall. */
    void start(double pollSeconds,
               std::function<void(const StallReport &)> onStall);

    /** Stop and join the polling thread (idempotent). */
    void stop();

    double threshold() const { return threshold_; }

  private:
    MetricsHub &hub_;
    double threshold_;
    std::uint64_t lastProgress_ = 0;
    double lastProgressAt_ = 0.0;
    bool seeded_ = false;
    bool reported_ = false;

    std::thread poller_;
    std::atomic<bool> running_{false};
};

} // namespace mouse::obs

#endif // MOUSE_OBS_METRICS_HUB_HH
