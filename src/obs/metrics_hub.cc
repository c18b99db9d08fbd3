#include "metrics_hub.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/schema_versions.hh"

namespace mouse::obs
{

namespace
{

/** Span of host time the windowed figures cover. */
constexpr double kWindowSeconds = 10.0;
/** Ring granularity; the window decays in slot-sized steps. */
constexpr unsigned kWindowSlots = 16;
constexpr double kSlotSeconds = kWindowSeconds / kWindowSlots;

using json::num;

/** Same geometric bucketing as obs::Histogram, over atomics. */
int
bucketIndex(double v)
{
    if (!(v > 0.0)) {
        return 0;
    }
    const double d = std::log10(v) - Histogram::kLoExponent;
    const int idx = 1 + static_cast<int>(std::floor(
                            d * Histogram::kBucketsPerDecade));
    return std::clamp(idx, 0, Histogram::kBuckets - 1);
}

double
bucketLo(int idx)
{
    return std::pow(10.0, Histogram::kLoExponent +
                              static_cast<double>(idx - 1) /
                                  Histogram::kBucketsPerDecade);
}

void
atomicAdd(std::atomic<double> &a, double v)
{
    a.fetch_add(v, std::memory_order_relaxed);
}

void
atomicMin(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v < cur &&
           !a.compare_exchange_weak(cur, v,
                                    std::memory_order_relaxed)) {
    }
}

void
atomicMax(std::atomic<double> &a, double v)
{
    double cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v,
                                    std::memory_order_relaxed)) {
    }
}

/** Plain (non-atomic) merged view of the window's latency buckets. */
struct MergedHist
{
    std::uint64_t buckets[Histogram::kBuckets] = {};
    std::uint64_t count = 0;
    double min = std::numeric_limits<double>::infinity();
    double max = -std::numeric_limits<double>::infinity();

    double
    percentile(double q) const
    {
        if (count == 0) {
            return 0.0;
        }
        q = std::clamp(q, 0.0, 1.0);
        const double target = q * static_cast<double>(count);
        std::uint64_t seen = 0;
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            if (buckets[i] == 0) {
                continue;
            }
            const double next =
                static_cast<double>(seen + buckets[i]);
            if (next >= target) {
                double v;
                if (i == 0) {
                    v = min;
                } else {
                    const double lo = bucketLo(i);
                    const double hi =
                        lo * std::pow(
                                 10.0,
                                 1.0 / Histogram::kBucketsPerDecade);
                    const double frac =
                        (target - static_cast<double>(seen)) /
                        static_cast<double>(buckets[i]);
                    v = lo +
                        (hi - lo) * std::clamp(frac, 0.0, 1.0);
                }
                return std::clamp(v, min, max);
            }
            seen += buckets[i];
        }
        return max;
    }

    LatencyQuantiles
    quantiles() const
    {
        LatencyQuantiles q;
        q.count = count;
        q.p50 = percentile(0.50);
        q.p95 = percentile(0.95);
        q.p99 = percentile(0.99);
        return q;
    }
};

} // namespace

/** One ring slot: the window's state for one slice of host time. */
struct MetricsHub::Slot
{
    static constexpr std::uint64_t kNoEpoch = ~std::uint64_t{0};

    std::atomic<std::uint64_t> epoch{kNoEpoch};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> batches{0};
    std::atomic<std::uint64_t> slotsTotal{0};
    std::atomic<std::uint64_t> slotsUsed{0};
    std::atomic<double> energyJoules{0.0};
    std::atomic<double> outageStallSeconds{0.0};
    std::atomic<std::uint64_t> hostBuckets[Histogram::kBuckets];
    std::atomic<std::uint64_t> simBuckets[Histogram::kBuckets];
    std::atomic<double> hostMin{
        std::numeric_limits<double>::infinity()};
    std::atomic<double> hostMax{
        -std::numeric_limits<double>::infinity()};
    std::atomic<double> simMin{
        std::numeric_limits<double>::infinity()};
    std::atomic<double> simMax{
        -std::numeric_limits<double>::infinity()};

    Slot()
    {
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            hostBuckets[i].store(0, std::memory_order_relaxed);
            simBuckets[i].store(0, std::memory_order_relaxed);
        }
    }

    /** Zero everything but the epoch (the reclaimer just set it). */
    void
    reset()
    {
        completed.store(0, std::memory_order_relaxed);
        batches.store(0, std::memory_order_relaxed);
        slotsTotal.store(0, std::memory_order_relaxed);
        slotsUsed.store(0, std::memory_order_relaxed);
        energyJoules.store(0.0, std::memory_order_relaxed);
        outageStallSeconds.store(0.0, std::memory_order_relaxed);
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            hostBuckets[i].store(0, std::memory_order_relaxed);
            simBuckets[i].store(0, std::memory_order_relaxed);
        }
        hostMin.store(std::numeric_limits<double>::infinity(),
                      std::memory_order_relaxed);
        hostMax.store(-std::numeric_limits<double>::infinity(),
                      std::memory_order_relaxed);
        simMin.store(std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
        simMax.store(-std::numeric_limits<double>::infinity(),
                     std::memory_order_relaxed);
    }
};

MetricsHub::MetricsHub()
    : epoch_(std::chrono::steady_clock::now()),
      slots_(std::make_unique<Slot[]>(kWindowSlots))
{
}

MetricsHub::~MetricsHub() = default;

double
MetricsHub::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

MetricsHub::Slot &
MetricsHub::slotFor(double nowS, std::uint64_t &epochOut)
{
    const std::uint64_t e =
        static_cast<std::uint64_t>(nowS / kSlotSeconds);
    epochOut = e;
    Slot &s = slots_[e % kWindowSlots];
    std::uint64_t seen = s.epoch.load(std::memory_order_relaxed);
    while (seen != e) {
        // First writer to land in a recycled time range claims the
        // slot and zeroes it.  A sample racing the reset may be lost
        // from the *window* view (never the lifetime totals) —
        // monitoring-grade accuracy, by design.
        if (s.epoch.compare_exchange_weak(
                seen, e, std::memory_order_relaxed)) {
            s.reset();
            break;
        }
    }
    return s;
}

void
MetricsHub::recordSubmit()
{
    submitted_.fetch_add(1, std::memory_order_relaxed);
    queueDepth_.fetch_add(1, std::memory_order_relaxed);
}

void
MetricsHub::recordBatch(unsigned size, unsigned slots,
                        double simSeconds, double energyJ,
                        double outageStallS, std::uint64_t outages)
{
    batches_.fetch_add(1, std::memory_order_relaxed);
    slotsTotal_.fetch_add(slots, std::memory_order_relaxed);
    slotsUsed_.fetch_add(size, std::memory_order_relaxed);
    outages_.fetch_add(outages, std::memory_order_relaxed);
    atomicAdd(simSeconds_, simSeconds);
    atomicAdd(energyJoules_, energyJ);
    atomicAdd(outageStallSeconds_, outageStallS);

    std::uint64_t e = 0;
    Slot &s = slotFor(now(), e);
    s.batches.fetch_add(1, std::memory_order_relaxed);
    s.slotsTotal.fetch_add(slots, std::memory_order_relaxed);
    s.slotsUsed.fetch_add(size, std::memory_order_relaxed);
    atomicAdd(s.energyJoules, energyJ);
    atomicAdd(s.outageStallSeconds, outageStallS);
}

void
MetricsHub::recordDone(double hostLatencyS, double simLatencyS)
{
    completed_.fetch_add(1, std::memory_order_relaxed);
    queueDepth_.fetch_sub(1, std::memory_order_relaxed);

    std::uint64_t e = 0;
    Slot &s = slotFor(now(), e);
    s.completed.fetch_add(1, std::memory_order_relaxed);
    s.hostBuckets[bucketIndex(hostLatencyS)].fetch_add(
        1, std::memory_order_relaxed);
    s.simBuckets[bucketIndex(simLatencyS)].fetch_add(
        1, std::memory_order_relaxed);
    atomicMin(s.hostMin, hostLatencyS);
    atomicMax(s.hostMax, hostLatencyS);
    atomicMin(s.simMin, simLatencyS);
    atomicMax(s.simMax, simLatencyS);
}

void
MetricsHub::recordStallWarning()
{
    stallWarnings_.fetch_add(1, std::memory_order_relaxed);
}

void
MetricsHub::workerActive(int delta)
{
    activeWorkers_.fetch_add(delta, std::memory_order_relaxed);
}

MetricsSnapshot
MetricsHub::snapshot() const
{
    MetricsSnapshot snap;
    snap.uptimeSeconds = now();
    snap.submitted = submitted_.load(std::memory_order_relaxed);
    snap.completed = completed_.load(std::memory_order_relaxed);
    snap.batches = batches_.load(std::memory_order_relaxed);
    snap.slotsTotal = slotsTotal_.load(std::memory_order_relaxed);
    snap.slotsUsed = slotsUsed_.load(std::memory_order_relaxed);
    snap.outages = outages_.load(std::memory_order_relaxed);
    snap.stallWarnings =
        stallWarnings_.load(std::memory_order_relaxed);
    snap.queueDepth = queueDepth_.load(std::memory_order_relaxed);
    const std::int32_t active =
        activeWorkers_.load(std::memory_order_relaxed);
    snap.activeWorkers =
        active > 0 ? static_cast<std::uint32_t>(active) : 0;
    snap.simSeconds = simSeconds_.load(std::memory_order_relaxed);
    snap.energyJoules =
        energyJoules_.load(std::memory_order_relaxed);
    snap.outageStallSeconds =
        outageStallSeconds_.load(std::memory_order_relaxed);
    snap.throughputPerS =
        snap.uptimeSeconds > 0.0
            ? static_cast<double>(snap.completed) /
                  snap.uptimeSeconds
            : 0.0;

    // Fold the live window slots.
    const std::uint64_t cur = static_cast<std::uint64_t>(
        snap.uptimeSeconds / kSlotSeconds);
    const std::uint64_t oldest =
        cur >= kWindowSlots ? cur - kWindowSlots + 1 : 0;
    MergedHist host;
    MergedHist sim;
    std::uint64_t wSlotsTotal = 0;
    std::uint64_t wSlotsUsed = 0;
    double wEnergy = 0.0;
    for (unsigned i = 0; i < kWindowSlots; ++i) {
        const Slot &s = slots_[i];
        const std::uint64_t e =
            s.epoch.load(std::memory_order_relaxed);
        if (e == Slot::kNoEpoch || e < oldest || e > cur) {
            continue;
        }
        snap.windowCompleted +=
            s.completed.load(std::memory_order_relaxed);
        snap.windowBatches +=
            s.batches.load(std::memory_order_relaxed);
        wSlotsTotal += s.slotsTotal.load(std::memory_order_relaxed);
        wSlotsUsed += s.slotsUsed.load(std::memory_order_relaxed);
        wEnergy += s.energyJoules.load(std::memory_order_relaxed);
        snap.windowOutageStallSeconds +=
            s.outageStallSeconds.load(std::memory_order_relaxed);
        for (int b = 0; b < Histogram::kBuckets; ++b) {
            const std::uint64_t hb =
                s.hostBuckets[b].load(std::memory_order_relaxed);
            const std::uint64_t sb =
                s.simBuckets[b].load(std::memory_order_relaxed);
            host.buckets[b] += hb;
            host.count += hb;
            sim.buckets[b] += sb;
            sim.count += sb;
        }
        host.min = std::min(
            host.min, s.hostMin.load(std::memory_order_relaxed));
        host.max = std::max(
            host.max, s.hostMax.load(std::memory_order_relaxed));
        sim.min = std::min(
            sim.min, s.simMin.load(std::memory_order_relaxed));
        sim.max = std::max(
            sim.max, s.simMax.load(std::memory_order_relaxed));
    }
    snap.windowSeconds =
        std::min(snap.uptimeSeconds, kWindowSeconds);
    snap.windowThroughputPerS =
        snap.windowSeconds > 0.0
            ? static_cast<double>(snap.windowCompleted) /
                  snap.windowSeconds
            : 0.0;
    snap.windowOccupancy =
        wSlotsTotal > 0
            ? static_cast<double>(wSlotsUsed) /
                  static_cast<double>(wSlotsTotal)
            : 0.0;
    snap.windowEnergyPerRequestJ =
        snap.windowCompleted > 0
            ? wEnergy / static_cast<double>(snap.windowCompleted)
            : 0.0;
    snap.hostLatency = host.quantiles();
    snap.simLatency = sim.quantiles();
    return snap;
}

// -- Serialization ----------------------------------------------------
//
// toJson() and fromJson() are a strict round-trip pair; extend both
// together (and docs/OBSERVABILITY.md's format table).

std::string
MetricsSnapshot::toJson() const
{
    std::string j = "{\"metrics_schema\":" +
                    std::to_string(schema::kMetricsSchemaVersion);
    j += ",\"uptime_s\":" + num(uptimeSeconds);
    j += ",\"window_s\":" + num(windowSeconds);
    j += ",\"lifetime\":{";
    j += "\"submitted\":" + std::to_string(submitted);
    j += ",\"completed\":" + std::to_string(completed);
    j += ",\"batches\":" + std::to_string(batches);
    j += ",\"queue_depth\":" + std::to_string(queueDepth);
    j += ",\"active_workers\":" + std::to_string(activeWorkers);
    j += ",\"slots_total\":" + std::to_string(slotsTotal);
    j += ",\"slots_used\":" + std::to_string(slotsUsed);
    j += ",\"outages\":" + std::to_string(outages);
    j += ",\"stall_warnings\":" + std::to_string(stallWarnings);
    j += ",\"sim_seconds\":" + num(simSeconds);
    j += ",\"energy_j\":" + num(energyJoules);
    j += ",\"outage_stall_s\":" + num(outageStallSeconds);
    j += ",\"throughput_per_s\":" + num(throughputPerS);
    j += "},\"window\":{";
    j += "\"completed\":" + std::to_string(windowCompleted);
    j += ",\"batches\":" + std::to_string(windowBatches);
    j += ",\"throughput_per_s\":" + num(windowThroughputPerS);
    j += ",\"batch_occupancy\":" + num(windowOccupancy);
    j += ",\"energy_per_request_j\":" + num(windowEnergyPerRequestJ);
    j += ",\"outage_stall_s\":" + num(windowOutageStallSeconds);
    j += ",\"host_latency_s\":{";
    j += "\"count\":" + std::to_string(hostLatency.count);
    j += ",\"p50\":" + num(hostLatency.p50);
    j += ",\"p95\":" + num(hostLatency.p95);
    j += ",\"p99\":" + num(hostLatency.p99);
    j += "},\"sim_latency_s\":{";
    j += "\"count\":" + std::to_string(simLatency.count);
    j += ",\"p50\":" + num(simLatency.p50);
    j += ",\"p95\":" + num(simLatency.p95);
    j += ",\"p99\":" + num(simLatency.p99);
    j += "}}}";
    return j;
}

std::string
MetricsSnapshot::toPrometheus() const
{
    std::string p;
    auto counter = [&p](const char *name, const char *help,
                        double v) {
        p += "# HELP ";
        p += name;
        p += " ";
        p += help;
        p += "\n# TYPE ";
        p += name;
        p += " counter\n";
        p += name;
        p += " " + num(v) + "\n";
    };
    auto gauge = [&p](const char *name, const char *help, double v) {
        p += "# HELP ";
        p += name;
        p += " ";
        p += help;
        p += "\n# TYPE ";
        p += name;
        p += " gauge\n";
        p += name;
        p += " " + num(v) + "\n";
    };
    counter("mouse_serve_requests_submitted_total",
            "requests admitted", static_cast<double>(submitted));
    counter("mouse_serve_requests_completed_total",
            "requests completed", static_cast<double>(completed));
    counter("mouse_serve_batches_total", "gate passes executed",
            static_cast<double>(batches));
    counter("mouse_serve_outages_total",
            "harvested-power brownouts across passes",
            static_cast<double>(outages));
    counter("mouse_serve_stall_warnings_total",
            "queue-stall watchdog firings",
            static_cast<double>(stallWarnings));
    counter("mouse_serve_sim_seconds_total",
            "simulated array seconds", simSeconds);
    counter("mouse_serve_energy_joules_total",
            "simulated array energy", energyJoules);
    counter("mouse_serve_outage_stall_seconds_total",
            "simulated seconds lost to brownouts",
            outageStallSeconds);
    gauge("mouse_serve_queue_depth",
          "requests admitted but not completed",
          static_cast<double>(queueDepth));
    gauge("mouse_serve_active_workers", "workers inside a drain",
          static_cast<double>(activeWorkers));
    gauge("mouse_serve_uptime_seconds",
          "seconds since the hub was created", uptimeSeconds);
    gauge("mouse_serve_window_throughput_per_second",
          "rolling-window completion rate", windowThroughputPerS);
    gauge("mouse_serve_window_batch_occupancy",
          "rolling-window used/offered column-slot ratio",
          windowOccupancy);
    gauge("mouse_serve_window_energy_per_request_joules",
          "rolling-window energy per completed request",
          windowEnergyPerRequestJ);
    auto quantiles = [&p](const char *name, const char *help,
                          const LatencyQuantiles &q) {
        p += "# HELP ";
        p += name;
        p += " ";
        p += help;
        p += "\n# TYPE ";
        p += name;
        p += " summary\n";
        p += std::string(name) + "{quantile=\"0.5\"} " +
             num(q.p50) + "\n";
        p += std::string(name) + "{quantile=\"0.95\"} " +
             num(q.p95) + "\n";
        p += std::string(name) + "{quantile=\"0.99\"} " +
             num(q.p99) + "\n";
        p += std::string(name) + "_count " +
             std::to_string(q.count) + "\n";
    };
    quantiles("mouse_serve_host_latency_seconds",
              "rolling-window admission-to-completion latency",
              hostLatency);
    quantiles("mouse_serve_sim_latency_seconds",
              "rolling-window simulated pass latency", simLatency);
    return p;
}

std::optional<MetricsSnapshot>
MetricsSnapshot::fromJson(const std::string &text)
{
    const std::optional<json::Value> doc = json::parse(text);
    if (!doc) {
        return std::nullopt;
    }
    const json::Value none;
    const auto member = [&none](const json::Value &obj,
                                const char *key) -> const json::Value & {
        const json::Value *v = obj.find(key);
        return v != nullptr ? *v : none;
    };
    // Every field is required: a number for a double, an exact
    // in-range integer for a count.
    bool ok = true;
    const auto read = [&](const json::Value &obj, const char *key,
                          auto &out) {
        using T = std::remove_reference_t<decltype(out)>;
        const json::Value &v = member(obj, key);
        if constexpr (std::is_floating_point_v<T>) {
            ok = ok && v.kind == json::Kind::kNumber;
            out = v.number;
        } else {
            constexpr auto hi = static_cast<std::int64_t>(
                std::min<std::uint64_t>(std::numeric_limits<T>::max(),
                                        json::kMaxExactInteger));
            const auto n =
                json::integer(v, std::numeric_limits<T>::min(), hi);
            ok = ok && n.has_value();
            out = static_cast<T>(n.value_or(0));
        }
    };

    double version = 0.0;
    read(*doc, "metrics_schema", version);
    const json::Value &life = member(*doc, "lifetime");
    const json::Value &window = member(*doc, "window");
    MetricsSnapshot s;
    read(*doc, "uptime_s", s.uptimeSeconds);
    read(*doc, "window_s", s.windowSeconds);
    read(life, "submitted", s.submitted);
    read(life, "completed", s.completed);
    read(life, "batches", s.batches);
    read(life, "queue_depth", s.queueDepth);
    read(life, "active_workers", s.activeWorkers);
    read(life, "slots_total", s.slotsTotal);
    read(life, "slots_used", s.slotsUsed);
    read(life, "outages", s.outages);
    read(life, "stall_warnings", s.stallWarnings);
    read(life, "sim_seconds", s.simSeconds);
    read(life, "energy_j", s.energyJoules);
    read(life, "outage_stall_s", s.outageStallSeconds);
    read(life, "throughput_per_s", s.throughputPerS);
    read(window, "completed", s.windowCompleted);
    read(window, "batches", s.windowBatches);
    read(window, "throughput_per_s", s.windowThroughputPerS);
    read(window, "batch_occupancy", s.windowOccupancy);
    read(window, "energy_per_request_j", s.windowEnergyPerRequestJ);
    read(window, "outage_stall_s", s.windowOutageStallSeconds);
    for (const auto &[key, q] : {std::pair{"host_latency_s", &s.hostLatency},
                                 std::pair{"sim_latency_s", &s.simLatency}}) {
        const json::Value &latency = member(window, key);
        read(latency, "count", q->count);
        read(latency, "p50", q->p50);
        read(latency, "p95", q->p95);
        read(latency, "p99", q->p99);
    }
    if (!ok || version != schema::kMetricsSchemaVersion) {
        return std::nullopt;
    }
    return s;
}

// -- StallWatchdog ----------------------------------------------------

const char *
StallReport::kindName() const
{
    switch (kind) {
      case Kind::kIdleQueue:
        return "idle_queue";
      case Kind::kStuckDrain:
        return "stuck_drain";
    }
    return "?";
}

std::string
StallReport::toJson() const
{
    std::string j = "{\"stall\":\"";
    j += kindName();
    j += "\",\"stalled_s\":" + num(stalledSeconds);
    j += ",\"queue_depth\":" + std::to_string(queueDepth);
    j += ",\"completed\":" + std::to_string(completed);
    j += ",\"batches\":" + std::to_string(batches);
    j += ",\"active_workers\":" + std::to_string(activeWorkers);
    j += "}";
    return j;
}

StallWatchdog::StallWatchdog(MetricsHub &hub,
                             double noProgressSeconds)
    : hub_(hub), threshold_(noProgressSeconds)
{
    mouse_assert(threshold_ > 0.0,
                 "watchdog threshold must be positive");
}

StallWatchdog::~StallWatchdog()
{
    stop();
}

std::optional<StallReport>
StallWatchdog::check(double nowSeconds)
{
    const MetricsSnapshot s = hub_.snapshot();
    const std::uint64_t progress = s.completed + s.batches;
    if (!seeded_ || progress != lastProgress_) {
        seeded_ = true;
        lastProgress_ = progress;
        lastProgressAt_ = nowSeconds;
        reported_ = false;
        return std::nullopt;
    }
    if (s.queueDepth <= 0) {
        // Nothing owed: an idle service is not a stalled one.
        lastProgressAt_ = nowSeconds;
        reported_ = false;
        return std::nullopt;
    }
    if (reported_ || nowSeconds - lastProgressAt_ < threshold_) {
        return std::nullopt;
    }
    reported_ = true;
    StallReport r;
    r.kind = s.activeWorkers > 0 ? StallReport::Kind::kStuckDrain
                                 : StallReport::Kind::kIdleQueue;
    r.stalledSeconds = nowSeconds - lastProgressAt_;
    r.queueDepth = s.queueDepth;
    r.completed = s.completed;
    r.batches = s.batches;
    r.activeWorkers = s.activeWorkers;
    return r;
}

void
StallWatchdog::start(double pollSeconds,
                     std::function<void(const StallReport &)> onStall)
{
    mouse_assert(!running_.load(), "watchdog already started");
    running_.store(true);
    poller_ = std::thread([this, pollSeconds,
                           cb = std::move(onStall)]() {
        while (running_.load(std::memory_order_relaxed)) {
            if (const auto r = check(hub_.now())) {
                hub_.recordStallWarning();
                if (cb) {
                    cb(*r);
                }
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double>(pollSeconds));
        }
    });
}

void
StallWatchdog::stop()
{
    if (running_.exchange(false) && poller_.joinable()) {
        poller_.join();
    }
}

} // namespace mouse::obs
