/**
 * @file
 * Serving saturation sweep: offered load vs sustained throughput.
 *
 * Drives serve::InferenceService with the demo BNN / SVM classifiers
 * under increasing offered load (requests admitted per drain window)
 * and reports, per load point, the sustained classification rate on
 * the host clock plus p50/p99 admission-to-completion latency.  Low
 * offered load leaves column slots idle (partial batches); once the
 * load saturates a full gate pass, throughput plateaus at the
 * word-parallel packing limit.
 *
 * Each load point is the median of kRepetitions drains of the same
 * seeded requests: one drain swung by about 30 % from run to run.
 *
 * The report is google-benchmark-shaped JSON ({"context":{...},
 * "benchmarks":[{"name","items_per_second",...}]}) so
 * tools/check_bench_regression.py can gate it against
 * bench/baselines/BENCH_serve_saturation.json and against the
 * absolute 1e5 classifications/sec acceptance floor.  The context
 * records the CPU count and the build type, like bench_sim_throughput.
 *
 * Usage:
 *   bench_serve_saturation [--json-out FILE] [--workers N]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "serve/demo.hh"
#include "serve/service.hh"

namespace
{

using namespace mouse;

/** Drains measured per load point; the report holds their median. */
constexpr unsigned kRepetitions = 5;

struct LoadPoint
{
    std::string name;
    std::size_t requests = 0;
    std::size_t batches = 0;
    double drainSeconds = 0.0;
    double itemsPerSecond = 0.0;
    double simItemsPerSecond = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
};

double
percentileOf(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

serve::ServiceConfig
serviceConfig(unsigned workers)
{
    serve::ServiceConfig cfg;
    cfg.engine.tech = TechConfig::ProjectedStt;
    cfg.engine.array.tileRows = 512;
    cfg.engine.array.tileCols = 1024;
    cfg.engine.array.numDataTiles = 1;
    cfg.engine.array.numInstructionTiles = 4096;
    cfg.workers = workers;
    return cfg;
}

/** Runs one measured drain window of @p n requests and records it. */
LoadPoint
measurePoint(serve::InferenceService &svc, const std::string &mix,
             serve::ModelId bnn, serve::ModelId svm, std::size_t n,
             std::uint64_t seed)
{
    Rng rng(seed);
    const serve::RequestId first = svc.completed();
    for (std::size_t i = 0; i < n; ++i) {
        serve::ModelId m = bnn;
        if (mix == "svm") {
            m = svm;
        } else if (mix == "mixed") {
            m = (rng.below(2) != 0) ? svm : bnn;
        }
        svc.submit(m, serve::randomInput(rng, svc.model(m)));
    }
    const std::size_t batchesBefore = svc.batchesRun();
    const double secs = svc.drain();

    LoadPoint p;
    p.name = "BM_ServeSaturation/" + mix + "/" + std::to_string(n);
    p.requests = n;
    p.batches = svc.batchesRun() - batchesBefore;
    p.drainSeconds = secs;
    p.itemsPerSecond =
        secs > 0.0 ? static_cast<double>(n) / secs : 0.0;
    std::vector<double> host;
    double simTime = 0.0;
    host.reserve(n);
    for (serve::RequestId id = first; id < first + n; ++id) {
        host.push_back(svc.result(id).hostSeconds);
    }
    // Sim time folds per batch, not per request: sum each carrying
    // pass once via the batch-size-weighted per-request share.
    for (serve::RequestId id = first; id < first + n; ++id) {
        const serve::ClassifyResult &r = svc.result(id);
        simTime += r.simSeconds / r.batchSize;
    }
    p.simItemsPerSecond =
        simTime > 0.0 ? static_cast<double>(n) / simTime : 0.0;
    p.p50 = percentileOf(host, 0.50);
    p.p99 = percentileOf(host, 0.99);
    return p;
}

/** The median of kRepetitions drains of @p n requests: each host
 *  quantity is its own median (the simulated ones never vary). */
LoadPoint
medianPoint(serve::InferenceService &svc, const std::string &mix,
            serve::ModelId bnn, serve::ModelId svm, std::size_t n,
            std::uint64_t seed)
{
    std::vector<LoadPoint> reps;
    for (unsigned r = 0; r < kRepetitions; ++r) {
        reps.push_back(measurePoint(svc, mix, bnn, svm, n, seed));
    }
    const auto median = [&reps](double LoadPoint::*field) {
        std::vector<double> v;
        for (const LoadPoint &p : reps) {
            v.push_back(p.*field);
        }
        return percentileOf(std::move(v), 0.5);
    };
    LoadPoint p = reps.front();
    p.drainSeconds = median(&LoadPoint::drainSeconds);
    p.itemsPerSecond = median(&LoadPoint::itemsPerSecond);
    p.p50 = median(&LoadPoint::p50);
    p.p99 = median(&LoadPoint::p99);
    return p;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.6e", v);
    return buf;
}

std::string
toJson(const std::vector<LoadPoint> &points, unsigned workers)
{
    char date[32] = "unknown";
    // mouse-lint: allow(host-clock) -- report context date, like
    // google-benchmark's context.date; never feeds simulated numbers.
    const std::time_t now = std::time(nullptr);
    if (std::tm tm{}; gmtime_r(&now, &tm) != nullptr) {
        std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &tm);
    }
    std::string j = "{\"context\":{";
    j += "\"date\":\"" + std::string(date) + "\"";
    j += ",\"executable\":\"bench_serve_saturation\"";
    j += ",\"num_cpus\":" +
         std::to_string(std::thread::hardware_concurrency());
    j += ",\"mouse_build_type\":\"" MOUSE_BUILD_TYPE "\"";
    j += ",\"workers\":" + std::to_string(workers);
    j += ",\"repetitions\":" + std::to_string(kRepetitions);
    j += ",\"aggregate\":\"median\"";
    j += "},\"benchmarks\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const LoadPoint &p = points[i];
        if (i > 0) {
            j += ",";
        }
        j += "{\"name\":\"" + p.name + "\"";
        j += ",\"run_type\":\"iteration\"";
        j += ",\"iterations\":1";
        j += ",\"real_time\":" + num(p.drainSeconds * 1e9);
        j += ",\"cpu_time\":" + num(p.drainSeconds * 1e9);
        j += ",\"time_unit\":\"ns\"";
        j += ",\"items_per_second\":" + num(p.itemsPerSecond);
        j += ",\"sim_items_per_second\":" + num(p.simItemsPerSecond);
        j += ",\"p50_latency_s\":" + num(p.p50);
        j += ",\"p99_latency_s\":" + num(p.p99);
        j += ",\"requests\":" + std::to_string(p.requests);
        j += ",\"batches\":" + std::to_string(p.batches);
        j += "}";
    }
    j += "]}";
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string jsonOut;
    unsigned workers = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json-out" && i + 1 < argc) {
            jsonOut = argv[++i];
        } else if (a == "--workers" && i + 1 < argc) {
            workers = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else {
            std::fprintf(stderr,
                         "usage: %s [--json-out FILE]"
                         " [--workers N]\n",
                         argv[0]);
            return 2;
        }
    }
    if (workers < 1) {
        workers = 1;
    }

    std::vector<LoadPoint> points;
    const char *mixes[] = {"bnn", "svm", "mixed"};
    for (const char *mix : mixes) {
        serve::InferenceService svc(serviceConfig(workers));
        const serve::ModelId bnn = svc.addModel(serve::demoBnn(1));
        const serve::ModelId svm = svc.addModel(serve::demoSvm(2));
        // Warm-up drain: engine construction (gate-library solve)
        // and first program deployment stay out of the measurement.
        {
            Rng rng(99);
            svc.submit(bnn, serve::randomInput(rng, svc.model(bnn)));
            svc.submit(svm, serve::randomInput(rng, svc.model(svm)));
            svc.drain();
        }
        const std::size_t loads[] = {64, 512, 4096};
        for (std::size_t n : loads) {
            points.push_back(medianPoint(svc, mix, bnn, svm, n, 7 + n));
        }
        if (std::strcmp(mix, "bnn") == 0) {
            // Headline saturated point for the regression gate.
            points.push_back(medianPoint(svc, mix, bnn, svm, 16384, 7));
            // The same load with request span tracing on, so the
            // tracing tax stays visible next to the zero-cost off
            // path the gate protects.
            svc.setTracing(true);
            points.push_back(
                medianPoint(svc, "bnn_obs", bnn, svm, 4096, 7));
            svc.setTracing(false);
        }
    }

    std::printf("%-34s %12s %12s %10s %10s\n", "load point",
                "items/s", "sim items/s", "p50 (us)", "p99 (us)");
    for (const LoadPoint &p : points) {
        std::printf("%-34s %12.0f %12.0f %10.1f %10.1f\n",
                    p.name.c_str(), p.itemsPerSecond,
                    p.simItemsPerSecond, p.p50 * 1e6, p.p99 * 1e6);
    }

    const std::string j = toJson(points, workers);
    if (!jsonOut.empty()) {
        std::FILE *fp = std::fopen(jsonOut.c_str(), "wb");
        if (!fp) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         jsonOut.c_str());
            return 2;
        }
        std::fwrite(j.data(), 1, j.size(), fp);
        std::fclose(fp);
    } else {
        std::printf("%s\n", j.c_str());
    }
    return 0;
}
