/**
 * @file
 * Baseline matrix: MOUSE vs the intermittent-MCU schemes vs SONIC
 * across power sources — the Figure-9-style cross-system comparison
 * (docs/BASELINES.md).
 *
 * One SweepGrid enumerates (benchmark x scheme x source x platform)
 * through the parallel ExperimentRunner, so every system runs under
 * the *same* harvesting environments.  A conformance section then
 * pushes each MCU scheme through a seeded fault-injection campaign
 * (inject/mcu_campaign.hh) and embeds the verdict counts: a scheme
 * that ever corrupts state fails the bench.
 *
 * The JSON report deliberately carries no wall clock or thread
 * count, so `--threads 1` and `--threads 4` must emit byte-identical
 * documents — CI diffs them.
 *
 *   bench_baseline_matrix [--threads N] [--json] [--small]
 *                         [--bench-out PATH]
 *
 * --small trims the matrix to one benchmark (the CI smoke size).
 * --bench-out writes a google-benchmark-shaped document whose
 * items_per_second is *simulated* inferences per simulated second
 * (1 / total_time_s) — deterministic, so it feeds
 * tools/check_bench_regression.py without run-to-run noise.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exp/names.hh"
#include "exp/runner.hh"
#include "inject/mcu_campaign.hh"

using namespace mouse;

namespace
{

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Deterministic matrix document: schema + axes + per-point stats +
 *  conformance campaigns, no wall_seconds / threads. */
std::string
matrixJson(const exp::SweepGrid &grid, const exp::SweepResult &res,
           const std::vector<inject::McuCampaignReport> &conf)
{
    std::string j = "{";
    j += "\"schema\":" + std::to_string(kResultSchemaVersion);
    j += ",\"matrix\":{\"benchmarks\":[";
    for (std::size_t i = 0; i < grid.benchmarks.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "\"" + jsonEscape(grid.benchmarks[i].name) + "\"";
    }
    j += "],\"schemes\":[";
    for (std::size_t i = 0; i < grid.schemes.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "\"" + jsonEscape(grid.schemes[i]) + "\"";
    }
    j += "],\"sources\":[";
    for (std::size_t i = 0; i < grid.sources.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "\"" + jsonEscape(grid.sources[i].name()) + "\"";
    }
    j += "],\"platforms\":[";
    for (std::size_t i = 0; i < grid.platforms.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "\"" + jsonEscape(grid.platforms[i]) + "\"";
    }
    j += "]},\"points\":[";
    for (std::size_t i = 0; i < res.points.size(); ++i) {
        const RunResult &r = res.points[i];
        if (i > 0) {
            j += ",";
        }
        j += "{\"index\":" + std::to_string(r.meta.index);
        j += ",\"benchmark\":\"" + jsonEscape(r.meta.benchmark) +
             "\"";
        j += ",\"system\":\"" + jsonEscape(r.meta.system) + "\"";
        j += ",\"scheme\":\"" + jsonEscape(r.meta.scheme) + "\"";
        j += ",\"source\":\"" + jsonEscape(r.meta.source) + "\"";
        j += ",\"platform\":\"" + jsonEscape(r.meta.platform) + "\"";
        j += ",\"power_w\":" + num(r.meta.power);
        j += ",\"seed\":" + std::to_string(r.meta.seed);
        j += ",\"stats\":" + toJson(r.stats);
        j += "}";
    }
    j += "],\"conformance\":[";
    for (std::size_t i = 0; i < conf.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += conf[i].toJson();
    }
    j += "]}";
    return j;
}

/** The scheme selector with ':' replaced by '-': colons delimit the
 *  NAME:FLOOR / FAST:SLOW syntax of check_bench_regression.py. */
std::string
benchToken(const std::string &selector)
{
    std::string out = selector;
    for (char &c : out) {
        if (c == ':') {
            c = '-';
        }
    }
    return out.empty() ? "mouse" : out;
}

/** google-benchmark-shaped document over *simulated* throughput. */
std::string
benchReport(const exp::SweepResult &res)
{
    std::string j = "{\"context\":{\"executable\":"
                    "\"bench_baseline_matrix\"},\"benchmarks\":[";
    for (std::size_t i = 0; i < res.points.size(); ++i) {
        const RunResult &r = res.points[i];
        if (i > 0) {
            j += ",";
        }
        const std::string name =
            "baseline_matrix/" + r.meta.benchmark + "/" +
            benchToken(r.meta.scheme.empty()
                           ? r.meta.system
                           : r.meta.system + "-" + r.meta.scheme) +
            "/" + r.meta.source;
        j += "{\"name\":\"" + jsonEscape(name) + "\"";
        j += ",\"run_type\":\"iteration\",\"iterations\":1";
        j += ",\"time_unit\":\"ns\"";
        j += ",\"items_per_second\":" +
             num(1.0 / r.stats.totalTime());
        j += "}";
    }
    j += "]}";
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned threads = 1;
    bool json = false;
    bool small = false;
    const char *bench_out = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--threads") && i + 1 < argc) {
            threads = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--json")) {
            json = true;
        } else if (!std::strcmp(argv[i], "--small")) {
            small = true;
        } else if (!std::strcmp(argv[i], "--bench-out") &&
                   i + 1 < argc) {
            bench_out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_baseline_matrix [--threads N] "
                         "[--json] [--small] [--bench-out PATH]\n");
            return 2;
        }
    }

    // SVM MNIST and SVM HAR are the benchmarks every system can run
    // (SONIC's calibration covers exactly these two).
    const auto &all = exp::paperBenchmarks();
    exp::SweepGrid grid;
    grid.techs = {TechConfig::ModernStt};
    grid.benchmarks = small
                          ? std::vector<exp::Benchmark>{all[2]}
                          : std::vector<exp::Benchmark>{all[0],
                                                        all[2]};
    grid.schemes = {"mouse",     "mcu:bec",    "mcu:odab",
                    "mcu:clank", "mcu:oracle", "sonic"};
    grid.sources = {
        SourceSpec::constant(60e-6),
        SourceSpec::corpusTrace("solar-day-night"),
        // 30 % duty square wave, 200 uW mean: droughts guaranteed.
        SourceSpec::square(0.01, 0.3, 200e-6),
    };
    grid.platforms = {"mementos"};

    const exp::ExperimentRunner runner(threads);
    const exp::SweepResult res = runner.run(grid);
    for (const RunResult &r : res.points) {
        if (!r.ok()) {
            std::fprintf(stderr, "invalid point %zu: %s\n",
                         r.meta.index, runErrorMessage(r.error));
            return 2;
        }
    }

    // Conformance: every MCU scheme through the seeded
    // fault-injection campaign; corruption fails the bench.
    const auto workload = inject::makeCampaignWorkload("gates");
    if (!workload) {
        std::fprintf(stderr, "missing campaign workload 'gates'\n");
        return 2;
    }
    std::vector<inject::McuCampaignReport> conf;
    for (const char *scheme : {"bec", "odab", "clank", "oracle"}) {
        conf.push_back(inject::runMcuCampaign(
            *workload, *mcu::makeEhScheme(scheme)));
        if (!conf.back().clean()) {
            std::fprintf(stderr,
                         "scheme %s corrupted state in %llu "
                         "schedule(s)\n",
                         scheme,
                         static_cast<unsigned long long>(
                             conf.back().mismatches));
            return 2;
        }
    }

    if (bench_out != nullptr) {
        std::FILE *f = std::fopen(bench_out, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", bench_out);
            return 2;
        }
        std::fprintf(f, "%s\n", benchReport(res).c_str());
        std::fclose(f);
    }

    if (json) {
        std::printf("%s\n", matrixJson(grid, res, conf).c_str());
        return 0;
    }

    std::printf("Baseline matrix: %zu benchmarks x %zu schemes x "
                "%zu sources = %zu points\n\n",
                grid.benchmarks.size(), grid.schemes.size(),
                grid.sources.size(), res.points.size());
    std::printf("%-18s %-12s %-16s %10s %14s %14s %10s\n",
                "benchmark", "scheme", "source", "mean uW",
                "latency (s)", "energy (uJ)", "outages");
    for (const RunResult &r : res.points) {
        const std::string scheme =
            r.meta.scheme.empty()
                ? r.meta.system
                : r.meta.system + ":" + r.meta.scheme;
        std::printf("%-18s %-12s %-16s %10.1f %14.6f %14.2f %10llu\n",
                    r.meta.benchmark.c_str(), scheme.c_str(),
                    r.meta.source.c_str(), r.meta.power * 1e6,
                    r.stats.totalTime(),
                    r.stats.totalEnergy() * 1e6,
                    static_cast<unsigned long long>(
                        r.stats.outages));
    }
    std::printf("\nConformance (workload 'gates'):\n");
    for (const auto &c : conf) {
        std::printf("  mcu:%-8s %4llu schedules, %6llu replays, "
                    "%s\n",
                    c.scheme.c_str(),
                    static_cast<unsigned long long>(c.points),
                    static_cast<unsigned long long>(c.replays),
                    c.clean() ? "clean" : "CORRUPTED");
    }
    std::fprintf(stderr, "(%zu points in %.1f ms on %u threads)\n",
                 res.points.size(), res.wallSeconds * 1e3,
                 res.threads);
    return 0;
}
