/**
 * @file
 * mouse_perfbench: one run of one benchmark workload.
 *
 *   mouse_perfbench --workload paper_sweep|harvest_matrix|serve_mixed
 *                   [--seed N] [--seconds S] [--trace 0|1]
 *                   [--threads N] [--setup-only] [--spawn-ns NS]
 *                   [--trace-out PATH] [--commit SHA]
 *
 * Prints the run context, the input and result digests, a metric
 * table (value, unit, sample count), any failed output check, and as
 * its last line one JSON object: {"correct", "attempted", "failed",
 * "metrics"}.  --trace 0 reports the end-to-end metrics it measured,
 * --trace 1 the per-layer ones.  Exits 1 when an output check fails, 2
 * on a usage error and 3 when the build is not optimised.
 * perfbench/run.py is the usual entry point: it builds this program
 * first, and BENCHMARK.json is the one list of metric names and units
 * that it holds this program's output to.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>

#include "harness/workloads.hh"

using namespace perfbench;

namespace
{

/** Peak resident set of this process, in MB. */
double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Worker threads of @p workload unless --threads says otherwise.
 *  The serving workload leaves one core to its load generator and the
 *  host: with an engine on each of 4 shared cores, its saturated
 *  throughput spread twice as widely from run to run as with 3. */
unsigned
defaultThreads(const std::string &workload, unsigned hw)
{
    return std::min(workload == "serve_mixed" ? 3u : 4u, hw);
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "mouse_perfbench: %s\n"
                 "usage: mouse_perfbench --workload "
                 "paper_sweep|harvest_matrix|serve_mixed [--seed N] "
                 "[--seconds S] [--trace 0|1] [--threads N] "
                 "[--setup-only] [--spawn-ns NS] [--trace-out PATH] "
                 "[--commit SHA]\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *s, std::uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
        return false;
    }
    *out = v;
    return true;
}

std::string
utcNow()
{
    const std::time_t t = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&t, &tm);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

bool
optimisedBuild()
{
#if defined(__OPTIMIZE__)
    const std::string type = PERFBENCH_BUILD_TYPE;
    return type == "Release" || type == "RelWithDebInfo" ||
           type == "MinSizeRel";
#else
    return false;
#endif
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.start = std::chrono::steady_clock::now();
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool hasValue = i + 1 < argc;
        std::uint64_t v = 0;
        if (a == "--workload" && hasValue) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && hasValue) {
            if (!parseUnsigned(argv[++i], &opt.seed)) {
                return usage("--seed takes a non-negative integer");
            }
        } else if (a == "--seconds" && hasValue) {
            char *end = nullptr;
            opt.seconds = std::strtod(argv[++i], &end);
            if (*end != '\0' || !(opt.seconds > 0.0) ||
                opt.seconds > 3600.0) {
                return usage("--seconds takes a number in (0, 3600]");
            }
        } else if (a == "--trace" && hasValue) {
            const std::string t = argv[++i];
            if (t != "0" && t != "1") {
                return usage("--trace takes 0 or 1");
            }
            opt.trace = t == "1";
        } else if (a == "--threads" && hasValue) {
            if (!parseUnsigned(argv[++i], &v) || v == 0 || v > hw) {
                return usage("--threads takes 1..nproc");
            }
            opt.threads = static_cast<unsigned>(v);
        } else if (a == "--setup-only") {
            opt.setupOnly = true;
        } else if (a == "--spawn-ns" && hasValue) {
            if (!parseUnsigned(argv[++i], &v)) {
                return usage("--spawn-ns takes a CLOCK_MONOTONIC "
                             "time in ns");
            }
            const std::chrono::steady_clock::time_point spawn{
                std::chrono::nanoseconds(v)};
            // Only trust a launcher timestamp that precedes main()
            // by a plausible process start-up time.
            if (spawn <= opt.start &&
                opt.start - spawn < std::chrono::seconds(10)) {
                opt.start = spawn;
            }
        } else if (a == "--trace-out" && hasValue) {
            opt.traceOut = argv[++i];
        } else if (a == "--commit" && hasValue) {
            commit = argv[++i];
        } else {
            return usage(("unknown or incomplete argument '" + a + "'")
                             .c_str());
        }
    }
    if (opt.workload != "paper_sweep" &&
        opt.workload != "harvest_matrix" &&
        opt.workload != "serve_mixed") {
        return usage("--workload must be paper_sweep, harvest_matrix "
                     "or serve_mixed");
    }
    if (opt.threads == 0) {
        opt.threads = defaultThreads(opt.workload, hw);
    }
    if (!optimisedBuild()) {
        std::fprintf(stderr,
                     "mouse_perfbench: refusing to measure a "
                     "non-optimised build (CMAKE_BUILD_TYPE '%s'); "
                     "configure with -DCMAKE_BUILD_TYPE=RelWithDebInfo "
                     "or Release\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    Outcome out;
    if (opt.workload == "serve_mixed") {
        runServeWorkload(opt, out);
    } else {
        runSweepWorkload(opt, out);
    }
    if (opt.setupOnly) {
        std::printf("SETUP %s\n", num(out.setupSeconds).c_str());
        return 0;
    }

    std::printf(
        "context: {\"date\":%s,\"commit\":%s,\"build_type\":%s,"
        "\"compiler\":%s,\"nproc\":%u,\"threads\":%u,"
        "\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d}\n",
        jsonString(utcNow()).c_str(), jsonString(commit).c_str(),
        jsonString(PERFBENCH_BUILD_TYPE).c_str(),
        jsonString(__VERSION__).c_str(), hw, opt.threads,
        jsonString(opt.workload).c_str(),
        static_cast<unsigned long long>(opt.seed),
        num(opt.seconds).c_str(), opt.trace ? 1 : 0);
    std::printf("input digest:  %s\n", out.inputDigest.c_str());
    std::printf("result digest: %s\n", out.resultDigest.c_str());
    for (const std::string &n : out.notes) {
        std::printf("%s\n", n.c_str());
    }

    if (!opt.trace) {
        out.report.add("setup_s", out.setupSeconds, "s", 1,
                       "this process; run.py reports the median of "
                       "several");
        out.report.add("peak_rss_mb", peakRssMb(), "MB", 1);
    }
    const double failedFrac =
        out.attempted > 0 ? static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted)
                          : 1.0;
    std::printf("metrics (%s):\n%s", opt.trace ? "per layer" : "end to end",
                out.report.table().c_str());
    std::printf("  %-26s %16.6g %-8s n=%llu\n", "failed_frac", failedFrac,
                "fraction",
                static_cast<unsigned long long>(out.attempted));
    for (const std::string &p : out.problems) {
        std::printf("CHECK FAILED: %s\n", p.c_str());
    }
    const bool correct = out.correct() && out.attempted > 0;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(
                    std::max<std::uint64_t>(out.attempted, 1)),
                static_cast<unsigned long long>(out.failed),
                out.report.json().c_str());
    return correct ? 0 : 1;
}
