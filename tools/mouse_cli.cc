/**
 * @file
 * mouse_cli — command-line driver for the MOUSE simulator.
 *
 * Subcommands:
 *   info    [--tech T] [--json]         device + gate operating points
 *   bench   NAME [--tech T] [--power W] [--continuous] [--json]
 *                                       run one paper benchmark
 *   sweep   NAME [--tech T] [--threads N] [--json]
 *                                       Figure-9-style power sweep on
 *                                       the parallel experiment runner
 *   analyze NAME [--tech T]             static forward-progress report
 *   area    MB   [--tech T]             Table-III area query
 *   inject  [--workload W] [...]        fault-injection campaign
 *                                       (docs/FAULT_INJECTION.md);
 *                                       --replay PATH re-runs a saved
 *                                       reproducer
 *   serve   [--requests N] [...]        batched-inference serving
 *                                       driver (docs/SERVING.md);
 *                                       --stream PATH replays a
 *                                       request stream instead of
 *                                       synthetic load; request
 *                                       spans via --trace-out,
 *                                       harvested power via
 *                                       --harvest-power
 *   list                                benchmark, tech, and injection
 *                                       workload names
 *
 * Tech names: modern-stt (default), projected-stt, she.
 * Benchmark names: mnist, mnist-bin, har, adult, finn, fpbnn.
 *
 * Every command validates its flags strictly against one table of
 * CommandSpecs (kCommands): a flag no command knows and a flag that
 * belongs to a different command both exit 2 with a usage hint, so
 * typos never silently run a default configuration.
 * Exit codes: 0 success (inject: campaign clean / replay did not
 * reproduce a failure), 1 inject found or reproduced mismatches,
 * 2 usage or I/O error.
 *
 * --json prints machine-readable RunResult/SweepResult serializations
 * so benches and CI can diff results without scraping tables.  Sweep
 * point results are byte-identical for any --threads value.
 *
 * bench/sweep also take telemetry outputs (docs/OBSERVABILITY.md):
 *   --stats-out PATH     stat-registry tree (JSON; .csv gives a flat
 *                        table)
 *   --trace-out PATH     Chrome trace_event JSON (load in Perfetto or
 *                        chrome://tracing)
 *   --waveform-out PATH  capacitor-voltage / harvested-power CSV
 *   --json-out PATH      the --json document, written to a file
 * Output paths are validated (opened) before any simulation runs; an
 * unwritable path exits 2 immediately.  A live progress/ETA line is
 * shown on stderr when it is a terminal, or when --progress is given;
 * stdout stays byte-identical either way.
 */

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "baseline/selector.hh"
#include "common/rng.hh"
#include "energy/area_model.hh"
#include "harvest/platform.hh"
#include "harvest/power_trace.hh"
#include "harvest/trace_corpus.hh"
#include "exp/names.hh"
#include "exp/runner.hh"
#include "inject/campaign.hh"
#include "inject/replay.hh"
#include "serve/demo.hh"
#include "serve/service.hh"
#include "sim/termination.hh"

using namespace mouse;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mouse_cli <command> [args]\n"
        "  info    [--tech T] [--json]\n"
        "  bench   NAME [--tech T] [--power WATTS | --power-trace "
        "SRC]\n"
        "          [--platform P] [--scheme SEL] [--continuous] "
        "[--json]\n"
        "  sweep   NAME [--tech T] [--threads N] [--power-trace SRC]\n"
        "          [--platform P] [--scheme SEL] [--json]\n"
        "  analyze NAME [--tech T]\n"
        "  area    MB [--tech T]\n"
        "  inject  [--workload W] [--sonic-window N] [--no-journal]\n"
        "          [--random N] [--max-outages N] [--seed S]\n"
        "          [--threads N] [--report PATH] [--json]\n"
        "  inject  --replay PATH [--json]\n"
        "  serve   [--tech T] [--model bnn|svm|mixed] [--requests N]\n"
        "          [--batch N] [--threads N] [--seed S]\n"
        "          [--stream PATH] [--json] [--trace-out PATH]\n"
        "          [--harvest-power WATTS] [--harvest-cap FARADS]\n"
        "          [--power-trace SRC] [--platform P]\n"
        "  list\n"
        "bench/sweep outputs:\n"
        "  --stats-out PATH     stat registry (JSON, or CSV if PATH "
        "ends .csv)\n"
        "  --trace-out PATH     Chrome trace_event JSON "
        "(Perfetto-loadable)\n"
        "  --waveform-out PATH  capacitor voltage / harvest power "
        "CSV\n"
        "  --json-out PATH      --json document written to PATH\n"
        "  --progress           force the stderr progress/ETA line\n"
        "tech: modern-stt | projected-stt | she\n"
        "benchmarks: mnist mnist-bin har adult finn fpbnn\n"
        "inject workloads: see `mouse_cli list`\n"
        "--power-trace SRC: a corpus trace name (solar-day-night,\n"
        "  rf-bursty, piezo-impulse) or a trace_schema-1 JSON file;\n"
        "--platform P: mementos | nvp | batteryless capacitor preset\n"
        "  (docs/HARVESTING.md)\n"
        "--scheme SEL: which system runs the point — mouse | "
        "mcu:bec |\n"
        "  mcu:odab | mcu:clank | mcu:oracle | sonic "
        "(docs/BASELINES.md)\n");
    return 2;
}

/**
 * Write BODY to PATH through a sibling ".tmp" file renamed into
 * place, so a concurrent reader (a tail -f on a --json-out) never
 * sees a torn document.  OutputFile::write() funnels every claimed
 * output through here.
 */
bool
atomicWriteFile(const std::string &path, const std::string &body)
{
    const std::string tmp = path + ".tmp";
    std::FILE *fp = std::fopen(tmp.c_str(), "wb");
    if (!fp) {
        std::fprintf(stderr,
                     "mouse_cli: cannot open '%s' for writing: %s\n",
                     tmp.c_str(), std::strerror(errno));
        return false;
    }
    const std::size_t put = std::fwrite(body.data(), 1, body.size(),
                                        fp);
    const bool flushed = std::fclose(fp) == 0 && put == body.size();
    if (!flushed) {
        std::fprintf(stderr, "mouse_cli: short write to '%s'\n",
                     tmp.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::fprintf(stderr,
                     "mouse_cli: cannot rename '%s' to '%s': %s\n",
                     tmp.c_str(), path.c_str(), std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

/** Parsed common flags. */
struct Options
{
    TechConfig tech = TechConfig::ModernStt;
    Watts power = 60e-6;
    bool continuous = false;
    bool json = false;
    /** Worker threads for sweep; 0 = hardware_concurrency. */
    unsigned threads = 0;
    /** Telemetry output paths; empty means the channel is off. */
    std::string statsOut;
    std::string traceOut;
    std::string waveformOut;
    std::string jsonOut;
    /** Show the stderr progress line even when not a terminal. */
    bool progress = false;
    /** bench/sweep: baseline system/scheme selector
     *  (baseline/selector.hh); empty runs MOUSE. */
    std::string scheme;
    /** inject: campaign workload name (inject/workload.hh). */
    std::string workload = "small-svm";
    /** inject: checkpoint window; 1 = MOUSE's per-cycle protocol,
     *  N > 1 = SONIC-style window of N instructions. */
    unsigned sonicWindow = 1;
    /** inject: model a broken restart path (skip journal replay). */
    bool noJournal = false;
    /** inject: randomized multi-outage schedules appended after the
     *  exhaustive single-cut enumeration. */
    std::size_t randomSchedules = 0;
    /** inject: outages per random schedule (2..N). */
    std::size_t maxOutages = 3;
    /** inject: root seed of the random-schedule derivation. */
    std::uint64_t rootSeed = 1;
    /** inject: campaign report JSON written here when non-empty. */
    std::string reportOut;
    /** inject: replay the artifact/report at this path instead of
     *  running a campaign. */
    std::string replayPath;
    /** serve: synthetic requests to generate (ignored with
     *  --stream). */
    std::size_t requests = 256;
    /** serve: which demo models take load. */
    std::string serveModel = "mixed";
    /** serve: cap on requests per batch; 0 = one full pass. */
    unsigned maxBatch = 0;
    /** serve: request-stream file replayed instead of synthetic
     *  load ("-" reads stdin). */
    std::string streamPath;
    /** serve: harvested-power serving (harvester watts; 0 = wall
     *  power). */
    double harvestPower = 0.0;
    /** serve: buffer-capacitance override for harvested serving
     *  (0 keeps the tech's buffer). */
    double harvestCap = 0.0;
    /** bench/sweep/serve: harvesting scenario — a corpus trace name
     *  or the path of a trace_schema-1 JSON file (empty = off). */
    std::string powerTrace;
    /** bench/sweep/serve: platform preset name (empty = tech
     *  defaults). */
    std::string platformName;
};

/**
 * An output file claimed before the run starts, so a typo'd path
 * fails in milliseconds instead of after a long sweep.
 */
class OutputFile
{
  public:
    OutputFile() = default;
    OutputFile(const OutputFile &) = delete;
    OutputFile &operator=(const OutputFile &) = delete;

    ~OutputFile()
    {
        if (fp_) {
            std::fclose(fp_);
        }
    }

    /** @return false (with a stderr message) if PATH is unwritable. */
    bool
    open(const std::string &path)
    {
        if (path.empty()) {
            return true;
        }
        path_ = path;
        fp_ = std::fopen(path.c_str(), "wb");
        if (!fp_) {
            std::fprintf(stderr,
                         "mouse_cli: cannot open '%s' for writing: "
                         "%s\n",
                         path.c_str(), std::strerror(errno));
            return false;
        }
        return true;
    }

    bool
    wanted() const
    {
        return fp_ != nullptr;
    }

    /** Atomically replace the claimed file with BODY (the open()
     *  probe only reserved the path). */
    void
    write(const std::string &body)
    {
        if (!fp_) {
            return;
        }
        std::fclose(fp_);
        fp_ = nullptr;
        atomicWriteFile(path_, body);
    }

    const std::string &
    path() const
    {
        return path_;
    }

  private:
    std::string path_;
    FILE *fp_ = nullptr;
};

/** The telemetry outputs of one bench/sweep invocation. */
struct Outputs
{
    OutputFile stats;
    OutputFile trace;
    OutputFile waveform;
    OutputFile json;

    /** Claim every requested path; false aborts the command. */
    bool
    open(const Options &opts)
    {
        return stats.open(opts.statsOut) &&
               trace.open(opts.traceOut) &&
               waveform.open(opts.waveformOut) &&
               json.open(opts.jsonOut);
    }

    /** Channels to record, derived from which files were asked for. */
    obs::TraceConfig
    traceConfig() const
    {
        obs::TraceConfig cfg;
        cfg.stats = stats.wanted();
        cfg.events = trace.wanted();
        cfg.waveform = trace.wanted() || waveform.wanted();
        return cfg;
    }

    void
    writeTelemetry(const exp::SweepResult &res)
    {
        if (res.stats) {
            const bool csv =
                stats.path().size() >= 4 &&
                stats.path().compare(stats.path().size() - 4, 4,
                                     ".csv") == 0;
            stats.write(csv ? res.stats->toCsv()
                            : res.stats->toJson() + "\n");
        }
        if (res.trace) {
            trace.write(res.trace->toChromeJson() + "\n");
            waveform.write(res.trace->waveformCsv());
        }
    }
};

/** Throttled stderr progress/ETA line ("12/18 points ... eta 0.4s"). */
class ProgressMeter
{
  public:
    void
    report(std::size_t done, std::size_t total)
    {
        const auto now = std::chrono::steady_clock::now();
        if (done < total && started_ &&
            now - last_ < std::chrono::milliseconds(100)) {
            return;
        }
        started_ = true;
        last_ = now;
        const double secs =
            std::chrono::duration<double>(now - start_).count();
        const double eta =
            done > 0 ? secs * static_cast<double>(total - done) /
                           static_cast<double>(done)
                     : 0.0;
        std::fprintf(stderr,
                     "\r%zu/%zu points (%3.0f%%) eta %5.1fs ", done,
                     total,
                     100.0 * static_cast<double>(done) /
                         static_cast<double>(total ? total : 1),
                     eta);
        if (done >= total) {
            std::fprintf(stderr, "\n");
        }
        std::fflush(stderr);
    }

  private:
    std::chrono::steady_clock::time_point start_ =
        std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point last_{};
    bool started_ = false;
};

bool
progressWanted(const Options &opts)
{
#ifndef _WIN32
    if (isatty(fileno(stderr))) {
        return true;
    }
#endif
    return opts.progress;
}

/** Every flag any command understands.  Membership here decides
 *  whether a rejected flag reads "unknown" or "does not apply". */
constexpr const char *kAllFlags[] = {
    "--tech",         "--power",      "--continuous",
    "--json",         "--threads",    "--stats-out",
    "--trace-out",    "--waveform-out", "--json-out",
    "--progress",     "--workload",   "--sonic-window",
    "--no-journal",   "--random",     "--max-outages",
    "--seed",         "--report",     "--replay",
    "--requests",     "--model",      "--batch",
    "--stream",       "--harvest-power", "--harvest-cap",
    "--power-trace",  "--platform",    "--scheme",
};

/** Flags that are pure switches; every other flag consumes a value. */
constexpr const char *kSwitchFlags[] = {
    "--continuous",
    "--json",
    "--progress",
    "--no-journal",
};

bool
inList(const char *flag, const char *const *list, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (!std::strcmp(flag, list[i])) {
            return true;
        }
    }
    return false;
}

// -- Command table ---------------------------------------------------
//
// One CommandSpec per subcommand: its name, whether it takes a
// positional argument, and exactly which flags it accepts.  Every
// command's strict validation runs through this one table (and
// parseFlags below), so a new subcommand gets "unknown flag" /
// "does not apply" / missing-value handling by adding a row, and the
// behaviors can never drift apart between commands.

/** Declarative shape of one subcommand. */
struct CommandSpec
{
    const char *name;
    /** Name of the required positional argument, or null. */
    const char *positional;
    const char *const *flags;
    std::size_t numFlags;
};

constexpr const char *kInfoFlags[] = {"--tech", "--json"};
constexpr const char *kBenchFlags[] = {
    "--tech",      "--power",        "--continuous",
    "--json",      "--stats-out",    "--trace-out",
    "--waveform-out", "--json-out",  "--progress",
    "--power-trace", "--platform",   "--scheme",
};
constexpr const char *kSweepFlags[] = {
    "--tech",      "--threads",      "--json",
    "--stats-out", "--trace-out",    "--waveform-out",
    "--json-out",  "--progress",     "--power-trace",
    "--platform",  "--scheme",
};
constexpr const char *kAnalyzeFlags[] = {"--tech"};
constexpr const char *kAreaFlags[] = {"--tech"};
constexpr const char *kInjectFlags[] = {
    "--workload",   "--sonic-window", "--no-journal",
    "--random",     "--max-outages",  "--seed",
    "--threads",    "--report",       "--replay",
    "--json",
};
constexpr const char *kServeFlags[] = {
    "--tech",    "--model",     "--requests",  "--batch",
    "--threads", "--seed",      "--stream",    "--json",
    "--json-out", "--stats-out", "--progress", "--trace-out",
    "--harvest-power", "--harvest-cap", "--power-trace",
    "--platform",
};

constexpr CommandSpec kCommands[] = {
    {"info", nullptr, kInfoFlags, std::size(kInfoFlags)},
    {"bench", "NAME", kBenchFlags, std::size(kBenchFlags)},
    {"sweep", "NAME", kSweepFlags, std::size(kSweepFlags)},
    {"analyze", "NAME", kAnalyzeFlags, std::size(kAnalyzeFlags)},
    {"area", "MB", kAreaFlags, std::size(kAreaFlags)},
    {"inject", nullptr, kInjectFlags, std::size(kInjectFlags)},
    {"serve", nullptr, kServeFlags, std::size(kServeFlags)},
    {"list", nullptr, nullptr, 0},
};

const CommandSpec *
findCommand(const std::string &cmd)
{
    for (const CommandSpec &spec : kCommands) {
        if (cmd == spec.name) {
            return &spec;
        }
    }
    return nullptr;
}

/** Strict non-negative integer parse ("--threads needs ..."). */
bool
parseCount(const char *flag, const char *val, std::uint64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long n = std::strtoull(val, &end, 10);
    if (val[0] == '-' || end == val || *end != '\0' ||
        errno == ERANGE) {
        std::fprintf(stderr,
                     "%s needs a non-negative integer, got '%s'\n",
                     flag, val);
        return false;
    }
    out = n;
    return true;
}

/**
 * Parse one command's flags against its CommandSpec.  Only the
 * spec's flags are accepted: a flag no command knows is rejected as
 * unknown, one that belongs to a different command as not applicable
 * — both exit 2 through usage(), so a typo never silently runs a
 * default configuration.
 */
bool
parseFlags(int argc, char **argv, int start, const CommandSpec &spec,
           Options &opts)
{
    for (int i = start; i < argc; ++i) {
        const char *flag = argv[i];
        if (!inList(flag, kAllFlags, std::size(kAllFlags))) {
            std::fprintf(stderr, "unknown flag '%s'\n", flag);
            return false;
        }
        if (!inList(flag, spec.flags, spec.numFlags)) {
            std::fprintf(stderr,
                         "flag '%s' does not apply to '%s'\n", flag,
                         spec.name);
            return false;
        }
        const char *val = nullptr;
        if (!inList(flag, kSwitchFlags, std::size(kSwitchFlags))) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "flag '%s' needs a value\n",
                             flag);
                return false;
            }
            val = argv[++i];
        }
        std::uint64_t n = 0;
        if (!std::strcmp(flag, "--tech")) {
            const auto tech = names::parseTech(val);
            if (!tech) {
                std::fprintf(stderr, "unknown tech '%s'\n", val);
                return false;
            }
            opts.tech = *tech;
        } else if (!std::strcmp(flag, "--power")) {
            char *end = nullptr;
            opts.power = std::strtod(val, &end);
            if (end == val || *end != '\0' || opts.power <= 0.0) {
                std::fprintf(
                    stderr,
                    "--power needs a positive number, got '%s'\n",
                    val);
                return false;
            }
        } else if (!std::strcmp(flag, "--threads")) {
            if (!parseCount(flag, val, n)) {
                return false;
            }
            opts.threads = static_cast<unsigned>(n);
        } else if (!std::strcmp(flag, "--continuous")) {
            opts.continuous = true;
        } else if (!std::strcmp(flag, "--json")) {
            opts.json = true;
        } else if (!std::strcmp(flag, "--stats-out")) {
            opts.statsOut = val;
        } else if (!std::strcmp(flag, "--trace-out")) {
            opts.traceOut = val;
        } else if (!std::strcmp(flag, "--waveform-out")) {
            opts.waveformOut = val;
        } else if (!std::strcmp(flag, "--json-out")) {
            opts.jsonOut = val;
        } else if (!std::strcmp(flag, "--progress")) {
            opts.progress = true;
        } else if (!std::strcmp(flag, "--workload")) {
            opts.workload = val;
        } else if (!std::strcmp(flag, "--sonic-window")) {
            if (!parseCount(flag, val, n)) {
                return false;
            }
            if (n < 1) {
                std::fprintf(stderr,
                             "--sonic-window needs a window >= 1, "
                             "got '%s'\n",
                             val);
                return false;
            }
            opts.sonicWindow = static_cast<unsigned>(n);
        } else if (!std::strcmp(flag, "--no-journal")) {
            opts.noJournal = true;
        } else if (!std::strcmp(flag, "--random")) {
            if (!parseCount(flag, val, n)) {
                return false;
            }
            opts.randomSchedules = n;
        } else if (!std::strcmp(flag, "--max-outages")) {
            if (!parseCount(flag, val, n)) {
                return false;
            }
            if (n < 2) {
                std::fprintf(stderr,
                             "--max-outages needs a count >= 2, "
                             "got '%s'\n",
                             val);
                return false;
            }
            opts.maxOutages = n;
        } else if (!std::strcmp(flag, "--seed")) {
            if (!parseCount(flag, val, n)) {
                return false;
            }
            opts.rootSeed = n;
        } else if (!std::strcmp(flag, "--report")) {
            opts.reportOut = val;
        } else if (!std::strcmp(flag, "--replay")) {
            opts.replayPath = val;
        } else if (!std::strcmp(flag, "--requests")) {
            if (!parseCount(flag, val, n)) {
                return false;
            }
            if (n < 1) {
                std::fprintf(stderr,
                             "--requests needs a count >= 1, got "
                             "'%s'\n",
                             val);
                return false;
            }
            opts.requests = n;
        } else if (!std::strcmp(flag, "--model")) {
            if (std::strcmp(val, "bnn") && std::strcmp(val, "svm") &&
                std::strcmp(val, "mixed")) {
                std::fprintf(stderr,
                             "--model must be bnn, svm, or mixed, "
                             "got '%s'\n",
                             val);
                return false;
            }
            opts.serveModel = val;
        } else if (!std::strcmp(flag, "--batch")) {
            if (!parseCount(flag, val, n)) {
                return false;
            }
            opts.maxBatch = static_cast<unsigned>(n);
        } else if (!std::strcmp(flag, "--stream")) {
            opts.streamPath = val;
        } else if (!std::strcmp(flag, "--harvest-power")) {
            char *end = nullptr;
            opts.harvestPower = std::strtod(val, &end);
            if (end == val || *end != '\0' ||
                opts.harvestPower <= 0.0) {
                std::fprintf(stderr,
                             "--harvest-power needs a positive "
                             "number of watts, got '%s'\n",
                             val);
                return false;
            }
        } else if (!std::strcmp(flag, "--harvest-cap")) {
            char *end = nullptr;
            opts.harvestCap = std::strtod(val, &end);
            if (end == val || *end != '\0' ||
                opts.harvestCap <= 0.0) {
                std::fprintf(stderr,
                             "--harvest-cap needs a positive number "
                             "of farads, got '%s'\n",
                             val);
                return false;
            }
        } else if (!std::strcmp(flag, "--power-trace")) {
            opts.powerTrace = val;
        } else if (!std::strcmp(flag, "--scheme")) {
            BaselineSelector sel;
            std::string why;
            if (!parseBaselineSelector(val, &sel, &why)) {
                std::fprintf(stderr,
                             "--scheme: %s (want:", why.c_str());
                for (const std::string &name :
                     baselineSelectorNames()) {
                    std::fprintf(stderr, " %s", name.c_str());
                }
                std::fprintf(stderr, ")\n");
                return false;
            }
            opts.scheme = val;
        } else if (!std::strcmp(flag, "--platform")) {
            if (platformByName(val) == nullptr) {
                std::fprintf(stderr,
                             "--platform: unknown platform '%s' "
                             "(want:",
                             val);
                for (const std::string &name : platformNames()) {
                    std::fprintf(stderr, " %s", name.c_str());
                }
                std::fprintf(stderr, ")\n");
                return false;
            }
            opts.platformName = val;
        }
    }
    return true;
}

int
cmdInfo(const Options &opts)
{
    const GateLibrary lib(makeDeviceConfig(opts.tech));
    const DeviceConfig &cfg = lib.config();
    if (opts.json) {
        std::string gates;
        for (GateType g : lib.feasibleGates()) {
            if (!gates.empty()) {
                gates += ",";
            }
            gates += "\"" + jsonEscape(gateName(g)) + "\"";
        }
        std::printf(
            "{\"tech\":\"%s\",\"name\":\"%s\","
            "\"frequency_hz\":%.17g,"
            "\"cap_voltage_low_v\":%.17g,"
            "\"cap_voltage_high_v\":%.17g,"
            "\"buffer_capacitance_f\":%.17g,"
            "\"write_energy_j\":%.17g,\"read_energy_j\":%.17g,"
            "\"feasible_gates\":[%s]}\n",
            names::techName(opts.tech),
            jsonEscape(cfg.name()).c_str(), cfg.frequency(),
            cfg.capVoltageLow, cfg.capVoltageHigh,
            cfg.bufferCapacitance, lib.writeOp().energy,
            lib.readOp().energy, gates.c_str());
        return 0;
    }
    std::printf("%s: %.1f MHz, window %.0f..%.0f mV, buffer %.0f uF\n",
                cfg.name().c_str(), cfg.frequency() / 1e6,
                cfg.capVoltageLow * 1e3, cfg.capVoltageHigh * 1e3,
                cfg.bufferCapacitance * 1e6);
    std::printf("MTJ: Rp %.2f k, Rap %.2f k, tsw %.0f ns, Ic %.0f uA "
                "(TMR %.2f)\n",
                cfg.mtj.rParallel / 1e3, cfg.mtj.rAntiParallel / 1e3,
                cfg.mtj.switchingTime * 1e9,
                cfg.mtj.switchingCurrent * 1e6, cfg.mtj.tmr());
    std::printf("feasible gates:");
    for (GateType g : lib.feasibleGates()) {
        std::printf(" %s", gateName(g).c_str());
    }
    std::printf("\nwrite %.1f mV / %.3f fJ, read %.1f mV / %.3f fJ\n",
                lib.writeOp().voltage * 1e3,
                lib.writeOp().energy * 1e15,
                lib.readOp().voltage * 1e3,
                lib.readOp().energy * 1e15);
    return 0;
}

/** Map a rejected RunRequest onto exit 2 with a usage hint.  The
 *  engine carries the typed RunError in the result instead of dying
 *  mid-run; the CLI is where it becomes a user-facing message. */
bool
checkRunOk(const RunResult &r)
{
    if (r.ok()) {
        return true;
    }
    std::fprintf(stderr, "mouse_cli: invalid run request: %s\n",
                 runErrorMessage(r.error));
    std::fprintf(stderr,
                 "run 'mouse_cli' without arguments for usage\n");
    return false;
}

std::optional<std::string> readFile(const std::string &path);

/**
 * Resolve a --power-trace argument before anything simulates: a
 * corpus trace name wins, anything else is read as a trace_schema-1
 * JSON file.  A missing file, malformed JSON, or wrong trace_schema
 * prints a "path:line: message" error and fails (exit 2 upstream),
 * matching the strict up-front validation of every other flag.
 */
bool
resolveSourceSpec(const std::string &arg, SourceSpec &out)
{
    if (const PowerTrace *t = corpusTrace(arg)) {
        out = SourceSpec::corpusTrace(t->name);
        return true;
    }
    const auto text = readFile(arg);
    if (!text) {
        return false;
    }
    PowerTraceError err;
    const auto trace = parsePowerTrace(*text, &err);
    if (!trace) {
        std::fprintf(stderr, "mouse_cli: %s:%zu: %s\n", arg.c_str(),
                     err.line, err.message.c_str());
        return false;
    }
    out = SourceSpec::trace(*trace);
    return true;
}

/**
 * The one-benchmark grid `bench` and `sweep` share: --tech, the
 * benchmark, --power-trace (which replaces the @p powers axis),
 * --platform, --scheme and the telemetry @p out records.  nullopt
 * once a --power-trace error is printed.
 */
std::optional<exp::SweepGrid>
benchmarkGrid(const exp::Benchmark &b, const Options &opts,
              std::vector<Watts> powers, const Outputs &out)
{
    exp::SweepGrid grid;
    grid.techs = {opts.tech};
    grid.benchmarks = {b};
    if (!opts.powerTrace.empty()) {
        SourceSpec spec;
        if (!resolveSourceSpec(opts.powerTrace, spec)) {
            return std::nullopt;
        }
        grid.sources = {spec};
    } else {
        grid.powers = std::move(powers);
    }
    if (!opts.platformName.empty()) {
        grid.platforms = {opts.platformName};
    }
    if (!opts.scheme.empty()) {
        grid.schemes = {opts.scheme};
    }
    grid.telemetry = out.traceConfig();
    return grid;
}

/** One-point grid for `bench`: reuses the runner end to end. */
int
cmdBench(const exp::Benchmark &b, const Options &opts)
{
    Outputs out;
    if (!out.open(opts)) {
        return 2;
    }
    if (!opts.powerTrace.empty() && opts.continuous) {
        std::fprintf(stderr, "--continuous and --power-trace are "
                             "mutually exclusive\n");
        return 2;
    }
    const auto grid = benchmarkGrid(
        b, opts, {opts.continuous ? exp::kContinuousPower : opts.power},
        out);
    if (!grid) {
        return 2;
    }
    exp::ExperimentRunner runner(1);
    const exp::SweepResult res = runner.run(*grid);
    const RunResult &r = res.points.front();
    if (!checkRunOk(r)) {
        return 2;
    }
    out.writeTelemetry(res);
    out.json.write(r.toJson() + "\n");
    if (opts.json) {
        std::printf("%s\n", r.toJson().c_str());
        return 0;
    }
    if (opts.continuous) {
        std::printf("%s on %s, continuous power\n", b.name.c_str(),
                    makeDeviceConfig(opts.tech).name().c_str());
    } else {
        std::printf("%s on %s, %.0f uW harvester\n", b.name.c_str(),
                    makeDeviceConfig(opts.tech).name().c_str(),
                    opts.power * 1e6);
    }
    const GateLibrary lib(makeDeviceConfig(opts.tech));
    MappingInfo info;
    (void)exp::traceFor(lib, b, &info);
    std::printf("layout: %u elem/col, %u cols/unit, %llu units x %u "
                "batch(es), %.1f + %.1f MB\n",
                info.elementsPerColumn, info.colsPerUnit,
                static_cast<unsigned long long>(info.unitsPerBatch),
                info.batches, info.instrMB, info.dataMB);
    std::printf("%s\n", r.stats.summary().c_str());
    return 0;
}

int
cmdSweep(const exp::Benchmark &b, const Options &opts)
{
    Outputs out;
    if (!out.open(opts)) {
        return 2;
    }
    const auto grid = benchmarkGrid(b, opts, exp::powerSweep(), out);
    if (!grid) {
        return 2;
    }
    exp::ExperimentRunner runner(opts.threads);
    ProgressMeter meter;
    if (progressWanted(opts)) {
        runner.setProgress([&meter](std::size_t done,
                                    std::size_t total) {
            meter.report(done, total);
        });
    }
    const exp::SweepResult res = runner.run(*grid);
    for (const RunResult &r : res.points) {
        if (!checkRunOk(r)) {
            return 2;
        }
    }
    out.writeTelemetry(res);
    out.json.write(res.toJson() + "\n");
    if (opts.json) {
        std::printf("%s\n", res.toJson().c_str());
        return 0;
    }
    std::printf("%-12s %16s %14s %10s\n", "power", "latency (us)",
                "energy (uJ)", "outages");
    for (std::size_t i = 0; i < res.points.size(); ++i) {
        const RunStats &s = res.points[i].stats;
        std::printf("%9.0f uW %16.0f %14.3f %10llu\n",
                    res.points[i].meta.power * 1e6,
                    s.totalTime() * 1e6, s.totalEnergy() * 1e6,
                    static_cast<unsigned long long>(s.outages));
    }
    // Timing goes to stderr so stdout stays byte-identical across
    // thread counts and runs.
    std::fprintf(stderr, "(%zu points in %.1f ms on %u threads)\n",
                 res.points.size(), res.wallSeconds * 1e3,
                 res.threads);
    return 0;
}

int
cmdAnalyze(const exp::Benchmark &b, const Options &opts)
{
    const GateLibrary lib(makeDeviceConfig(opts.tech));
    const EnergyModel energy(lib);
    const Trace trace = exp::traceFor(lib, b);
    const TerminationReport r =
        analyzeTermination(trace, energy, HarvestConfig{});
    std::printf("%s on %s\n", b.name.c_str(),
                lib.config().name().c_str());
    std::printf("burst energy: %.3f nJ\n", r.burstEnergy * 1e9);
    std::printf("worst instruction + restore: %.3f pJ (block %zu)\n",
                (r.worstInstructionEnergy + r.worstRestoreEnergy) *
                    1e12,
                r.bindingBlock);
    std::printf("forward progress: %s (margin %.0fx, min buffer "
                "%.3f nF)\n",
                r.terminates ? "GUARANTEED" : "NOT GUARANTEED",
                r.margin, r.minCapacitance * 1e9);
    return 0;
}

int
cmdArea(double mb, const Options &opts)
{
    std::printf("%.0f MB on %s: %.2f mm^2 (rounded capacity %.0f "
                "MB)\n",
                mb, makeDeviceConfig(opts.tech).name().c_str(),
                mouseAreaForFootprint(opts.tech, mb),
                roundUpPow2Mb(mb));
    return 0;
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (!fp) {
        std::fprintf(stderr, "mouse_cli: cannot read '%s': %s\n",
                     path.c_str(), std::strerror(errno));
        return std::nullopt;
    }
    std::string text;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), fp)) > 0) {
        text.append(buf, n);
    }
    std::fclose(fp);
    return text;
}

void
printOutcome(const inject::PointOutcome &o)
{
    std::printf("verdict: %s\n", inject::verdictName(o.verdict));
    std::printf("committed %llu, reexecuted %llu\n",
                static_cast<unsigned long long>(o.committed),
                static_cast<unsigned long long>(o.reexecuted));
    if (!o.note.empty()) {
        std::printf("note: %s\n", o.note.c_str());
    }
}

/** `inject --replay PATH`: re-run a saved reproducer (a standalone
 *  artifact or a whole campaign report, whose first shrunk schedule
 *  is picked).  Exit 1 when the failure reproduces. */
int
cmdInjectReplay(const Options &opts)
{
    const auto text = readFile(opts.replayPath);
    if (!text) {
        return 2;
    }
    const auto art = inject::parseReplayArtifact(*text);
    if (!art) {
        std::fprintf(stderr,
                     "'%s' is not a replay artifact or campaign "
                     "report with failures\n",
                     opts.replayPath.c_str());
        return 2;
    }
    const auto w = inject::makeCampaignWorkload(art->workload);
    if (!w) {
        std::fprintf(stderr, "unknown inject workload '%s'\n",
                     art->workload.c_str());
        return 2;
    }
    const inject::PointOutcome o =
        inject::replaySchedule(*w, art->schedule);
    const bool reproduced = o.verdict == inject::Verdict::kCorrupted ||
                            o.verdict == inject::Verdict::kIncomplete;
    if (opts.json) {
        std::printf("%s\n",
                    inject::replayArtifactJson(w->name, o.schedule)
                        .c_str());
    }
    std::printf("replaying %llu-outage schedule on '%s'\n",
                static_cast<unsigned long long>(
                    o.schedule.points.size()),
                w->name.c_str());
    printOutcome(o);
    std::printf(reproduced ? "failure REPRODUCED\n"
                           : "no failure reproduced\n");
    return reproduced ? 1 : 0;
}

int
cmdInject(const Options &opts)
{
    if (!opts.replayPath.empty()) {
        return cmdInjectReplay(opts);
    }
    const auto w = inject::makeCampaignWorkload(opts.workload);
    if (!w) {
        std::fprintf(stderr, "unknown inject workload '%s' (try:",
                     opts.workload.c_str());
        for (const std::string &name :
             inject::campaignWorkloadNames()) {
            std::fprintf(stderr, " %s", name.c_str());
        }
        std::fprintf(stderr, ")\n");
        return 2;
    }
    OutputFile report;
    if (!report.open(opts.reportOut)) {
        return 2;
    }

    inject::CampaignConfig cfg;
    cfg.checkpointPeriod = opts.sonicWindow;
    cfg.restoreJournal = !opts.noJournal;
    cfg.randomSchedules = opts.randomSchedules;
    cfg.maxOutagesPerSchedule = opts.maxOutages;
    cfg.rootSeed = opts.rootSeed;
    cfg.threads = opts.threads;
    const inject::CampaignReport rep = inject::runCampaign(*w, cfg);
    report.write(rep.toJson() + "\n");
    if (opts.json) {
        std::printf("%s\n", rep.toJson().c_str());
        return rep.clean() ? 0 : 1;
    }

    std::printf("%s: golden run commits %llu instructions "
                "(%llu attempts)\n",
                w->name.c_str(),
                static_cast<unsigned long long>(rep.goldenCommitted),
                static_cast<unsigned long long>(rep.goldenAttempts));
    std::printf("checkpoint window %u, journal restore %s\n",
                cfg.checkpointPeriod,
                cfg.restoreJournal ? "on" : "OFF");
    std::printf("%llu points:",
                static_cast<unsigned long long>(rep.points));
    for (std::size_t v = 0; v < inject::kNumVerdicts; ++v) {
        std::printf(" %llu %s%s",
                    static_cast<unsigned long long>(rep.verdicts[v]),
                    inject::verdictName(
                        static_cast<inject::Verdict>(v)),
                    v + 1 < inject::kNumVerdicts ? "," : "\n");
    }
    std::printf("replayed commits: %llu\n",
                static_cast<unsigned long long>(rep.replays));
    if (rep.clean()) {
        std::printf("clean: every faulted run converged to the "
                    "golden state\n");
        return 0;
    }
    std::printf("MISMATCHES: %llu points diverged; shrunk "
                "reproducers:\n",
                static_cast<unsigned long long>(rep.mismatches));
    for (const inject::PointOutcome &f : rep.failures) {
        std::printf("  [%s] %s\n", inject::verdictName(f.verdict),
                    f.note.c_str());
        std::printf("    %s\n",
                    inject::replayArtifactJson(w->name, f.shrunk)
                        .c_str());
    }
    return 1;
}

// -- serve ------------------------------------------------------------

/**
 * Parse one request-stream line: "<bnn|svm> <e0> <e1> ...".
 * Blank lines and '#' comments are skipped (returns true with
 * model = npos).  A malformed line prints a message and fails.
 */
bool
parseStreamLine(const std::string &line, std::size_t lineNo,
                serve::ModelId bnn, serve::ModelId svm,
                std::size_t &model, serve::Input &in)
{
    model = static_cast<std::size_t>(-1);
    in.clear();
    std::size_t pos = line.find_first_not_of(" \t\r");
    if (pos == std::string::npos || line[pos] == '#') {
        return true;
    }
    const std::size_t end = line.find_first_of(" \t\r", pos);
    const std::string name = line.substr(pos, end - pos);
    if (name == "bnn") {
        model = bnn;
    } else if (name == "svm") {
        model = svm;
    } else {
        std::fprintf(stderr,
                     "stream line %zu: unknown model '%s' (want "
                     "bnn or svm)\n",
                     lineNo, name.c_str());
        return false;
    }
    pos = end;
    while (pos != std::string::npos) {
        pos = line.find_first_not_of(" \t\r", pos);
        if (pos == std::string::npos) {
            break;
        }
        char *endp = nullptr;
        const long v = std::strtol(line.c_str() + pos, &endp, 10);
        if (endp == line.c_str() + pos || v < 0 || v > 255) {
            std::fprintf(stderr,
                         "stream line %zu: bad element near '%s'\n",
                         lineNo, line.c_str() + pos);
            return false;
        }
        in.push_back(static_cast<std::uint8_t>(v));
        pos = static_cast<std::size_t>(endp - line.c_str());
    }
    return true;
}

/** Batched-inference serving driver (docs/SERVING.md): registers
 *  the deterministic demo models, admits synthetic or streamed
 *  requests, drains the engine pool, and reports schema-v4 serve
 *  JSON or a human summary.  Span tracing is documented in
 *  docs/OBSERVABILITY.md. */
int
cmdServe(const Options &opts)
{
    Outputs out;
    if (!out.open(opts)) {
        return 2;
    }

    serve::ServiceConfig cfg;
    cfg.engine.tech = opts.tech;
    cfg.engine.array.tileRows = 512;
    cfg.engine.array.tileCols = 1024;
    cfg.engine.array.numDataTiles = 1;
    cfg.engine.array.numInstructionTiles = 4096;
    cfg.workers = opts.threads > 0 ? opts.threads : 1;
    cfg.maxBatch = opts.maxBatch;
    if (opts.harvestPower > 0.0 || !opts.powerTrace.empty() ||
        !opts.platformName.empty()) {
        cfg.harvested = true;
        if (!opts.powerTrace.empty()) {
            if (opts.harvestPower > 0.0) {
                std::fprintf(stderr,
                             "--harvest-power and --power-trace are "
                             "mutually exclusive\n");
                return 2;
            }
            if (!resolveSourceSpec(opts.powerTrace,
                                   cfg.harvest.source)) {
                return 2;
            }
        } else if (opts.harvestPower > 0.0) {
            cfg.harvest.source =
                SourceSpec::constant(opts.harvestPower);
        }
        cfg.harvest.platform = opts.platformName;
        if (opts.harvestCap > 0.0) {
            cfg.harvest.capacitanceOverride = opts.harvestCap;
        }
    }
    serve::InferenceService svc(cfg);

    if (out.trace.wanted()) {
        svc.setTracing(true);
    }

    const serve::ModelId bnn = svc.addModel(serve::demoBnn(opts.rootSeed));
    const serve::ModelId svm =
        svc.addModel(serve::demoSvm(opts.rootSeed + 1));

    if (!opts.streamPath.empty()) {
        const bool fromStdin = opts.streamPath == "-";
        std::FILE *fp = fromStdin
                            ? stdin
                            : std::fopen(opts.streamPath.c_str(),
                                         "rb");
        if (!fp) {
            std::fprintf(stderr,
                         "mouse_cli: cannot read '%s': %s\n",
                         opts.streamPath.c_str(),
                         std::strerror(errno));
            return 2;
        }
        std::string line;
        std::size_t lineNo = 0;
        char buf[4096];
        bool ok = true;
        while (ok && std::fgets(buf, sizeof(buf), fp)) {
            ++lineNo;
            line = buf;
            if (!line.empty() && line.back() == '\n') {
                line.pop_back();
            }
            std::size_t model = 0;
            serve::Input in;
            if (!parseStreamLine(line, lineNo, bnn, svm, model,
                                 in)) {
                ok = false;
                break;
            }
            if (model == static_cast<std::size_t>(-1)) {
                continue;  // blank / comment
            }
            const serve::ModelId m =
                static_cast<serve::ModelId>(model);
            if (!svc.model(m).validInput(in)) {
                std::fprintf(
                    stderr,
                    "stream line %zu: payload invalid for '%s' "
                    "(want %zu elements of %u bit(s))\n",
                    lineNo, svc.model(m).name().c_str(),
                    svc.model(m).inputSize(),
                    svc.model(m).elementBits());
                ok = false;
                break;
            }
            svc.submit(m, std::move(in));
        }
        if (!fromStdin) {
            std::fclose(fp);
        }
        if (!ok) {
            return 2;
        }
    } else {
        Rng rng(opts.rootSeed + 2);
        for (std::size_t i = 0; i < opts.requests; ++i) {
            serve::ModelId m = bnn;
            if (opts.serveModel == "svm") {
                m = svm;
            } else if (opts.serveModel == "mixed") {
                m = rng.below(2) == 0 ? bnn : svm;
            }
            svc.submit(m, serve::randomInput(rng, svc.model(m)));
        }
    }

    const std::size_t admitted = svc.pendingRequests();
    if (admitted == 0) {
        std::fprintf(stderr, "serve: no requests admitted\n");
        return 2;
    }

    // Same stderr progress/ETA line sweeps get, with batches as the
    // unit of work; gated on the TTY check exactly like bench/sweep.
    ProgressMeter meter;
    if (progressWanted(opts)) {
        svc.setProgress(
            [&meter](std::size_t done, std::size_t total) {
                meter.report(done, total);
            });
    }

    const double secs = svc.drain();
    if (out.trace.wanted()) {
        out.trace.write(svc.requestTrace().toChromeJson() + "\n");
    }

    const std::string report = svc.reportJson();
    out.json.write(report + "\n");
    if (out.stats.wanted()) {
        const auto reg = svc.stats();
        const bool csv =
            out.stats.path().size() >= 4 &&
            out.stats.path().compare(out.stats.path().size() - 4, 4,
                                     ".csv") == 0;
        out.stats.write(csv ? reg->toCsv() : reg->toJson() + "\n");
    }
    if (opts.json) {
        std::printf("%s\n", report.c_str());
        return 0;
    }
    std::printf("serve: %zu requests over %zu batches on %s "
                "(%u worker%s)\n",
                svc.completed(), svc.batchesRun(),
                makeDeviceConfig(opts.tech).name().c_str(),
                cfg.workers, cfg.workers == 1 ? "" : "s");
    const auto reg = svc.stats();
    std::printf("throughput: %.0f classifications/s over %.1f ms "
                "drain\n",
                static_cast<double>(svc.completed()) /
                    (secs > 0.0 ? secs : 1.0),
                secs * 1e3);
    std::printf("simulated: %.3f ms array time, %.3f uJ "
                "(%.0f classifications/s-array)\n",
                reg->scalarValue("serve.sim_time_s") * 1e3,
                reg->scalarValue("serve.energy_j") * 1e6,
                reg->counterValue("serve.requests") /
                    (reg->scalarValue("serve.sim_time_s") > 0.0
                         ? reg->scalarValue("serve.sim_time_s")
                         : 1.0));
    return 0;
}

int
cmdList()
{
    std::printf("benchmarks:\n");
    const auto &keys = names::listBenchmarks();
    const auto &all = exp::paperBenchmarks();
    for (std::size_t i = 0; i < all.size(); ++i) {
        std::printf("  %-10s %s (%.0f MB)\n", keys[i].c_str(),
                    all[i].name.c_str(), all[i].capacityMB);
    }
    std::printf("techs:");
    for (TechConfig tech : names::allTechs()) {
        std::printf(" %s", names::techName(tech));
    }
    std::printf("\n");
    std::printf("inject workloads:\n");
    for (const std::string &name : inject::campaignWorkloadNames()) {
        const auto w = inject::makeCampaignWorkload(name);
        std::printf("  %-10s %s\n", name.c_str(),
                    w ? w->description.c_str() : "");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        return usage();
    }
    const std::string cmd = argv[1];
    const CommandSpec *spec = findCommand(cmd);
    if (!spec) {
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        return usage();
    }
    if (spec->positional && argc < 3) {
        std::fprintf(stderr, "'%s' needs a %s argument\n",
                     spec->name, spec->positional);
        return usage();
    }
    const int flagStart = spec->positional ? 3 : 2;
    Options opts;
    if (!parseFlags(argc, argv, flagStart, *spec, opts)) {
        return usage();
    }

    if (cmd == "list") {
        return cmdList();
    }
    if (cmd == "info") {
        return cmdInfo(opts);
    }
    if (cmd == "area") {
        char *end = nullptr;
        const double mb = std::strtod(argv[2], &end);
        if (end == argv[2] || *end != '\0' || mb <= 0.0) {
            std::fprintf(stderr,
                         "capacity must be a positive number, got "
                         "'%s'\n",
                         argv[2]);
            return 2;
        }
        return cmdArea(mb, opts);
    }
    if (cmd == "inject") {
        return cmdInject(opts);
    }
    if (cmd == "serve") {
        return cmdServe(opts);
    }
    // bench / sweep / analyze share the benchmark positional.
    const auto bi = names::benchmarkIndex(argv[2]);
    if (!bi) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", argv[2]);
        return 2;
    }
    const exp::Benchmark &b = exp::paperBenchmarks()[*bi];
    if (cmd == "bench") {
        return cmdBench(b, opts);
    }
    if (cmd == "sweep") {
        return cmdSweep(b, opts);
    }
    return cmdAnalyze(b, opts);
}
