/**
 * @file
 * The unified execution API.
 *
 * The paper's evaluation exercises four run modes — functional or
 * trace fidelity, continuous or harvested power — which historically
 * had four differently-shaped entry points.  A RunRequest names one
 * of those modes declaratively; Accelerator::execute() accepts it and
 * returns a RunResult that wraps the RunStats together with the host
 * wall-clock cost and the metadata of the grid point that produced it
 * (filled in by the ExperimentRunner for sweeps, or minimally by
 * execute() itself for one-off runs).
 *
 * RunResult serializes to JSON so benches, the CLI (`--json`) and CI
 * can diff results without scraping printf tables.
 */

#ifndef MOUSE_CORE_RUN_API_HH
#define MOUSE_CORE_RUN_API_HH

#include <cstdint>
#include <string>

#include <memory>

// Exposes jsonEscape() to every emitter that includes this header.
#include "common/json.hh"
#include "common/schema_versions.hh"
#include "compile/program.hh"
#include "obs/telemetry.hh"
#include "sim/simulator.hh"

namespace mouse
{

/** Simulation fidelity (see sim/simulator.hh). */
enum class Fidelity
{
    /** Bit-exact machine, real restart protocol. */
    Functional,
    /** Compressed-trace performance model. */
    Trace,
};

/** Power environment of a run. */
enum class PowerMode
{
    /** Wall power: the run never sees an outage. */
    Continuous,
    /** Energy-harvesting environment (capacitor + source). */
    Harvested,
    /**
     * Scripted outages: power dies exactly at the attempts named by
     * RunRequest::schedule (fault injection; Functional fidelity
     * only).  See sim/outage_schedule.hh and docs/FAULT_INJECTION.md.
     */
    Scheduled,
};

/** Declarative description of one simulation run. */
struct RunRequest
{
    Fidelity fidelity = Fidelity::Functional;
    PowerMode power = PowerMode::Continuous;
    /** Harvesting environment; only read under Harvested. */
    HarvestConfig harvest{};
    /**
     * Outage script; required for Scheduled power, ignored
     * otherwise.  An explicit observer (common/types.hh): create it
     * with observe(schedule), and keep the schedule alive until
     * execute() returns.
     */
    ObserverPtr<const OutageSchedule> schedule;
    /** Attempt guard for Scheduled runs (0 = unlimited): a run that
     *  has not halted after this many attempts stops early. */
    std::uint64_t maxAttempts = 0;
    /**
     * Trace to simulate; required for Trace fidelity, ignored for
     * Functional (which runs the loaded program).  An explicit
     * observer with the same lifetime contract as `schedule`.
     */
    ObserverPtr<const Trace> trace;
    /**
     * Baseline system/scheme selector (baseline/selector.hh):
     * "mouse" (or empty) runs the MOUSE accelerator; "mcu:<scheme>"
     * replays the same workload on the instruction-trace MCU
     * baseline under the named EhScheme (bec, odab, clank, oracle).
     * "sonic" is a sweep-level scheme only — a RunRequest carries no
     * benchmark identity to look its calibration up by — and is
     * rejected here with kBaselineSchemeUnknown, as are Scheduled
     * runs of non-mouse systems (MCU fault injection goes through
     * inject/mcu_campaign.hh).  See docs/BASELINES.md.
     */
    std::string baseline = "mouse";
    /** Free-form tag echoed into the result's metadata. */
    std::string label;
    /**
     * Telemetry channels to record (all off by default).  When any
     * are enabled, the result carries the filled StatRegistry /
     * TraceSink; see docs/OBSERVABILITY.md.
     */
    obs::TraceConfig telemetry{};
};

/**
 * Typed rejection of a malformed RunRequest.  execute() validates
 * the request up front and carries one of these in the RunResult
 * instead of dying mid-run, so callers (the CLI, sweep drivers) can
 * report a usage error and exit cleanly.
 */
enum class RunError
{
    kNone = 0,
    /** Trace fidelity but no req.trace observer set. */
    kTraceMissing,
    /** Scheduled power but no req.schedule observer set. */
    kScheduleMissing,
    /** req.schedule set but power is not Scheduled. */
    kScheduleWithoutScheduledPower,
    /** req.maxAttempts set but power is not Scheduled. */
    kMaxAttemptsWithoutScheduledPower,
    /** Scheduled power with Trace fidelity (outages land at
     *  bit-exact micro-steps, which only Functional has). */
    kScheduledTraceFidelity,
    /** Harvested power with a SourceSpec that valid() rejects
     *  (non-positive constant power, empty or powerless trace,
     *  unknown corpus name, malformed square wave). */
    kHarvestSourceInvalid,
    /** Harvested power naming a platform preset that is not in
     *  harvest/platform.hh's catalog. */
    kHarvestPlatformUnknown,
    /** req.baseline names no system/scheme this request can execute:
     *  an unparseable selector, an unknown MCU scheme, "sonic" (which
     *  only sweeps can calibrate), or a non-mouse system under
     *  Scheduled power. */
    kBaselineSchemeUnknown,
    /** Functional fidelity on an Accelerator that has no program
     *  loaded (execute() checks this; validateRunRequest() cannot). */
    kProgramMissing,
};

/** Stable machine-readable name of a RunError ("trace_missing"). */
const char *runErrorName(RunError e);

/** Human-oriented one-line description with the fix spelled out. */
const char *runErrorMessage(RunError e);

/** Check @p req for the invalid combinations above; kNone if OK. */
RunError validateRunRequest(const RunRequest &req);

/**
 * Step-by-step RunRequest construction that cannot produce a
 * half-initialized request.
 *
 * Every mode is set by one call that provides everything the mode
 * needs — trace() installs the trace *and* flips the fidelity,
 * scheduled() installs the schedule, the power mode and the attempt
 * guard together — and switching modes clears the fields the new
 * mode does not read.  build() therefore always returns a request
 * that passes validateRunRequest(); serve-path code constructs its
 * requests exclusively through this builder.
 */
class RunRequestBuilder
{
  public:
    /** Functional fidelity (the default); drops any trace. */
    RunRequestBuilder &functional();

    /** Trace fidelity over @p t (borrowed; see ObserverPtr). */
    RunRequestBuilder &trace(const Trace &t);

    /** Continuous power (the default); drops schedule/attempts. */
    RunRequestBuilder &continuous();

    /** Harvested power under @p h; drops schedule/attempts. */
    RunRequestBuilder &harvested(const HarvestConfig &h);

    /**
     * Scripted outages from @p s (borrowed) with an optional attempt
     * guard; implies Functional fidelity requirements checked by
     * build().
     */
    RunRequestBuilder &scheduled(const OutageSchedule &s,
                                 std::uint64_t max_attempts = 0);

    /** Baseline selector ("mouse", "mcu:<scheme>"); build() asserts
     *  it names something executable, so unvalidated user input goes
     *  through validateRunRequest() on a plain request instead. */
    RunRequestBuilder &baselineScheme(std::string selector);

    RunRequestBuilder &label(std::string l);
    RunRequestBuilder &telemetry(const obs::TraceConfig &cfg);

    /** The finished request; guaranteed validateRunRequest-clean. */
    RunRequest build() const;

  private:
    RunRequest req_;
};

/** Identity of the sweep-grid point a result belongs to. */
struct PointMeta
{
    /** Position in the grid's canonical order (0 for one-off runs). */
    std::size_t index = 0;
    std::string tech;
    std::string benchmark;
    /** Executing system ("mouse", "mcu", "sonic"); schema v6. */
    std::string system = "mouse";
    /** Backup scheme within the system ("bec", "odab", "clank",
     *  "oracle"); empty for mouse and sonic. */
    std::string scheme;
    /** Headline harvester power (constant power, or the mean over
     *  one period of a trace source); 0 means continuous power. */
    Watts power = 0.0;
    /** Source provenance: "constant", a trace/corpus name, or
     *  "square"; empty for continuous runs. */
    std::string source;
    /** Platform preset the run used; empty = tech defaults. */
    std::string platform;
    /** Outage-schedule seed the run actually used. */
    std::uint64_t seed = 0;
    unsigned checkpointPeriod = 1;
    /** Gate noise margin of the library the run used. */
    double margin = 0.0;
    std::string label;
};

/** Outcome of one run: simulation stats plus provenance. */
struct RunResult
{
    RunStats stats;
    /** kNone on success; otherwise the request was rejected before
     *  simulating and stats are all-zero. */
    RunError error = RunError::kNone;
    /** Host wall-clock time spent simulating, in seconds. */
    double wallSeconds = 0.0;
    PointMeta meta;

    bool ok() const { return error == RunError::kNone; }
    /** Hierarchical stats tree; null unless telemetry.stats. */
    std::shared_ptr<obs::StatRegistry> statsTree;
    /** Event trace / waveform; null unless telemetry asked. */
    std::shared_ptr<obs::TraceSink> traceSink;

    /** Single-line JSON object (stats + meta + wall clock; the
     *  stat_registry tree rides along when collected).  The leading
     *  "schema" field versions the document — see
     *  docs/EXPERIMENTS_API.md for the field order and meaning. */
    std::string toJson() const;
};

/** Version of every JSON document this API emits (RunResult,
 *  SweepResult, the injection reports of src/inject, and the serve
 *  reports of src/serve).  The canonical definition — and the bump
 *  history — lives in common/schema_versions.hh alongside every
 *  other document version; this alias keeps the existing spelling
 *  working for the emitters. */
using schema::kResultSchemaVersion;

/** JSON object for a RunStats (used by RunResult::toJson). */
std::string toJson(const RunStats &stats);

} // namespace mouse

#endif // MOUSE_CORE_RUN_API_HH
