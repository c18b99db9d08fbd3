#include "run_api.hh"

#include "baseline/selector.hh"
#include "common/logging.hh"

namespace mouse
{

using json::num;

const char *
runErrorName(RunError e)
{
    switch (e) {
      case RunError::kNone:
        return "none";
      case RunError::kTraceMissing:
        return "trace_missing";
      case RunError::kScheduleMissing:
        return "schedule_missing";
      case RunError::kScheduleWithoutScheduledPower:
        return "schedule_without_scheduled_power";
      case RunError::kMaxAttemptsWithoutScheduledPower:
        return "max_attempts_without_scheduled_power";
      case RunError::kScheduledTraceFidelity:
        return "scheduled_trace_fidelity";
      case RunError::kHarvestSourceInvalid:
        return "harvest_source_invalid";
      case RunError::kHarvestPlatformUnknown:
        return "harvest_platform_unknown";
      case RunError::kBaselineSchemeUnknown:
        return "baseline_scheme_unknown";
      case RunError::kProgramMissing:
        return "program_missing";
    }
    return "unknown";
}

const char *
runErrorMessage(RunError e)
{
    switch (e) {
      case RunError::kNone:
        return "ok";
      case RunError::kTraceMissing:
        return "Trace fidelity needs a trace: set req.trace = "
               "observe(trace)";
      case RunError::kScheduleMissing:
        return "Scheduled power needs an outage script: set "
               "req.schedule = observe(schedule)";
      case RunError::kScheduleWithoutScheduledPower:
        return "req.schedule is only read under Scheduled power: "
               "set req.power = PowerMode::Scheduled or drop the "
               "schedule";
      case RunError::kMaxAttemptsWithoutScheduledPower:
        return "req.maxAttempts is only read under Scheduled power: "
               "set req.power = PowerMode::Scheduled or leave it 0";
      case RunError::kScheduledTraceFidelity:
        return "Scheduled power requires Functional fidelity "
               "(outages land at bit-exact micro-steps)";
      case RunError::kHarvestSourceInvalid:
        return "req.harvest.source does not describe a usable "
               "environment; ask SourceSpec::valid(&why) for the "
               "specific reason";
      case RunError::kHarvestPlatformUnknown:
        return "req.harvest.platform names no preset; see "
               "platformNames() (harvest/platform.hh) for the "
               "catalog";
      case RunError::kBaselineSchemeUnknown:
        return "req.baseline names no executable system/scheme for "
               "this request: use \"mouse\" or \"mcu:<scheme>\" "
               "(baselineSelectorNames(), baseline/selector.hh); "
               "\"sonic\" and Scheduled-power MCU runs live at the "
               "sweep/campaign layer";
      case RunError::kProgramMissing:
        return "Functional fidelity runs the loaded program: call "
               "loadProgram() first";
    }
    return "unknown run error";
}

RunError
validateRunRequest(const RunRequest &req)
{
    const bool scheduled = req.power == PowerMode::Scheduled;
    if (req.fidelity == Fidelity::Trace && !req.trace) {
        return RunError::kTraceMissing;
    }
    if (scheduled && req.fidelity != Fidelity::Functional) {
        return RunError::kScheduledTraceFidelity;
    }
    if (scheduled && !req.schedule) {
        return RunError::kScheduleMissing;
    }
    if (!scheduled && req.schedule) {
        return RunError::kScheduleWithoutScheduledPower;
    }
    if (!scheduled && req.maxAttempts != 0) {
        return RunError::kMaxAttemptsWithoutScheduledPower;
    }
    if (req.power == PowerMode::Harvested) {
        if (!req.harvest.source.valid()) {
            return RunError::kHarvestSourceInvalid;
        }
        if (!req.harvest.platform.empty() &&
            platformByName(req.harvest.platform) == nullptr) {
            return RunError::kHarvestPlatformUnknown;
        }
    }
    BaselineSelector sel;
    if (!parseBaselineSelector(req.baseline, &sel)) {
        return RunError::kBaselineSchemeUnknown;
    }
    if (sel.system == BaselineSystem::kSonic) {
        // A RunRequest has no benchmark identity to look the SONIC
        // calibration up by; sweeps dispatch "sonic" themselves.
        return RunError::kBaselineSchemeUnknown;
    }
    if (sel.system != BaselineSystem::kMouse && scheduled) {
        // Scripted micro-step cuts are a bit-exact-machine concept;
        // MCU fault injection goes through inject/mcu_campaign.hh.
        return RunError::kBaselineSchemeUnknown;
    }
    return RunError::kNone;
}

RunRequestBuilder &
RunRequestBuilder::functional()
{
    req_.fidelity = Fidelity::Functional;
    req_.trace = nullptr;
    return *this;
}

RunRequestBuilder &
RunRequestBuilder::trace(const Trace &t)
{
    req_.fidelity = Fidelity::Trace;
    req_.trace = observe(t);
    return *this;
}

RunRequestBuilder &
RunRequestBuilder::continuous()
{
    req_.power = PowerMode::Continuous;
    req_.schedule = nullptr;
    req_.maxAttempts = 0;
    return *this;
}

RunRequestBuilder &
RunRequestBuilder::harvested(const HarvestConfig &h)
{
    req_.power = PowerMode::Harvested;
    req_.harvest = h;
    req_.schedule = nullptr;
    req_.maxAttempts = 0;
    return *this;
}

RunRequestBuilder &
RunRequestBuilder::scheduled(const OutageSchedule &s,
                             std::uint64_t max_attempts)
{
    req_.power = PowerMode::Scheduled;
    req_.fidelity = Fidelity::Functional;
    req_.trace = nullptr;
    req_.schedule = observe(s);
    req_.maxAttempts = max_attempts;
    return *this;
}

RunRequestBuilder &
RunRequestBuilder::baselineScheme(std::string selector)
{
    req_.baseline = std::move(selector);
    return *this;
}

RunRequestBuilder &
RunRequestBuilder::label(std::string l)
{
    req_.label = std::move(l);
    return *this;
}

RunRequestBuilder &
RunRequestBuilder::telemetry(const obs::TraceConfig &cfg)
{
    req_.telemetry = cfg;
    return *this;
}

RunRequest
RunRequestBuilder::build() const
{
    // The setters make invalid combinations unrepresentable; this
    // assert is the safety net that keeps it that way.
    mouse_assert(validateRunRequest(req_) == RunError::kNone,
                 "RunRequestBuilder produced an invalid request");
    return req_;
}

std::string
toJson(const RunStats &stats)
{
    std::string j = "{";
    j += "\"instructions_committed\":" +
         std::to_string(stats.instructionsCommitted);
    j += ",\"instructions_dead\":" + std::to_string(stats.instructionsDead);
    j += ",\"outages\":" + std::to_string(stats.outages);
    j += ",\"active_time_s\":" + num(stats.activeTime);
    j += ",\"dead_time_s\":" + num(stats.deadTime);
    j += ",\"restore_time_s\":" + num(stats.restoreTime);
    j += ",\"charging_time_s\":" + num(stats.chargingTime);
    j += ",\"total_time_s\":" + num(stats.totalTime());
    j += ",\"compute_energy_j\":" + num(stats.computeEnergy);
    j += ",\"backup_energy_j\":" + num(stats.backupEnergy);
    j += ",\"dead_energy_j\":" + num(stats.deadEnergy);
    j += ",\"restore_energy_j\":" + num(stats.restoreEnergy);
    j += ",\"idle_energy_j\":" + num(stats.idleEnergy);
    j += ",\"total_energy_j\":" + num(stats.totalEnergy());
    j += "}";
    return j;
}

std::string
RunResult::toJson() const
{
    std::string j = "{";
    j += "\"schema\":" + std::to_string(kResultSchemaVersion) + ",";
    if (error != RunError::kNone) {
        j += "\"error\":\"";
        j += runErrorName(error);
        j += "\",";
    }
    j += "\"point\":{";
    j += "\"index\":" + std::to_string(meta.index);
    j += ",\"tech\":\"" + jsonEscape(meta.tech) + "\"";
    j += ",\"benchmark\":\"" + jsonEscape(meta.benchmark) + "\"";
    j += ",\"system\":\"" + jsonEscape(meta.system) + "\"";
    j += ",\"scheme\":\"" + jsonEscape(meta.scheme) + "\"";
    j += ",\"power_w\":" + num(meta.power);
    j += ",\"source\":\"" + jsonEscape(meta.source) + "\"";
    j += ",\"platform\":\"" + jsonEscape(meta.platform) + "\"";
    j += ",\"seed\":" + std::to_string(meta.seed);
    j += ",\"checkpoint_period\":" +
         std::to_string(meta.checkpointPeriod);
    j += ",\"margin\":" + num(meta.margin);
    j += ",\"label\":\"" + jsonEscape(meta.label) + "\"";
    j += "},";
    j += "\"wall_seconds\":" + num(wallSeconds);
    j += ",\"stats\":" + mouse::toJson(stats);
    if (statsTree && !statsTree->empty()) {
        j += ",\"stat_registry\":" + statsTree->toJson();
    }
    j += "}";
    return j;
}

} // namespace mouse
