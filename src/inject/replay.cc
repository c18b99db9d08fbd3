#include "replay.hh"

#include "common/json.hh"
#include "core/run_api.hh"
#include "inject/idempotence.hh"

namespace mouse::inject
{

std::string
replayArtifactJson(const std::string &workload,
                   const OutageSchedule &schedule)
{
    std::string j = "{";
    j += "\"schema\":" + std::to_string(kResultSchemaVersion);
    j += ",\"workload\":\"" + jsonEscape(workload) + "\"";
    j += ",\"schedule\":" + schedule.toJson();
    j += "}";
    return j;
}

std::optional<ReplayArtifact>
parseReplayArtifact(const std::string &text)
{
    const std::optional<json::Value> doc = json::parse(text);
    if (!doc) {
        return std::nullopt;
    }
    const json::Value *workload = doc->find("workload");
    if (workload == nullptr || workload->kind != json::Kind::kString) {
        return std::nullopt;
    }
    // A campaign report's shortest reproducer is its first failure's
    // shrunk schedule; a standalone artifact has only "schedule".
    const json::Value *schedule = nullptr;
    if (const json::Value *failures = doc->find("failures");
        failures != nullptr && failures->kind == json::Kind::kArray &&
        !failures->items.empty()) {
        schedule = failures->items[0].find("shrunk");
    }
    if (schedule == nullptr) {
        schedule = doc->find("schedule");
    }
    if (schedule == nullptr) {
        return std::nullopt;
    }
    std::optional<OutageSchedule> parsed =
        OutageSchedule::fromJson(*schedule);
    if (!parsed) {
        return std::nullopt;
    }
    return ReplayArtifact{workload->string, std::move(*parsed)};
}

PointOutcome
replaySchedule(const CampaignWorkload &w,
               const OutageSchedule &schedule)
{
    auto goldenAcc = freshRun(w);
    RunRequest req;
    req.fidelity = Fidelity::Functional;
    req.power = PowerMode::Continuous;
    const RunResult goldenRes = goldenAcc->execute(req);
    const MachineState golden = captureState(*goldenAcc);
    const std::uint64_t committed =
        goldenRes.stats.instructionsCommitted;
    goldenAcc.reset();

    OutageSchedule s = schedule;
    s.normalize();
    if (s.checkpointPeriod > 1 && s.checkpoints.empty()) {
        // Artifacts carry their checkpoints; recompute for
        // hand-written ones.
        s.checkpoints =
            idempotentCheckpoints(w.program, s.checkpointPeriod);
    }
    return runSchedule(w, s, golden, committed,
                       /* attemptGuard computed as in campaigns */
                       committed + 1 +
                           s.points.size() *
                               (std::max(1u, s.checkpointPeriod) +
                                2) +
                           16);
}

} // namespace mouse::inject
