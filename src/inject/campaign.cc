#include "campaign.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/run_api.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "inject/idempotence.hh"

namespace mouse::inject
{

namespace
{

using json::num;

constexpr std::array<MicroStep, 4> kAllSteps{
    MicroStep::kFetch,
    MicroStep::kExecute,
    MicroStep::kWritePc,
    MicroStep::kCommit,
};

bool
failing(Verdict v)
{
    return v == Verdict::kCorrupted || v == Verdict::kIncomplete;
}

/** Attempt bound for one schedule: the golden length plus what its
 *  outages can legitimately add (one dead attempt each, plus up to a
 *  window of re-executed commits), with headroom.  A run that blows
 *  through this is classified Incomplete. */
std::uint64_t
guardFor(const OutageSchedule &schedule,
         std::uint64_t goldenAttempts)
{
    const std::uint64_t perOutage =
        std::max(1u, schedule.checkpointPeriod) + 2;
    return goldenAttempts +
           schedule.points.size() * perOutage + 16;
}

} // namespace

const char *
verdictName(Verdict v)
{
    switch (v) {
      case Verdict::kMatch:
        return "match";
      case Verdict::kReexecuted:
        return "reexecuted";
      case Verdict::kCorrupted:
        return "corrupted";
      case Verdict::kIncomplete:
        return "incomplete";
    }
    return "unknown";
}

std::vector<OutageSchedule>
enumerateSchedules(const CampaignConfig &cfg,
                   std::uint64_t goldenAttempts)
{
    std::vector<OutageSchedule> out;
    out.reserve(goldenAttempts * kAllSteps.size() *
                    cfg.fractions.size() +
                cfg.randomSchedules);
    // Exhaustive single-cut enumeration, canonical (attempt, step,
    // fraction) order.
    for (std::uint64_t a = 0; a < goldenAttempts; ++a) {
        for (MicroStep step : kAllSteps) {
            for (double f : cfg.fractions) {
                OutageSchedule s;
                s.checkpointPeriod = cfg.checkpointPeriod;
                s.restoreJournal = cfg.restoreJournal;
                s.points.push_back({a, step, f});
                out.push_back(std::move(s));
            }
        }
    }
    // Randomized multi-outage schedules.  Each derives its own
    // stream from (rootSeed, index), so the list is independent of
    // how the campaign is threaded.
    const std::size_t maxOutages =
        std::max<std::size_t>(2, cfg.maxOutagesPerSchedule);
    for (std::size_t i = 0; i < cfg.randomSchedules; ++i) {
        Rng rng(exp::deriveSeed(cfg.rootSeed, i));
        OutageSchedule s;
        s.checkpointPeriod = cfg.checkpointPeriod;
        s.restoreJournal = cfg.restoreJournal;
        const std::size_t k =
            2 + static_cast<std::size_t>(rng.below(maxOutages - 1));
        for (std::size_t p = 0; p < k; ++p) {
            OutagePoint pt;
            // Later outages can land in the attempt tail the earlier
            // ones add, so the range extends past the golden length.
            pt.attempt = rng.below(goldenAttempts + k);
            pt.step = kAllSteps[rng.below(kAllSteps.size())];
            pt.fraction = rng.uniform();
            s.points.push_back(pt);
        }
        s.normalize();
        out.push_back(std::move(s));
    }
    return out;
}

PointOutcome
runSchedule(const CampaignWorkload &w,
            const OutageSchedule &schedule,
            const MachineState &golden,
            std::uint64_t goldenCommitted,
            std::uint64_t attemptGuard)
{
    PointOutcome o;
    o.schedule = schedule;

    auto acc = freshRun(w);
    const RunRequest req = RunRequestBuilder()
                               .scheduled(schedule, attemptGuard)
                               .build();
    const RunResult res = acc->execute(req);
    mouse_assert(res.ok(), "campaign built an invalid RunRequest");
    o.committed = res.stats.instructionsCommitted;

    const MachineState fin = captureState(*acc);
    if (!fin.halted) {
        o.verdict = Verdict::kIncomplete;
        o.note = "did not halt within " +
                 std::to_string(attemptGuard) + " attempts";
        return o;
    }
    const std::string diff = diffState(golden, fin);
    if (!diff.empty()) {
        o.verdict = Verdict::kCorrupted;
        o.note = diff;
        return o;
    }
    if (o.committed > goldenCommitted) {
        o.verdict = Verdict::kReexecuted;
        o.reexecuted = o.committed - goldenCommitted;
    } else if (o.committed < goldenCommitted) {
        // State identical but fewer commits than the golden path —
        // the PC protocol must have skipped work; flag it.
        o.verdict = Verdict::kCorrupted;
        o.note = "halted after " + std::to_string(o.committed) +
                 " commits, golden needed " +
                 std::to_string(goldenCommitted);
    } else {
        o.verdict = Verdict::kMatch;
    }
    return o;
}

OutageSchedule
shrinkSchedule(const CampaignWorkload &w,
               const OutageSchedule &failingSchedule,
               const MachineState &golden,
               std::uint64_t goldenCommitted,
               std::uint64_t attemptGuard,
               std::uint64_t &runs)
{
    OutageSchedule best = failingSchedule;
    bool progress = true;
    while (progress && best.points.size() > 1) {
        progress = false;
        for (std::size_t i = 0; i < best.points.size(); ++i) {
            OutageSchedule cand = best;
            cand.points.erase(cand.points.begin() +
                              static_cast<std::ptrdiff_t>(i));
            ++runs;
            const PointOutcome o = runSchedule(
                w, cand, golden, goldenCommitted, attemptGuard);
            if (failing(o.verdict)) {
                best = std::move(cand);
                progress = true;
                break;
            }
        }
    }
    return best;
}

CampaignReport
runCampaign(const CampaignWorkload &w, const CampaignConfig &cfg)
{
    CampaignReport report;
    report.workload = w.name;
    report.config = cfg;

    // Golden continuous-power run: the differential reference.
    auto goldenAcc = freshRun(w);
    RunRequest goldenReq;
    goldenReq.fidelity = Fidelity::Functional;
    goldenReq.power = PowerMode::Continuous;
    const RunResult goldenRes = goldenAcc->execute(goldenReq);
    mouse_assert(goldenRes.ok(),
                 "campaign built an invalid golden RunRequest");
    const MachineState golden = captureState(*goldenAcc);
    if (!golden.halted) {
        mouse_fatal("golden run of workload '%s' did not halt",
                    w.name.c_str());
    }
    report.goldenCommitted = goldenRes.stats.instructionsCommitted;
    // One attempt per committed instruction plus the HALT step: the
    // exhaustive enumeration can cut any of them.
    report.goldenAttempts = report.goldenCommitted + 1;
    goldenAcc.reset();

    std::vector<OutageSchedule> schedules =
        enumerateSchedules(cfg, report.goldenAttempts);
    if (cfg.checkpointPeriod > 1) {
        // SONIC-style windows may only restart at hazard-free
        // boundaries; the placement depends on the program, so it is
        // computed here and stamped into every schedule (and from
        // there into replay artifacts).
        const std::vector<std::uint32_t> cps = idempotentCheckpoints(
            w.program, cfg.checkpointPeriod);
        for (OutageSchedule &s : schedules) {
            s.checkpoints = cps;
        }
    }

    const exp::ExperimentRunner runner(cfg.threads);
    std::vector<PointOutcome> outcomes = runner.map(
        schedules.size(), [&](std::size_t i) {
            const OutageSchedule &s = schedules[i];
            const std::uint64_t guard =
                guardFor(s, report.goldenAttempts);
            PointOutcome o = runSchedule(w, s, golden,
                                         report.goldenCommitted,
                                         guard);
            if (failing(o.verdict)) {
                o.shrunk = shrinkSchedule(w, s, golden,
                                          report.goldenCommitted,
                                          guard, o.shrinkRuns);
            }
            return o;
        });

    // Fold per-point verdicts at the join, in index order, into the
    // report counters and the inject.* stat tree.
    report.stats = std::make_shared<obs::StatRegistry>();
    obs::Counter &stPoints = report.stats->counter(
        "inject.points", "injection points executed");
    obs::Counter &stMismatch = report.stats->counter(
        "inject.mismatches",
        "points whose final state diverged from golden");
    obs::Counter &stReplays = report.stats->counter(
        "inject.replays",
        "idempotently re-executed instruction commits");
    obs::Counter &stShrink = report.stats->counter(
        "inject.shrink.runs", "extra runs spent minimizing");
    std::array<obs::Counter *, kNumVerdicts> stVerdict{};
    for (std::size_t v = 0; v < kNumVerdicts; ++v) {
        stVerdict[v] = &report.stats->counter(
            std::string("inject.verdict.") +
                verdictName(static_cast<Verdict>(v)),
            "points with this verdict");
    }
    for (PointOutcome &o : outcomes) {
        ++report.points;
        stPoints.increment();
        ++report.verdicts[static_cast<std::size_t>(o.verdict)];
        stVerdict[static_cast<std::size_t>(o.verdict)]->increment();
        report.replays += o.reexecuted;
        stReplays += o.reexecuted;
        stShrink += o.shrinkRuns;
        if (failing(o.verdict)) {
            ++report.mismatches;
            stMismatch.increment();
            if (report.failures.size() < cfg.maxFailuresKept) {
                report.failures.push_back(std::move(o));
            }
        }
    }
    return report;
}

std::string
CampaignReport::toJson() const
{
    std::string j = "{";
    j += "\"schema\":" + std::to_string(kResultSchemaVersion);
    j += ",\"workload\":\"" + jsonEscape(workload) + "\"";
    j += ",\"campaign\":{";
    j += "\"checkpoint_period\":" +
         std::to_string(config.checkpointPeriod);
    j += ",\"restore_journal\":";
    j += config.restoreJournal ? "true" : "false";
    j += ",\"fractions\":[";
    for (std::size_t i = 0; i < config.fractions.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += num(config.fractions[i]);
    }
    j += "],\"random_schedules\":" +
         std::to_string(config.randomSchedules);
    j += ",\"max_outages\":" +
         std::to_string(config.maxOutagesPerSchedule);
    j += ",\"root_seed\":" + std::to_string(config.rootSeed);
    j += "},\"golden\":{";
    j += "\"committed\":" + std::to_string(goldenCommitted);
    j += ",\"attempts\":" + std::to_string(goldenAttempts);
    j += "},\"points\":" + std::to_string(points);
    j += ",\"mismatches\":" + std::to_string(mismatches);
    j += ",\"replays\":" + std::to_string(replays);
    j += ",\"verdicts\":{";
    for (std::size_t v = 0; v < kNumVerdicts; ++v) {
        if (v > 0) {
            j += ",";
        }
        j += "\"";
        j += verdictName(static_cast<Verdict>(v));
        j += "\":" + std::to_string(verdicts[v]);
    }
    j += "},\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const PointOutcome &f = failures[i];
        if (i > 0) {
            j += ",";
        }
        j += "{\"verdict\":\"";
        j += verdictName(f.verdict);
        j += "\",\"committed\":" + std::to_string(f.committed);
        j += ",\"reexecuted\":" + std::to_string(f.reexecuted);
        j += ",\"shrink_runs\":" + std::to_string(f.shrinkRuns);
        j += ",\"note\":\"" + jsonEscape(f.note) + "\"";
        j += ",\"schedule\":" + f.schedule.toJson();
        j += ",\"shrunk\":" + f.shrunk.toJson();
        j += "}";
    }
    j += "]";
    if (stats && !stats->empty()) {
        j += ",\"stat_registry\":" + stats->toJson();
    }
    j += "}";
    return j;
}

} // namespace mouse::inject
