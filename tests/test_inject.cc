/**
 * @file
 * Fault-injection engine tests (src/inject, docs/FAULT_INJECTION.md).
 *
 * The headline claims proved here:
 *  - MOUSE (per-cycle checkpointing, journal restored) survives an
 *    exhaustive campaign — every attempt x micro-step x fraction —
 *    with zero mismatches and zero re-execution.
 *  - A SONIC-style checkpoint window yields *reexecuted* verdicts
 *    (state identical, extra commits), never corruption.
 *  - Disabling the journal-restore path produces real corruption,
 *    which the shrinker minimizes to a single-outage reproducer.
 *  - Reports are byte-identical across thread counts.
 */

#include <gtest/gtest.h>

#include "inject/campaign.hh"
#include "inject/replay.hh"
#include "arch/tile.hh"
#include "inject/workload.hh"
#include "sim/outage_schedule.hh"

using namespace mouse;
using namespace mouse::inject;

namespace
{

CampaignWorkload
gates()
{
    auto w = makeCampaignWorkload("gates");
    EXPECT_TRUE(w.has_value());
    return *w;
}

} // namespace

// ---------------------------------------------------------------------
// Schedule plumbing.
// ---------------------------------------------------------------------

TEST(OutageScheduleJson, RoundTrips)
{
    OutageSchedule s;
    s.checkpointPeriod = 4;
    s.restoreJournal = false;
    s.points.push_back({7, MicroStep::kCommit, 1.0});
    s.points.push_back({2, MicroStep::kFetch, 0.25});
    s.normalize();
    ASSERT_EQ(s.points[0].attempt, 2u);

    const auto back = OutageSchedule::fromJson(s.toJson());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->checkpointPeriod, 4u);
    EXPECT_FALSE(back->restoreJournal);
    ASSERT_EQ(back->points.size(), 2u);
    EXPECT_EQ(back->points[0], s.points[0]);
    EXPECT_EQ(back->points[1], s.points[1]);

    // Unknown keys of any type are skipped.
    const auto extra = OutageSchedule::fromJson(
        "{\"note\":{\"by\":[\"hand\",null]},\"checkpoint_period\":3}");
    ASSERT_TRUE(extra.has_value());
    EXPECT_EQ(extra->checkpointPeriod, 3u);
}

TEST(OutageScheduleJson, RejectsMalformedInput)
{
    EXPECT_FALSE(OutageSchedule::fromJson("").has_value());
    EXPECT_FALSE(OutageSchedule::fromJson("not json").has_value());
    EXPECT_FALSE(
        OutageSchedule::fromJson("{\"outages\":[{\"step\":"
                                 "\"warp\"}]}")
            .has_value());
    // Counts are exact integers within their field's range, and
    // nothing may follow the document.
    for (const char *bad : {
             "{\"checkpoint_period\":nan}",
             "{\"checkpoint_period\":0}",
             "{\"checkpoint_period\":1e12}",
             "{\"checkpoint_period\":2.7}",
             "{\"checkpoints\":[0,-1]}",
             "{\"outages\":[{\"attempt\":1e30}]}",
             "{\"outages\":[{\"attempt\":2.5}]}",
             "{\"outages\":[{\"fraction\":1.5}]}",
             "{\"outages\":[]} trailing",
         }) {
        EXPECT_FALSE(OutageSchedule::fromJson(bad).has_value()) << bad;
    }
}

TEST(OutageScheduleJson, MicroStepNamesRoundTrip)
{
    for (MicroStep s :
         {MicroStep::kFetch, MicroStep::kExecute, MicroStep::kWritePc,
          MicroStep::kCommit}) {
        const auto back = parseMicroStep(microStepName(s));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, s);
    }
    EXPECT_FALSE(parseMicroStep("warp").has_value());
}

// ---------------------------------------------------------------------
// Scheduled runner semantics.
// ---------------------------------------------------------------------

TEST(ScheduledRun, EmptyScheduleEqualsContinuousRun)
{
    const CampaignWorkload w = gates();

    auto cont = freshRun(w);
    RunRequest creq;
    const RunResult cres = cont->execute(creq);
    const MachineState cstate = captureState(*cont);

    auto sched = freshRun(w);
    OutageSchedule empty;
    RunRequest sreq;
    sreq.power = PowerMode::Scheduled;
    sreq.schedule = observe(empty);
    const RunResult sres = sched->execute(sreq);
    const MachineState sstate = captureState(*sched);

    EXPECT_EQ(sres.stats.instructionsCommitted,
              cres.stats.instructionsCommitted);
    EXPECT_EQ(sres.stats.outages, 0u);
    EXPECT_EQ(diffState(cstate, sstate), "");
}

TEST(ScheduledRun, OutageIsCountedAndRunStillCompletes)
{
    const CampaignWorkload w = gates();
    OutageSchedule s;
    s.points.push_back({3, MicroStep::kExecute, 0.5});

    auto acc = freshRun(w);
    RunRequest req;
    req.power = PowerMode::Scheduled;
    req.schedule = observe(s);
    const RunResult res = acc->execute(req);
    EXPECT_TRUE(acc->controller().halted());
    EXPECT_EQ(res.stats.outages, 1u);
    EXPECT_EQ(res.stats.instructionsDead, 1u);
}

// ---------------------------------------------------------------------
// The headline result: MOUSE is intermittent-correct at every cut.
// ---------------------------------------------------------------------

TEST(Campaign, ExhaustiveMouseCampaignIsClean)
{
    const CampaignWorkload w = gates();
    CampaignConfig cfg;
    const CampaignReport r = runCampaign(w, cfg);

    EXPECT_GT(r.goldenCommitted, 0u);
    // Every attempt (including the HALT step) x 4 micro-steps x 3
    // fractions.
    EXPECT_EQ(r.points, r.goldenAttempts * 4 * 3);
    EXPECT_EQ(r.mismatches, 0u);
    EXPECT_EQ(r.replays, 0u);
    EXPECT_EQ(r.verdicts[static_cast<std::size_t>(Verdict::kMatch)],
              r.points);
    EXPECT_TRUE(r.clean());
    EXPECT_TRUE(r.failures.empty());

    // The stat tree folded one count per point.
    ASSERT_TRUE(r.stats != nullptr);
    EXPECT_EQ(
        static_cast<std::uint64_t>(
            r.stats->counterValue("inject.points")),
        r.points);
    EXPECT_EQ(r.stats->counterValue("inject.mismatches"), 0.0);
}

TEST(Campaign, RandomMultiOutageSchedulesAreCleanToo)
{
    const CampaignWorkload w = gates();
    CampaignConfig cfg;
    cfg.fractions = {0.5};
    cfg.randomSchedules = 24;
    cfg.maxOutagesPerSchedule = 4;
    const CampaignReport r = runCampaign(w, cfg);
    EXPECT_EQ(r.points, r.goldenAttempts * 4 + 24);
    EXPECT_EQ(r.mismatches, 0u);
}

// ---------------------------------------------------------------------
// SONIC-style window checkpointing: re-execution expected, not
// corruption.
// ---------------------------------------------------------------------

TEST(Campaign, SonicWindowReexecutesButStaysIdempotent)
{
    const CampaignWorkload w = gates();
    CampaignConfig cfg;
    cfg.checkpointPeriod = 4;
    cfg.fractions = {1.0};
    const CampaignReport r = runCampaign(w, cfg);

    EXPECT_EQ(r.mismatches, 0u) << "window replay must be idempotent";
    // Any cut past the first window boundary rolls back and
    // re-executes committed work.
    EXPECT_GT(
        r.verdicts[static_cast<std::size_t>(Verdict::kReexecuted)],
        0u);
    EXPECT_GT(r.replays, 0u);
    EXPECT_EQ(
        r.verdicts[static_cast<std::size_t>(Verdict::kCorrupted)],
        0u);
}

// ---------------------------------------------------------------------
// A deliberately broken restart path is caught and shrunk.
// ---------------------------------------------------------------------

TEST(Campaign, BrokenRestartPathIsCaughtAndShrunk)
{
    const CampaignWorkload w = gates();
    CampaignConfig cfg;
    cfg.restoreJournal = false;
    cfg.fractions = {0.5};
    const CampaignReport r = runCampaign(w, cfg);

    // Skipping the Activate-Columns replay leaves the column latch
    // empty: gate pulses after the first cut drive nothing.
    ASSERT_GT(r.mismatches, 0u)
        << "a defective restart path must not pass the checker";
    ASSERT_FALSE(r.failures.empty());
    for (const PointOutcome &f : r.failures) {
        EXPECT_EQ(f.verdict, Verdict::kCorrupted);
        EXPECT_FALSE(f.note.empty());
        // Single-cut schedules are already minimal.
        EXPECT_EQ(f.shrunk.points.size(), 1u);
    }
}

TEST(Shrinker, MinimizesMultiOutageScheduleToSinglePoint)
{
    const CampaignWorkload w = gates();

    // Golden reference.
    auto acc = freshRun(w);
    RunRequest req;
    const std::uint64_t committed =
        acc->execute(req).stats.instructionsCommitted;
    const MachineState golden = captureState(*acc);
    acc.reset();

    // Three outages; with restoreJournal off each alone corrupts,
    // so the shrinker must get down to exactly one point.
    OutageSchedule s;
    s.restoreJournal = false;
    s.points.push_back({1, MicroStep::kExecute, 0.5});
    s.points.push_back({3, MicroStep::kCommit, 1.0});
    s.points.push_back({5, MicroStep::kExecute, 0.5});

    const PointOutcome o =
        runSchedule(w, s, golden, committed, committed + 32);
    ASSERT_EQ(o.verdict, Verdict::kCorrupted);

    std::uint64_t runs = 0;
    const OutageSchedule small =
        shrinkSchedule(w, s, golden, committed, committed + 32, runs);
    EXPECT_EQ(small.points.size(), 1u);
    EXPECT_GT(runs, 0u);
    const PointOutcome confirm =
        runSchedule(w, small, golden, committed, committed + 32);
    EXPECT_EQ(confirm.verdict, Verdict::kCorrupted);
}

// ---------------------------------------------------------------------
// Determinism: the report is byte-identical for any thread count.
// ---------------------------------------------------------------------

TEST(Campaign, ReportIsByteIdenticalAcrossThreadCounts)
{
    const CampaignWorkload w = gates();
    CampaignConfig cfg;
    cfg.fractions = {0.0, 1.0};
    cfg.randomSchedules = 8;

    cfg.threads = 1;
    const std::string serial = runCampaign(w, cfg).toJson();
    cfg.threads = 4;
    const std::string parallel = runCampaign(w, cfg).toJson();
    EXPECT_EQ(serial, parallel);

    // And a failing campaign stays deterministic too (failures list
    // + shrinker results fold in index order).
    cfg.restoreJournal = false;
    cfg.threads = 1;
    const std::string fserial = runCampaign(w, cfg).toJson();
    cfg.threads = 4;
    const std::string fparallel = runCampaign(w, cfg).toJson();
    EXPECT_EQ(fserial, fparallel);
}

TEST(Campaign, ReportIsByteIdenticalScalarVsWordParallel)
{
    // The word-parallel tile fast path must not move a single
    // verdict: a campaign run through the retained scalar oracle
    // (the pre-fast-path model) serializes byte-for-byte the same.
    const CampaignWorkload w = gates();
    CampaignConfig cfg;
    cfg.fractions = {0.0, 0.5, 1.0};
    cfg.randomSchedules = 4;
    cfg.threads = 2;

    Tile::setScalarOracle(true);
    const std::string golden = runCampaign(w, cfg).toJson();
    Tile::setScalarOracle(false);
    const std::string fast = runCampaign(w, cfg).toJson();
    EXPECT_EQ(golden, fast);
}

// ---------------------------------------------------------------------
// Report and replay artifacts.
// ---------------------------------------------------------------------

TEST(Report, CarriesSchemaVersionAndVerdictTaxonomy)
{
    const CampaignWorkload w = gates();
    CampaignConfig cfg;
    cfg.fractions = {0.5};
    const std::string j = runCampaign(w, cfg).toJson();
    // mouse-lint: allow(schema-constants) -- golden pin: the test
    // hardcodes the published version on purpose, so an accidental
    // bump of the central constant fails here.
    EXPECT_NE(j.find("\"schema\":8"), std::string::npos);
    EXPECT_NE(j.find("\"workload\":\"gates\""), std::string::npos);
    EXPECT_NE(j.find("\"verdicts\":{\"match\":"), std::string::npos);
    EXPECT_NE(j.find("\"stat_registry\":"), std::string::npos);
    EXPECT_EQ(j.find("wall_seconds"), std::string::npos)
        << "report must not embed wall clock (byte-stable)";
}

TEST(Replay, ArtifactRoundTripsAndReproduces)
{
    OutageSchedule s;
    s.restoreJournal = false;
    s.points.push_back({2, MicroStep::kCommit, 1.0});

    const std::string artifact = replayArtifactJson("gates", s);
    const auto parsed = parseReplayArtifact(artifact);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->workload, "gates");
    ASSERT_EQ(parsed->schedule.points.size(), 1u);
    EXPECT_EQ(parsed->schedule.points[0], s.points[0]);
    EXPECT_FALSE(parsed->schedule.restoreJournal);

    const PointOutcome o =
        replaySchedule(gates(), parsed->schedule);
    EXPECT_EQ(o.verdict, Verdict::kCorrupted);

    // The workload name is a decoded JSON string.
    const auto quoted =
        parseReplayArtifact(replayArtifactJson("a\"b", s));
    ASSERT_TRUE(quoted.has_value());
    EXPECT_EQ(quoted->workload, "a\"b");
}

TEST(Replay, PicksShrunkScheduleOutOfCampaignReport)
{
    const CampaignWorkload w = gates();
    CampaignConfig cfg;
    cfg.restoreJournal = false;
    cfg.fractions = {0.5};
    const CampaignReport r = runCampaign(w, cfg);
    ASSERT_FALSE(r.failures.empty());

    const auto parsed = parseReplayArtifact(r.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->workload, "gates");
    EXPECT_EQ(parsed->schedule.points.size(),
              r.failures[0].shrunk.points.size());

    const PointOutcome o = replaySchedule(w, parsed->schedule);
    EXPECT_EQ(o.verdict, Verdict::kCorrupted);
}

TEST(Replay, RejectsGarbage)
{
    EXPECT_FALSE(parseReplayArtifact("").has_value());
    EXPECT_FALSE(parseReplayArtifact("{\"workload\":\"gates\"}")
                     .has_value());
    EXPECT_FALSE(
        parseReplayArtifact("{\"schedule\":{\"outages\":[]}}")
            .has_value());
}

// ---------------------------------------------------------------------
// Workload registry.
// ---------------------------------------------------------------------

TEST(Workloads, RegistryIsConsistent)
{
    for (const std::string &name : campaignWorkloadNames()) {
        const auto w = makeCampaignWorkload(name);
        ASSERT_TRUE(w.has_value()) << name;
        EXPECT_EQ(w->name, name);
        EXPECT_FALSE(w->description.empty());
        EXPECT_GT(w->program.size(), 0u) << name;
    }
    EXPECT_FALSE(makeCampaignWorkload("no-such").has_value());
}

TEST(Workloads, SeedingIsDeterministic)
{
    const CampaignWorkload w = gates();
    auto a = freshRun(w);
    auto b = freshRun(w);
    EXPECT_EQ(diffState(captureState(*a), captureState(*b)), "");
}
