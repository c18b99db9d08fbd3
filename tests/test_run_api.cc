/**
 * @file
 * Tests for the unified RunRequest/RunResult API: structured
 * validation of malformed requests (typed RunError instead of a
 * mid-run assert), metadata echo, and JSON serialization with the
 * documented keys.  The legacy shim-equivalence tests left with the
 * shims themselves (docs/EXPERIMENTS_API.md, "Legacy entry points").
 */

#include <gtest/gtest.h>

#include "core/accelerator.hh"

namespace mouse
{
namespace
{

MouseConfig
smallConfig()
{
    MouseConfig cfg;
    cfg.tech = TechConfig::ProjectedStt;
    cfg.array.tileRows = 128;
    cfg.array.tileCols = 8;
    cfg.array.numDataTiles = 2;
    cfg.array.numInstructionTiles = 512;
    return cfg;
}

Program
adderProgram(const Accelerator &acc)
{
    KernelBuilder kb(acc.gateLibrary(), acc.config().array, 0, 16);
    kb.activate(0, 3);
    const Word a = kb.pinnedWord(0, 4);
    const Word b = kb.pinnedWord(8, 4);
    (void)kb.add(a, b);
    return kb.finish();
}

TEST(RunApi, ExecuteRunsFunctionalAndTrace)
{
    Accelerator acc(smallConfig());
    const Program prog = adderProgram(acc);
    acc.loadProgram(prog);

    RunRequest req;
    req.fidelity = Fidelity::Functional;
    req.power = PowerMode::Continuous;
    const RunResult func = acc.execute(req);
    EXPECT_TRUE(func.ok());
    EXPECT_GT(func.stats.instructionsCommitted, 0u);
    EXPECT_GE(func.wallSeconds, 0.0);
    EXPECT_FALSE(func.meta.tech.empty());

    const Trace trace = Trace::fromProgram(prog, acc.config().array);
    req.fidelity = Fidelity::Trace;
    req.trace = observe(trace);
    const RunResult traced = acc.execute(req);
    EXPECT_TRUE(traced.ok());
    EXPECT_GT(traced.stats.computeEnergy, 0.0);
}

TEST(RunApi, HarvestedMetaEcho)
{
    Accelerator acc(smallConfig());
    acc.loadProgram(adderProgram(acc));
    RunRequest req;
    req.power = PowerMode::Harvested;
    req.harvest.source = SourceSpec::constant(2e-6);
    req.harvest.seed = 99;
    const RunResult got = acc.execute(req);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got.meta.seed, 99u);
    EXPECT_EQ(got.meta.power, 2e-6);
    EXPECT_EQ(got.meta.source, "constant");
}

TEST(RunApi, LabelIsEchoedIntoMeta)
{
    Accelerator acc(smallConfig());
    const Program prog = adderProgram(acc);
    const Trace trace = Trace::fromProgram(prog, acc.config().array);
    RunRequest req;
    req.fidelity = Fidelity::Trace;
    req.trace = observe(trace);
    req.label = "point-7";
    EXPECT_EQ(acc.execute(req).meta.label, "point-7");
}

TEST(RunApi, JsonCarriesStatsAndMeta)
{
    Accelerator acc(smallConfig());
    const Program prog = adderProgram(acc);
    const Trace trace = Trace::fromProgram(prog, acc.config().array);
    RunRequest req;
    req.fidelity = Fidelity::Trace;
    req.trace = observe(trace);
    req.label = "json \"probe\"";
    const RunResult res = acc.execute(req);
    const std::string j = res.toJson();
    EXPECT_NE(j.find("\"instructions_committed\":"),
              std::string::npos);
    EXPECT_NE(j.find("\"total_energy_j\":"), std::string::npos);
    EXPECT_NE(j.find("\"wall_seconds\":"), std::string::npos);
    EXPECT_NE(j.find("\"tech\":\"Projected STT\""),
              std::string::npos);
    // Quotes in labels must be escaped.
    EXPECT_NE(j.find("json \\\"probe\\\""), std::string::npos);
    // Valid runs carry no error field.
    EXPECT_EQ(j.find("\"error\":"), std::string::npos);
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '}');
}

// -- Structured validation: each invalid combination is rejected ----
// with a typed error instead of a mid-run assert, stats stay zero,
// and nothing is simulated.

void
expectRejected(Accelerator &acc, const RunRequest &req, RunError want)
{
    const RunResult res = acc.execute(req);
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.error, want);
    EXPECT_EQ(res.stats.instructionsCommitted, 0u);
    EXPECT_EQ(res.stats.totalEnergy(), 0.0);
    // Metadata still identifies the rejecting configuration.
    EXPECT_FALSE(res.meta.tech.empty());
    // The JSON carries the machine-readable error name.
    const std::string j = res.toJson();
    EXPECT_NE(j.find(std::string("\"error\":\"") +
                     runErrorName(want) + "\""),
              std::string::npos);
}

TEST(RunApi, TraceFidelityWithoutTraceIsRejected)
{
    Accelerator acc(smallConfig());
    RunRequest req;
    req.fidelity = Fidelity::Trace;
    EXPECT_EQ(validateRunRequest(req), RunError::kTraceMissing);
    expectRejected(acc, req, RunError::kTraceMissing);
}

TEST(RunApi, ScheduledPowerWithoutScheduleIsRejected)
{
    Accelerator acc(smallConfig());
    RunRequest req;
    req.power = PowerMode::Scheduled;
    EXPECT_EQ(validateRunRequest(req), RunError::kScheduleMissing);
    expectRejected(acc, req, RunError::kScheduleMissing);
}

TEST(RunApi, ScheduleWithNonScheduledPowerIsRejected)
{
    Accelerator acc(smallConfig());
    OutageSchedule schedule;
    RunRequest req;
    req.power = PowerMode::Continuous;
    req.schedule = observe(schedule);
    EXPECT_EQ(validateRunRequest(req),
              RunError::kScheduleWithoutScheduledPower);
    expectRejected(acc, req,
                   RunError::kScheduleWithoutScheduledPower);
}

TEST(RunApi, MaxAttemptsWithNonScheduledPowerIsRejected)
{
    Accelerator acc(smallConfig());
    RunRequest req;
    req.power = PowerMode::Harvested;
    req.maxAttempts = 32;
    EXPECT_EQ(validateRunRequest(req),
              RunError::kMaxAttemptsWithoutScheduledPower);
    expectRejected(acc, req,
                   RunError::kMaxAttemptsWithoutScheduledPower);
}

TEST(RunApi, ScheduledTraceFidelityIsRejected)
{
    Accelerator acc(smallConfig());
    const Program prog = adderProgram(acc);
    const Trace trace = Trace::fromProgram(prog, acc.config().array);
    OutageSchedule schedule;
    RunRequest req;
    req.fidelity = Fidelity::Trace;
    req.trace = observe(trace);
    req.power = PowerMode::Scheduled;
    req.schedule = observe(schedule);
    EXPECT_EQ(validateRunRequest(req),
              RunError::kScheduledTraceFidelity);
    expectRejected(acc, req, RunError::kScheduledTraceFidelity);
}

TEST(RunApi, InvalidHarvestSourceIsRejected)
{
    Accelerator acc(smallConfig());
    RunRequest req;
    req.power = PowerMode::Harvested;
    req.harvest.source = SourceSpec::constant(0.0);
    EXPECT_EQ(validateRunRequest(req),
              RunError::kHarvestSourceInvalid);
    expectRejected(acc, req, RunError::kHarvestSourceInvalid);

    req.harvest.source =
        SourceSpec::trace(std::vector<TracePowerSource::Segment>{});
    expectRejected(acc, req, RunError::kHarvestSourceInvalid);

    req.harvest.source = SourceSpec::corpusTrace("no-such-trace");
    expectRejected(acc, req, RunError::kHarvestSourceInvalid);

    req.harvest.source = SourceSpec::square(0.01, 1.5, 200e-6);
    expectRejected(acc, req, RunError::kHarvestSourceInvalid);
}

TEST(RunApi, UnknownHarvestPlatformIsRejected)
{
    Accelerator acc(smallConfig());
    RunRequest req;
    req.power = PowerMode::Harvested;
    req.harvest.platform = "mars-rover";
    EXPECT_EQ(validateRunRequest(req),
              RunError::kHarvestPlatformUnknown);
    expectRejected(acc, req, RunError::kHarvestPlatformUnknown);

    // A catalog name passes validation.
    req.harvest.platform = "mementos";
    EXPECT_EQ(validateRunRequest(req), RunError::kNone);

    // The source is checked before the platform.
    req.harvest.source = SourceSpec::constant(-1.0);
    req.harvest.platform = "mars-rover";
    EXPECT_EQ(validateRunRequest(req),
              RunError::kHarvestSourceInvalid);
}

TEST(RunApi, RunErrorNamesAndMessagesAreStable)
{
    EXPECT_STREQ(runErrorName(RunError::kNone), "none");
    EXPECT_STREQ(runErrorName(RunError::kTraceMissing),
                 "trace_missing");
    EXPECT_STREQ(runErrorName(RunError::kScheduleMissing),
                 "schedule_missing");
    EXPECT_STREQ(
        runErrorName(RunError::kScheduleWithoutScheduledPower),
        "schedule_without_scheduled_power");
    EXPECT_STREQ(
        runErrorName(RunError::kMaxAttemptsWithoutScheduledPower),
        "max_attempts_without_scheduled_power");
    EXPECT_STREQ(runErrorName(RunError::kScheduledTraceFidelity),
                 "scheduled_trace_fidelity");
    EXPECT_STREQ(runErrorName(RunError::kHarvestSourceInvalid),
                 "harvest_source_invalid");
    EXPECT_STREQ(runErrorName(RunError::kHarvestPlatformUnknown),
                 "harvest_platform_unknown");
    // Every message spells out the fix.
    EXPECT_NE(std::string(runErrorMessage(RunError::kTraceMissing))
                  .find("req.trace"),
              std::string::npos);
    EXPECT_NE(
        std::string(runErrorMessage(RunError::kScheduleMissing))
            .find("req.schedule"),
        std::string::npos);
}

// -- Observer types and the builder ---------------------------------

TEST(RunApi, ObserverPtrSemantics)
{
    const int x = 7;
    ObserverPtr<const int> p;
    EXPECT_FALSE(p);
    p = observe(x);
    ASSERT_TRUE(p);
    EXPECT_EQ(*p, 7);
    EXPECT_EQ(p.get(), &x);
    EXPECT_TRUE(p == observe(x));
    p = nullptr;
    EXPECT_FALSE(p);
}

TEST(RunApi, BuilderProducesValidRequests)
{
    const RunRequest cont = RunRequestBuilder()
                                .functional()
                                .continuous()
                                .label("c")
                                .build();
    EXPECT_EQ(validateRunRequest(cont), RunError::kNone);
    EXPECT_EQ(cont.power, PowerMode::Continuous);
    EXPECT_EQ(cont.label, "c");

    HarvestConfig h;
    h.source = SourceSpec::constant(3e-6);
    const RunRequest harv =
        RunRequestBuilder().harvested(h).build();
    EXPECT_EQ(validateRunRequest(harv), RunError::kNone);
    EXPECT_EQ(harv.harvest.source.constantPower, 3e-6);

    OutageSchedule s;
    const RunRequest sched =
        RunRequestBuilder().scheduled(s, 42).build();
    EXPECT_EQ(validateRunRequest(sched), RunError::kNone);
    EXPECT_EQ(sched.schedule.get(), &s);
    EXPECT_EQ(sched.maxAttempts, 42u);
}

TEST(RunApi, BuilderModeSwitchesClearStaleFields)
{
    // scheduled() then continuous(): the schedule and attempt guard
    // must not leak into the continuous request (which would be
    // rejected by validation).
    OutageSchedule s;
    const RunRequest req = RunRequestBuilder()
                               .scheduled(s, 9)
                               .continuous()
                               .build();
    EXPECT_EQ(validateRunRequest(req), RunError::kNone);
    EXPECT_FALSE(req.schedule);
    EXPECT_EQ(req.maxAttempts, 0u);
}

TEST(RunApi, BuilderTracedSourceDropsStaleScheduleFields)
{
    // scheduled() then tracedSource(): the new harvested request
    // must not keep the outage schedule or attempt guard.
    OutageSchedule s;
    const RunRequest req =
        RunRequestBuilder()
            .scheduled(s, 9)
            .tracedSource(SourceSpec::corpusTrace("rf-bursty"))
            .build();
    EXPECT_EQ(validateRunRequest(req), RunError::kNone);
    EXPECT_EQ(req.power, PowerMode::Harvested);
    EXPECT_FALSE(req.schedule);
    EXPECT_EQ(req.maxAttempts, 0u);
    EXPECT_EQ(req.harvest.source.corpus, "rf-bursty");
}

TEST(RunApi, BuilderPlatformComposesWithSources)
{
    OutageSchedule s;
    const RunRequest req = RunRequestBuilder()
                               .scheduled(s, 9)
                               .platform("nvp")
                               .build();
    EXPECT_EQ(validateRunRequest(req), RunError::kNone);
    EXPECT_EQ(req.power, PowerMode::Harvested);
    EXPECT_FALSE(req.schedule);
    EXPECT_EQ(req.harvest.platform, "nvp");
    // Default source survives a platform-only selection.
    EXPECT_TRUE(req.harvest.source.isConstant());

    // Order does not matter: source then platform keeps both.
    const RunRequest both =
        RunRequestBuilder()
            .tracedSource(SourceSpec::square(0.01, 0.3, 200e-6))
            .platform("batteryless")
            .build();
    EXPECT_EQ(validateRunRequest(both), RunError::kNone);
    EXPECT_EQ(both.harvest.source.kind, SourceKind::kSquare);
    EXPECT_EQ(both.harvest.platform, "batteryless");
}

// -- Asynchronous submit/poll/wait ----------------------------------

TEST(RunApi, SubmitWaitMatchesExecute)
{
    Accelerator sync(smallConfig());
    const Program prog = adderProgram(sync);
    sync.loadProgram(prog);
    const RunResult direct = sync.execute(RunRequest{});

    Accelerator async(smallConfig());
    async.loadProgram(prog);
    const RequestHandle h = async.submit(RunRequest{});
    EXPECT_EQ(async.pendingRequests(), 1u);
    const RunResult queued = async.wait(h);
    EXPECT_EQ(async.pendingRequests(), 0u);
    EXPECT_TRUE(queued.ok());
    EXPECT_EQ(queued.stats.instructionsCommitted,
              direct.stats.instructionsCommitted);
    EXPECT_EQ(queued.stats.totalEnergy(),
              direct.stats.totalEnergy());
    // Serve metadata appears only on the async path.
    EXPECT_FALSE(direct.serve.present);
    EXPECT_TRUE(queued.serve.present);
    EXPECT_EQ(queued.serve.requestId, h.id);
    EXPECT_EQ(queued.serve.queueDepth, 0u);
    EXPECT_GE(queued.serve.queueSeconds, 0.0);
}

TEST(RunApi, PollAdvancesQueueInSubmissionOrder)
{
    Accelerator acc(smallConfig());
    acc.loadProgram(adderProgram(acc));
    const RequestHandle h1 = acc.submit(RunRequest{});
    const RequestHandle h2 = acc.submit(RunRequest{});
    EXPECT_NE(h1.id, h2.id);
    EXPECT_EQ(acc.pendingRequests(), 2u);

    // Polling the *second* request first runs the first request (at
    // most one run per poll), so the first poll comes back empty.
    std::optional<RunResult> r2 = acc.poll(h2);
    EXPECT_FALSE(r2.has_value());
    EXPECT_EQ(acc.pendingRequests(), 1u);
    r2 = acc.poll(h2);
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->serve.requestId, h2.id);
    EXPECT_EQ(r2->serve.queueDepth, 1u);

    // The first result was filed and is still redeemable.
    const std::optional<RunResult> r1 = acc.poll(h1);
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->serve.requestId, h1.id);
    // A handle redeems at most once.
    EXPECT_FALSE(acc.poll(h1).has_value());
}

TEST(RunApi, SubmittedInvalidRequestCarriesTypedError)
{
    Accelerator acc(smallConfig());
    acc.loadProgram(adderProgram(acc));
    RunRequest bad;
    bad.fidelity = Fidelity::Trace;  // no trace attached
    const RunResult res = acc.wait(acc.submit(bad));
    EXPECT_FALSE(res.ok());
    EXPECT_EQ(res.error, RunError::kTraceMissing);
    EXPECT_TRUE(res.serve.present);
}

TEST(RunApi, ServeJsonBlockIsSchemaV6)
{
    Accelerator acc(smallConfig());
    acc.loadProgram(adderProgram(acc));
    const RunResult direct = acc.execute(RunRequest{});
    // Schema 4 everywhere; the serve block only on async results.
    // mouse-lint: allow(schema-constants) -- golden pin: the test
    // hardcodes the published version on purpose, so an accidental
    // bump of the central constant fails here.
    EXPECT_NE(direct.toJson().find("\"schema\":7"),
              std::string::npos);
    EXPECT_EQ(direct.toJson().find("\"serve\":"),
              std::string::npos);

    const RunResult queued = acc.wait(acc.submit(RunRequest{}));
    const std::string j = queued.toJson();
    EXPECT_NE(j.find("\"serve\":{"), std::string::npos);
    EXPECT_NE(j.find("\"request_id\":"), std::string::npos);
    EXPECT_NE(j.find("\"batch_size\":"), std::string::npos);
    EXPECT_NE(j.find("\"queue_depth\":"), std::string::npos);
    EXPECT_NE(j.find("\"queue_seconds\":"), std::string::npos);
}

} // namespace
} // namespace mouse
