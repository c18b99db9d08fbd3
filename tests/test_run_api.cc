/**
 * @file
 * Tests for the unified RunRequest/RunResult API: structured
 * validation of malformed requests (typed RunError instead of a
 * mid-run assert), metadata echo, and JSON serialization with the
 * documented keys.  The legacy shim-equivalence tests left with the
 * shims themselves (docs/EXPERIMENTS_API.md, "Legacy entry points").
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/json.hh"
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
    // mouse-lint: allow(schema-constants) -- golden pin: the test
    // hardcodes the published version on purpose, so an accidental
    // bump of the central constant fails here.
    EXPECT_NE(j.find("\"schema\":8"), std::string::npos);
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
    EXPECT_TRUE(json::parse(j).has_value()) << j;

    // Non-finite stats still make a JSON document.
    RunResult inf = res;
    inf.stats.deadEnergy = std::numeric_limits<double>::infinity();
    const auto doc = json::parse(inf.toJson());
    ASSERT_TRUE(doc.has_value()) << inf.toJson();
    EXPECT_EQ(doc->find("stats")->find("dead_energy_j")->number, 1e308);
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

    // scheduled() then harvested(): same for the harvested request.
    const RunRequest harvested = RunRequestBuilder()
                                     .scheduled(s, 9)
                                     .harvested(HarvestConfig{})
                                     .build();
    EXPECT_EQ(validateRunRequest(harvested), RunError::kNone);
    EXPECT_EQ(harvested.power, PowerMode::Harvested);
    EXPECT_FALSE(harvested.schedule);
    EXPECT_EQ(harvested.maxAttempts, 0u);
}

} // namespace
} // namespace mouse
