/**
 * @file
 * Property fuzzing: randomly generated gate programs executed under
 * continuous power and under harvesting with randomly placed outages
 * must leave identical array contents.  This is the repository's
 * broadest statement of the paper's correctness guarantee — it
 * quantifies over programs, not just hand-written kernels.
 *
 * The document readers that feed those proofs (power traces, outage
 * schedules, replay artifacts and campaign reports) are fuzzed too,
 * with seeded mutations of valid documents.
 */

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "common/rng.hh"
#include "core/accelerator.hh"
#include "harvest/power_trace.hh"
#include "harvest/trace_corpus.hh"
#include "inject/campaign.hh"
#include "inject/replay.hh"
#include "sim/outage_schedule.hh"

namespace mouse
{
namespace
{

MouseConfig
fuzzConfig()
{
    MouseConfig cfg;
    cfg.tech = TechConfig::ProjectedStt;
    cfg.array.tileRows = 96;
    cfg.array.tileCols = 8;
    cfg.array.numDataTiles = 2;
    cfg.array.numInstructionTiles = 256;
    return cfg;
}

/**
 * Generate a random but *well-formed* program: every gate output is
 * preset first, parities respected, occasional re-activation and
 * cross-tile row transfers.
 */
Program
randomProgram(const GateLibrary &lib, Rng &rng, unsigned length)
{
    const std::vector<GateType> usable = [&] {
        std::vector<GateType> v;
        for (GateType g : lib.feasibleGates()) {
            switch (g) {
              case GateType::kBuf:
              case GateType::kNot:
              case GateType::kAnd2:
              case GateType::kNand2:
              case GateType::kOr2:
              case GateType::kNor2:
              case GateType::kMaj3:
              case GateType::kMin3:
                v.push_back(g);
                break;
              default:
                break;  // not ISA-encodable
            }
        }
        return v;
    }();

    Program prog;
    prog.instructions.push_back(Instruction::activateRange(
        0, static_cast<ColAddr>(rng.between(1, 7))));
    for (unsigned i = 0; i < length; ++i) {
        const auto tile = static_cast<TileAddr>(rng.below(2));
        switch (rng.below(10)) {
          case 0:
            prog.instructions.push_back(Instruction::activateRange(
                static_cast<ColAddr>(rng.below(4)),
                static_cast<ColAddr>(4 + rng.below(4))));
            break;
          case 1: {
            // Row transfer between tiles, sometimes with a barrel
            // shift (cross-column transport).
            prog.instructions.push_back(Instruction::readRow(
                tile, static_cast<RowAddr>(rng.below(96))));
            if (rng.chance(0.5)) {
                prog.instructions.push_back(
                    Instruction::writeRowShifted(
                        static_cast<TileAddr>(1 - tile),
                        static_cast<RowAddr>(rng.below(96)),
                        static_cast<ColAddr>(rng.below(8))));
            } else {
                prog.instructions.push_back(Instruction::writeRow(
                    static_cast<TileAddr>(1 - tile),
                    static_cast<RowAddr>(rng.below(96))));
            }
            break;
          }
          default: {
            const GateType g = usable[rng.below(usable.size())];
            const int n = gateNumInputs(g);
            // Inputs on one parity, output on the other.
            const unsigned in_parity = rng.below(2);
            auto row_of = [&](unsigned parity) {
                return static_cast<RowAddr>(
                    2 * rng.below(48) + parity);
            };
            const RowAddr out = row_of(1 - in_parity);
            prog.instructions.push_back(
                Instruction::preset(gatePreset(g), tile, out));
            switch (n) {
              case 1:
                prog.instructions.push_back(Instruction::gate(
                    g, tile, row_of(in_parity), out));
                break;
              case 2:
                prog.instructions.push_back(Instruction::gate(
                    g, tile, row_of(in_parity), row_of(in_parity),
                    out));
                break;
              default:
                prog.instructions.push_back(Instruction::gate(
                    g, tile, row_of(in_parity), row_of(in_parity),
                    row_of(in_parity), out));
                break;
            }
            break;
          }
        }
    }
    prog.instructions.push_back(Instruction::halt());
    return prog;
}

void
randomizeTiles(Accelerator &acc, Rng &rng)
{
    for (TileAddr t = 0; t < 2; ++t) {
        for (RowAddr r = 0; r < 96; ++r) {
            for (ColAddr c = 0; c < 8; ++c) {
                acc.grid().tile(t).setBit(
                    r, c, static_cast<Bit>(rng.below(2)));
            }
        }
    }
}

TEST(Fuzz, HarvestedEqualsContinuousOverRandomPrograms)
{
    const MouseConfig cfg = fuzzConfig();
    for (std::uint64_t trial = 0; trial < 25; ++trial) {
        Rng rng(9000 + trial);
        Accelerator cont(cfg);
        const Program prog = randomProgram(
            cont.gateLibrary(), rng,
            static_cast<unsigned>(20 + rng.below(60)));

        Rng data_rng(500 + trial);
        cont.loadProgram(prog);
        randomizeTiles(cont, data_rng);
        cont.execute(RunRequest{});

        Accelerator harv(cfg);
        Rng data_rng2(500 + trial);
        harv.loadProgram(prog);
        randomizeTiles(harv, data_rng2);
        HarvestConfig harvest;
        harvest.source = SourceSpec::constant(10e-6);
        harvest.capacitanceOverride = 2e-9;  // frequent outages
        harvest.seed = 777 + trial;
        RunRequest req;
        req.power = PowerMode::Harvested;
        req.harvest = harvest;
        const RunStats stats = harv.execute(req).stats;

        ASSERT_EQ(cont.grid().tile(0).snapshot(),
                  harv.grid().tile(0).snapshot())
            << "trial " << trial << " (outages " << stats.outages
            << ")";
        ASSERT_EQ(cont.grid().tile(1).snapshot(),
                  harv.grid().tile(1).snapshot())
            << "trial " << trial;
    }
}

TEST(Fuzz, ReplayingAnyPrefixTwiceIsIdempotent)
{
    // Stronger than single-instruction idempotency: stop after k
    // instructions, re-execute instruction k many times, continue —
    // the final state must match the straight run.  (This is what
    // the PC protocol's at-most-one-repeat guarantees reduce to.)
    const MouseConfig cfg = fuzzConfig();
    for (std::uint64_t trial = 0; trial < 10; ++trial) {
        Rng rng(4242 + trial);
        Accelerator straight(cfg);
        const Program prog =
            randomProgram(straight.gateLibrary(), rng, 30);

        Rng data_rng(100 + trial);
        straight.loadProgram(prog);
        randomizeTiles(straight, data_rng);
        straight.execute(RunRequest{});

        Accelerator replayed(cfg);
        Rng data_rng2(100 + trial);
        replayed.loadProgram(prog);
        randomizeTiles(replayed, data_rng2);
        Rng replay_rng(55 + trial);
        while (!replayed.controller().halted()) {
            if (replay_rng.chance(0.3)) {
                // Force a worst-case commit failure: the instruction
                // fully executes but the PC never advances, then the
                // controller restarts and repeats it.
                replayed.controller().stepInterrupted(
                    MicroStep::kCommit, 1.0);
                replayed.controller().powerLoss();
                replayed.controller().restart();
            } else {
                replayed.controller().step();
            }
        }
        ASSERT_EQ(straight.grid().tile(0).snapshot(),
                  replayed.grid().tile(0).snapshot())
            << "trial " << trial;
        ASSERT_EQ(straight.grid().tile(1).snapshot(),
                  replayed.grid().tile(1).snapshot())
            << "trial " << trial;
    }
}

// -- Document readers ---------------------------------------------------

/** One reader under fuzz: the re-emitted document of what it accepted,
 *  nullopt when it rejected the text. */
using Reread = std::function<std::optional<std::string>(const std::string &)>;

/** Seeded byte flips, deletions, insertions and truncations. */
std::string
mutate(std::string text, Rng &rng)
{
    static const std::string kBytes = "{}[]\",:-+.0123456789eE\\u \n";
    const int edits = static_cast<int>(rng.between(1, 4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
        const std::size_t at = rng.below(text.size());
        switch (rng.below(4)) {
          case 0:
            text[at] = static_cast<char>(text[at] ^ (1u << rng.below(8)));
            break;
          case 1:
            text.erase(at, 1 + rng.below(8));
            break;
          case 2:
            text.insert(at, 1,
                        rng.chance(0.8)
                            ? kBytes[rng.below(kBytes.size())]
                            : static_cast<char>(rng.below(256)));
            break;
          default:
            text.resize(at);
            break;
        }
    }
    return text;
}

/** Every mutant is rejected or accepted without crashing, and what is
 *  accepted re-emits to a document that reads back to itself. */
void
fuzzReader(const char *format, const std::string &valid,
           const Reread &reread, std::uint64_t seed)
{
    const std::optional<std::string> canonical = reread(valid);
    ASSERT_TRUE(canonical.has_value()) << format;
    Rng rng(seed);
    int accepted = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string text = mutate(valid, rng);
        const std::optional<std::string> once = reread(text);
        if (!once) {
            continue;
        }
        ++accepted;
        const std::optional<std::string> twice = reread(*once);
        ASSERT_TRUE(twice.has_value())
            << format << " mutant " << i << " re-emitted as " << *once;
        ASSERT_EQ(*twice, *once) << format << " mutant " << i;
    }
    // Some edits (inside numbers and strings) keep the document valid.
    EXPECT_GT(accepted, 0) << format;
}

TEST(DocumentFuzz, PowerTraceReader)
{
    fuzzReader(
        "power trace", corpusTrace("rf-bursty")->toJson(),
        [](const std::string &text) -> std::optional<std::string> {
            PowerTraceError err;
            const auto trace = parsePowerTrace(text, &err);
            if (!trace) {
                EXPECT_GE(err.line, 1u);
                EXPECT_FALSE(err.message.empty());
                return std::nullopt;
            }
            return trace->toJson();
        },
        11);
}

TEST(DocumentFuzz, OutageScheduleReader)
{
    OutageSchedule s;
    s.checkpointPeriod = 4;
    s.checkpoints = {0, 3, 9};
    s.points = {{2, MicroStep::kFetch, 0.25},
                {7, MicroStep::kCommit, 1.0},
                {12, MicroStep::kWritePc, 0.5}};
    fuzzReader(
        "outage schedule", s.toJson(),
        [](const std::string &text) -> std::optional<std::string> {
            const auto sched = OutageSchedule::fromJson(text);
            return sched ? std::optional(sched->toJson()) : std::nullopt;
        },
        12);
}

TEST(DocumentFuzz, CampaignReportReader)
{
    const auto w = inject::makeCampaignWorkload("gates");
    ASSERT_TRUE(w.has_value());
    inject::CampaignConfig cfg;
    cfg.restoreJournal = false;
    cfg.fractions = {0.5};
    cfg.maxFailuresKept = 2;
    const inject::CampaignReport report = inject::runCampaign(*w, cfg);
    ASSERT_FALSE(report.failures.empty());
    fuzzReader(
        "campaign report", report.toJson(),
        [](const std::string &text) -> std::optional<std::string> {
            const auto art = inject::parseReplayArtifact(text);
            return art ? std::optional(inject::replayArtifactJson(
                             art->workload, art->schedule))
                       : std::nullopt;
        },
        13);
}

} // namespace
} // namespace mouse
