/**
 * @file
 * Scripted power-loss schedules for adversarial fault injection.
 *
 * The harvested simulators lose power wherever the capacitor model
 * happens to run dry; an OutageSchedule instead *names* the cut
 * points exactly — the index of the instruction attempt, the
 * micro-step of Figure 7 within it, and the intra-phase fraction —
 * so a campaign can enumerate every interruptible position of a run
 * (src/inject) and a failing schedule can be replayed bit-exactly.
 *
 * The schedule also carries the checkpoint discipline of the machine
 * under test: MOUSE commits its PC every cycle (checkpointPeriod 1);
 * SONIC-style baselines checkpoint a window of N instructions, so an
 * outage is *expected* to re-execute up to N committed instructions
 * (idempotently — the differential checker tells re-execution apart
 * from corruption).  restoreJournal=false models a broken restart
 * path that skips the Activate Columns journal replay, which the
 * checker must flag as corruption.
 */

#ifndef MOUSE_SIM_OUTAGE_SCHEDULE_HH
#define MOUSE_SIM_OUTAGE_SCHEDULE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "controller/controller.hh"

namespace mouse
{

/** One scripted power cut. */
struct OutagePoint
{
    /**
     * Index of the instruction *attempt* at which the supply dies.
     * Every controller step — committed, interrupted, or replayed —
     * consumes one attempt index, so the position is deterministic
     * even in multi-outage schedules.
     */
    std::uint64_t attempt = 0;
    /** Micro-step at which the cut lands (Figure 7). */
    MicroStep step = MicroStep::kExecute;
    /** Fraction of the phase elapsed before the cut, in [0, 1]. */
    double fraction = 0.5;

    bool operator==(const OutagePoint &other) const = default;
};

/** A scripted outage run: cut points plus checkpoint discipline. */
struct OutageSchedule
{
    /** Cut points, sorted by attempt index (normalize() enforces). */
    std::vector<OutagePoint> points;
    /**
     * Checkpoint period of the machine under test.  1 is MOUSE's
     * per-cycle protocol; N > 1 emulates a SONIC-style window whose
     * restart rolls the PC back to the last checkpoint and
     * re-executes the window.
     */
    unsigned checkpointPeriod = 1;
    /**
     * Explicit checkpoint PCs for checkpointPeriod > 1 (sorted; must
     * start at the program's entry PC).  Restart rolls back to the
     * largest checkpoint <= the interrupted PC.  Re-executing an
     * arbitrary instruction window is only sound when the window is
     * free of write-after-read hazards, so checkpoint placement is
     * program-dependent — inject::idempotentCheckpoints() computes a
     * safe placement, the way SONIC's compiler restricts checkpoints
     * to idempotent section boundaries.  When empty, the runner falls
     * back to a boundary every checkpointPeriod committed
     * instructions (hazard-blind; fine for straight replay studies,
     * unsound as a correctness claim).
     */
    std::vector<std::uint32_t> checkpoints;
    /** Replay the Activate Columns journal on restart (the paper's
     *  protocol).  false models a defective restart path. */
    bool restoreJournal = true;

    /** Sort points by attempt and drop exact duplicates. */
    void normalize();

    /** Single-line JSON object (the replay-artifact payload). */
    std::string toJson() const;

    /**
     * Parse a toJson() document (tolerates whitespace and unknown
     * keys).  Returns nullopt on malformed input: anything
     * json::parse() rejects, a wrongly typed field, or a count that is
     * not an exact integer in its field's range.
     */
    static std::optional<OutageSchedule>
    fromJson(const std::string &text);

    /** fromJson() over a parsed value, e.g. a replay artifact's. */
    static std::optional<OutageSchedule>
    fromJson(const json::Value &doc);
};

/** Stable wire name of a micro-step ("fetch", "execute", ...). */
const char *microStepName(MicroStep step);

/** Parse microStepName() output back into a MicroStep. */
std::optional<MicroStep> parseMicroStep(const std::string &name);

} // namespace mouse

#endif // MOUSE_SIM_OUTAGE_SCHEDULE_HH
