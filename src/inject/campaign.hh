/**
 * @file
 * The fault-injection campaign engine (docs/FAULT_INJECTION.md).
 *
 * A campaign proves (or refutes) intermittent correctness by brute
 * force: it first runs the workload once under continuous power to a
 * golden MachineState, then enumerates adversarial power-loss
 * schedules — every (attempt, micro-step, intra-phase fraction) cut
 * of the golden run, plus randomized multi-outage schedules — and
 * executes each as a Scheduled-power RunRequest on a fresh
 * accelerator.  Each faulted run's final state is diffed against the
 * golden run and classified:
 *
 *  - match:       identical state, identical commit count.
 *  - reexecuted:  identical state, extra committed instructions —
 *                 the *expected* outcome for window-checkpointing
 *                 (SONIC-style) machines, which replay their window
 *                 idempotently.
 *  - corrupted:   final state differs from golden.
 *  - incomplete:  the run failed to halt within the attempt guard.
 *
 * Failing schedules (corrupted / incomplete) are minimized by a
 * greedy point-removal shrinker to the shortest schedule that still
 * fails, and the report embeds each shrunk reproducer as replayable
 * JSON (replay.hh).
 *
 * Determinism: points fan out through exp::ExperimentRunner::map into
 * index-keyed slots and are folded in index order; nothing in the
 * report depends on wall clock or thread count, so reports are
 * byte-identical across --threads values.
 */

#ifndef MOUSE_INJECT_CAMPAIGN_HH
#define MOUSE_INJECT_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inject/state_diff.hh"
#include "inject/workload.hh"
#include "obs/stat_registry.hh"
#include "sim/outage_schedule.hh"

namespace mouse::inject
{

/** Classification of one faulted run against the golden run. */
enum class Verdict
{
    kMatch = 0,
    kReexecuted,
    kCorrupted,
    kIncomplete,
};

constexpr std::size_t kNumVerdicts = 4;

/** Stable wire name ("match", "reexecuted", ...). */
const char *verdictName(Verdict v);

/** Result of one injection point (one faulted run). */
struct PointOutcome
{
    OutageSchedule schedule;
    Verdict verdict = Verdict::kMatch;
    /** Instructions the faulted run committed. */
    std::uint64_t committed = 0;
    /** Commits beyond the golden run (idempotent re-execution). */
    std::uint64_t reexecuted = 0;
    /** Extra runs the shrinker spent minimizing this failure. */
    std::uint64_t shrinkRuns = 0;
    /** First state difference (corrupted) or guard note. */
    std::string note;
    /** Minimal failing schedule (failures only; equals schedule when
     *  no smaller schedule still fails). */
    OutageSchedule shrunk;
};

/** Campaign shape: which schedules to enumerate and how to run. */
struct CampaignConfig
{
    /** Checkpoint discipline of the machine under test: 1 = MOUSE's
     *  per-cycle protocol, N > 1 = SONIC-style window of N. */
    unsigned checkpointPeriod = 1;
    /** false models a broken restart path (journal not replayed). */
    bool restoreJournal = true;
    /** Intra-phase cut fractions enumerated per micro-step. */
    std::vector<double> fractions{0.0, 0.5, 1.0};
    /** Randomized multi-outage schedules appended after the
     *  exhaustive single-cut enumeration. */
    std::size_t randomSchedules = 0;
    /** Outages per random schedule: 2..this (single cuts are already
     *  exhaustively covered). */
    std::size_t maxOutagesPerSchedule = 3;
    /** Root of the per-schedule seed derivation (exp::deriveSeed). */
    std::uint64_t rootSeed = 1;
    /** Worker threads (0 = hardware concurrency). */
    unsigned threads = 1;
    /** Failures kept (with shrunk reproducers) in the report; the
     *  counters always cover every point. */
    std::size_t maxFailuresKept = 16;
};

/** Deterministic aggregate of one campaign. */
struct CampaignReport
{
    std::string workload;
    CampaignConfig config;
    std::uint64_t goldenCommitted = 0;
    /** Attempts of the golden run (committed + the HALT step); the
     *  exhaustive enumeration cuts attempts [0, goldenAttempts). */
    std::uint64_t goldenAttempts = 0;
    std::uint64_t points = 0;
    /** Corrupted + incomplete points. */
    std::uint64_t mismatches = 0;
    /** Total idempotently re-executed commits across all points. */
    std::uint64_t replays = 0;
    std::array<std::uint64_t, kNumVerdicts> verdicts{};
    /** First maxFailuresKept failures in enumeration order. */
    std::vector<PointOutcome> failures;
    /** inject.* counters, folded at the join in index order. */
    std::shared_ptr<obs::StatRegistry> stats;

    bool clean() const { return mismatches == 0; }

    /**
     * Deterministic JSON document (schema 3): configuration echo,
     * verdict counts, failures with embedded replayable schedules,
     * and the inject.* stat tree.  Contains no wall-clock or thread
     * count, so equal campaigns serialize byte-identically.
     */
    std::string toJson() const;
};

/**
 * Build the campaign's schedule list: every (attempt, micro-step,
 * fraction) single-cut schedule of a @p goldenAttempts -long run, in
 * canonical (attempt, step, fraction) order, followed by
 * cfg.randomSchedules randomized multi-outage schedules derived from
 * cfg.rootSeed.
 */
std::vector<OutageSchedule>
enumerateSchedules(const CampaignConfig &cfg,
                   std::uint64_t goldenAttempts);

/**
 * Run one schedule on a fresh instance of @p w and classify it
 * against @p golden.  @p attemptGuard bounds the faulted run (runs
 * that exceed it are Incomplete).  Does not shrink.
 */
PointOutcome runSchedule(const CampaignWorkload &w,
                         const OutageSchedule &schedule,
                         const MachineState &golden,
                         std::uint64_t goldenCommitted,
                         std::uint64_t attemptGuard);

/**
 * Greedy point-removal minimization of a failing schedule: repeatedly
 * drop any single outage whose removal keeps the run failing, until
 * no single removal does.  @p runs accumulates the reruns spent.
 */
OutageSchedule shrinkSchedule(const CampaignWorkload &w,
                              const OutageSchedule &failing,
                              const MachineState &golden,
                              std::uint64_t goldenCommitted,
                              std::uint64_t attemptGuard,
                              std::uint64_t &runs);

/** Run the full campaign. */
CampaignReport runCampaign(const CampaignWorkload &w,
                           const CampaignConfig &cfg);

} // namespace mouse::inject

#endif // MOUSE_INJECT_CAMPAIGN_HH
