/**
 * @file
 * Replayable reproducer artifacts for failing injection schedules.
 *
 * A replay artifact is the minimal JSON a bug report needs: the
 * workload's stable name plus one OutageSchedule.  `mouse_cli inject
 * --replay FILE` accepts either a standalone artifact or a full
 * campaign report (campaign.hh) — in a report it picks the first
 * failure's *shrunk* schedule, i.e. the shortest reproducer the
 * campaign found.
 */

#ifndef MOUSE_INJECT_REPLAY_HH
#define MOUSE_INJECT_REPLAY_HH

#include <optional>
#include <string>

#include "inject/campaign.hh"

namespace mouse::inject
{

/** A parsed reproducer: which workload, which outage schedule. */
struct ReplayArtifact
{
    std::string workload;
    OutageSchedule schedule;
};

/** Standalone single-schedule artifact document (schema 3). */
std::string replayArtifactJson(const std::string &workload,
                               const OutageSchedule &schedule);

/**
 * Parse @p text as a replay artifact.  Accepts a standalone
 * artifact or a campaign report: the schedule is failures[0].shrunk
 * when there is one, else the top-level "schedule".  Returns nullopt
 * when the text is not JSON or has no string "workload" or no valid
 * schedule.
 */
std::optional<ReplayArtifact>
parseReplayArtifact(const std::string &text);

/**
 * Re-run one schedule against a fresh golden run of @p w and return
 * the classified outcome (never shrinks).  This is the verification
 * step of a reproducer: a corrupted verdict means the bug is still
 * there.
 */
PointOutcome replaySchedule(const CampaignWorkload &w,
                            const OutageSchedule &schedule);

} // namespace mouse::inject

#endif // MOUSE_INJECT_REPLAY_HH
