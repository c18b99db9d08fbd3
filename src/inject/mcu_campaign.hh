/**
 * @file
 * Fault-injection conformance campaigns for the MCU baseline
 * (docs/BASELINES.md, docs/FAULT_INJECTION.md).
 *
 * The MOUSE campaigns (campaign.hh) cut the bit-exact machine at
 * micro-step granularity; the MCU baseline has no micro-steps, so its
 * campaigns cut the *op stream* instead: power dies immediately after
 * op k commits, the scheme's backup/restore decides where execution
 * resumes (EhScheme::resumeOp), and the tail is re-executed.  The
 * architectural state is modeled as one slot per op, written with a
 * deterministic per-op value — idempotent by construction, so a
 * *correct* scheme can only produce `match` (resumed exactly where it
 * stopped) or `reexecuted` (rolled back to a region boundary and
 * replayed); any forward skip leaves unwritten slots and classifies
 * as `corrupted`.  The verdict taxonomy is shared verbatim with the
 * MOUSE campaigns (Verdict, verdictName).
 *
 * Clank placement comes from idempotentCheckpoints() — the same
 * WAR-hazard walk the SONIC-style MOUSE baselines use — mapped onto
 * the op stream (op i of an McuProgram built from a Program is
 * instruction i, so PCs are op indices).
 */

#ifndef MOUSE_INJECT_MCU_CAMPAIGN_HH
#define MOUSE_INJECT_MCU_CAMPAIGN_HH

#include <array>
#include <cstdint>
#include <string>

#include "baseline/mcu/eh_scheme.hh"
#include "inject/campaign.hh"
#include "inject/workload.hh"

namespace mouse::inject
{

/** Deterministic aggregate of one MCU campaign. */
struct McuCampaignReport
{
    std::string workload;
    std::string scheme;
    /** Ops in the stream (= instructions of the source program). */
    std::uint64_t totalOps = 0;
    /** Schedules executed (single cuts + random multi-cuts). */
    std::uint64_t points = 0;
    /** Rolled-back ops re-executed across all points. */
    std::uint64_t replays = 0;
    /** Corrupted + incomplete points. */
    std::uint64_t mismatches = 0;
    /** Same indexing as inject::Verdict. */
    std::array<std::uint64_t, kNumVerdicts> verdicts{};

    bool clean() const { return mismatches == 0; }

    /** Deterministic JSON (no wall clock, no thread count). */
    std::string toJson() const;
};

/**
 * Run the campaign of @p scheme (mcu::makeEhScheme): golden state
 * from one uncut pass over @p w's program as an op stream, then
 * every single-cut schedule plus 32 seeded random multi-cut
 * schedules of 2-3 cuts, each classified against golden.  Clank
 * regions are 16 ops, placed WAR-hazard-safely by
 * idempotentCheckpoints().
 */
McuCampaignReport runMcuCampaign(const CampaignWorkload &w,
                                 const mcu::EhScheme &scheme);

} // namespace mouse::inject

#endif // MOUSE_INJECT_MCU_CAMPAIGN_HH
