#include "mcu_campaign.hh"

#include <algorithm>

#include "baseline/mcu/op_stream.hh"
#include "common/schema_versions.hh"
#include "core/run_api.hh"
#include "exp/sweep.hh"
#include "inject/idempotence.hh"

namespace mouse::inject
{

namespace
{

/** Desired Clank region length; idempotentCheckpoints() places the
 *  regions WAR-hazard-safely. */
constexpr unsigned kClankPeriod = 16;
/** Randomized multi-outage schedules appended after the exhaustive
 *  single-cut enumeration (one cut per op). */
constexpr std::size_t kRandomSchedules = 32;
/** Outages per random schedule: 2..this. */
constexpr std::size_t kMaxOutagesPerSchedule = 3;
/** Root of the per-schedule seed derivation (exp::deriveSeed). */
constexpr std::uint64_t kRootSeed = 1;

/** Deterministic non-zero per-op value: a slot left at 0 (an op that
 *  never executed) can never masquerade as a correct write. */
std::uint64_t
opValue(std::uint64_t i)
{
    std::uint64_t z = (i + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    return z | 1;
}

/**
 * Execute one schedule of cuts (sorted op indices; power dies right
 * after the named op commits) and classify against @p golden.
 */
Verdict
runCuts(const mcu::McuProgram &prog, const mcu::EhScheme &scheme,
        const std::vector<std::uint64_t> &cuts,
        const std::vector<std::uint64_t> &golden,
        std::uint64_t &replays)
{
    const std::uint64_t n = prog.totalOps;
    std::vector<std::uint64_t> mem(n, 0);
    std::uint64_t pos = 0;
    std::uint64_t replayed = 0;
    for (const std::uint64_t c : cuts) {
        if (c >= n || c + 1 < pos) {
            continue;
        }
        for (std::uint64_t i = pos; i <= c; ++i) {
            mem[i] = opValue(i);
        }
        // The scheme decides where the restored run resumes.  A
        // rollback (resume < c + 1) re-executes the tail; a forward
        // skip would leave slots unwritten and show up as corruption
        // in the state diff below — exactly the bug class this
        // campaign exists to catch.
        const std::uint64_t next = scheme.resumeOp(prog, c + 1);
        if (next < c + 1) {
            replayed += (c + 1) - next;
        }
        pos = next;
    }
    for (std::uint64_t i = pos; i < n; ++i) {
        mem[i] = opValue(i);
    }
    replays += replayed;
    if (mem != golden) {
        return Verdict::kCorrupted;
    }
    return replayed > 0 ? Verdict::kReexecuted : Verdict::kMatch;
}

} // namespace

McuCampaignReport
runMcuCampaign(const CampaignWorkload &w, const mcu::EhScheme &scheme)
{
    const std::string name = scheme.name();
    mcu::McuProgram prog =
        mcu::mcuProgramFromProgram(w.program, kClankPeriod);
    if (name == "clank") {
        // Replace the uniform regions with the WAR-hazard-safe
        // placement the SONIC-style window baselines use; op i of a
        // program-built stream is instruction i, so PCs map 1:1.
        const std::vector<std::uint32_t> pcs =
            idempotentCheckpoints(w.program, kClankPeriod);
        mcu::setCheckpoints(
            prog, std::vector<std::uint64_t>(pcs.begin(), pcs.end()));
    }
    const std::uint64_t n = prog.totalOps;

    std::vector<std::uint64_t> golden(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        golden[i] = opValue(i);
    }

    McuCampaignReport report;
    report.workload = w.name;
    report.scheme = name;
    report.totalOps = n;

    auto record = [&](const std::vector<std::uint64_t> &cuts) {
        const Verdict v = runCuts(prog, scheme, cuts, golden,
                                  report.replays);
        report.points++;
        report.verdicts[static_cast<std::size_t>(v)]++;
        if (v == Verdict::kCorrupted || v == Verdict::kIncomplete) {
            report.mismatches++;
        }
    };

    // Exhaustive single cuts: power dies after every op once.
    for (std::uint64_t k = 0; k < n; ++k) {
        record({k});
    }
    // Randomized multi-cut schedules, seeded like every other sweep.
    for (std::size_t r = 0; r < kRandomSchedules; ++r) {
        const std::uint64_t seed = exp::deriveSeed(kRootSeed, r);
        const std::size_t outages =
            2 + seed % (kMaxOutagesPerSchedule - 1);
        std::vector<std::uint64_t> cuts;
        cuts.reserve(outages);
        for (std::size_t j = 0; j < outages; ++j) {
            cuts.push_back(exp::deriveSeed(seed, j) % n);
        }
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()),
                   cuts.end());
        record(cuts);
    }
    return report;
}

std::string
McuCampaignReport::toJson() const
{
    std::string j = "{";
    j += "\"schema\":" +
         std::to_string(schema::kResultSchemaVersion);
    j += ",\"report\":\"mcu_campaign\"";
    j += ",\"workload\":\"" + jsonEscape(workload) + "\"";
    j += ",\"scheme\":\"" + jsonEscape(scheme) + "\"";
    j += ",\"total_ops\":" + std::to_string(totalOps);
    j += ",\"points\":" + std::to_string(points);
    j += ",\"replays\":" + std::to_string(replays);
    j += ",\"mismatches\":" + std::to_string(mismatches);
    j += ",\"verdicts\":{";
    for (std::size_t v = 0; v < kNumVerdicts; ++v) {
        if (v > 0) {
            j += ",";
        }
        j += "\"";
        j += verdictName(static_cast<Verdict>(v));
        j += "\":" + std::to_string(verdicts[v]);
    }
    j += "}";
    j += ",\"clean\":";
    j += clean() ? "true" : "false";
    j += "}";
    return j;
}

} // namespace mouse::inject
