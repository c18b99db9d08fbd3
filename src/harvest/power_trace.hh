/**
 * @file
 * Versioned JSON power-trace documents (docs/HARVESTING.md).
 *
 * A power trace is the wire form of a TracePowerSource: a named list
 * of (duration_s, power_w) segments, versioned by "trace_schema" so
 * old files fail loudly instead of silently misparsing.  The same
 * parser backs `mouse_cli --power-trace FILE` (with line-numbered
 * errors for up-front validation) and the embedded corpus under
 * src/harvest/traces/, which round-trips through it at load time.
 *
 * Format (trace_schema 1, unknown keys tolerated):
 *
 *   {"trace_schema":1,
 *    "name":"solar-day-night",
 *    "segments":[{"duration_s":2.0,"power_w":5e-4}, ...]}
 */

#ifndef MOUSE_HARVEST_POWER_TRACE_HH
#define MOUSE_HARVEST_POWER_TRACE_HH

#include <optional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"
#include "harvest/power_source.hh"

namespace mouse
{

/** One parsed power-trace document. */
struct PowerTrace
{
    std::string name;
    std::vector<TracePowerSource::Segment> segments;

    /** Sum of segment durations (the cycle length). */
    Seconds period() const;

    /** Duration-weighted mean power over one period. */
    Watts meanPower() const;

    /** Single-line schema-versioned document; parsePowerTrace()
     *  round-trips it exactly. */
    std::string toJson() const;
};

/** Why a document failed to parse, anchored to a 1-based line. */
using PowerTraceError = json::Error;

/**
 * Parse a trace document.  Tolerates whitespace and unknown keys;
 * rejects anything json::parse() rejects, a missing or unsupported
 * "trace_schema", empty segment lists, non-positive durations and
 * negative powers.  On failure returns nullopt and fills @p err
 * (when given) with the offending line.
 */
std::optional<PowerTrace>
parsePowerTrace(const std::string &text,
                PowerTraceError *err = nullptr);

} // namespace mouse

#endif // MOUSE_HARVEST_POWER_TRACE_HH
