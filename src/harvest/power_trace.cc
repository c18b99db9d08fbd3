#include "harvest/power_trace.hh"

#include "common/schema_versions.hh"

namespace mouse
{

namespace
{

using json::Kind;

/** Walk a parsed document into @p trace; the first problem found. */
std::optional<json::Error>
readTrace(const json::Value &doc, PowerTrace &trace)
{
    if (doc.kind != Kind::kObject) {
        return json::Error{doc.line, "expected '{' (a trace document "
                                     "is a JSON object)"};
    }
    const json::Value *version = doc.find("trace_schema");
    if (version != nullptr && version->kind != Kind::kNumber) {
        return json::Error{version->line, "expected a number"};
    }
    if (const json::Value *name = doc.find("name")) {
        if (name->kind != Kind::kString) {
            return json::Error{name->line, "expected a string"};
        }
        trace.name = name->string;
    }
    const json::Value *segments = doc.find("segments");
    if (segments != nullptr && segments->kind != Kind::kArray) {
        return json::Error{segments->line,
                           "expected '[' (\"segments\" is an array)"};
    }
    const std::vector<json::Value> none;
    for (const json::Value &s : segments ? segments->items : none) {
        if (s.kind != Kind::kObject) {
            return json::Error{s.line,
                               "expected '{' (a segment is an object)"};
        }
        const json::Value *duration = s.find("duration_s");
        const json::Value *power = s.find("power_w");
        for (const json::Value *field : {duration, power}) {
            if (field != nullptr && field->kind != Kind::kNumber) {
                return json::Error{field->line, "expected a number"};
            }
        }
        const std::string where =
            "segments[" + std::to_string(trace.segments.size()) + "]";
        if (duration == nullptr || power == nullptr) {
            return json::Error{s.line, where + " needs \"duration_s\" "
                                               "and \"power_w\""};
        }
        if (duration->number <= 0.0) {
            return json::Error{s.line,
                               where + " has non-positive duration_s"};
        }
        if (power->number < 0.0) {
            return json::Error{s.line, where + " has negative power_w"};
        }
        trace.segments.push_back({duration->number, power->number});
    }

    if (version == nullptr) {
        return json::Error{1, "missing \"trace_schema\" field"};
    }
    if (version->number !=
        static_cast<double>(schema::kPowerTraceSchemaVersion)) {
        return json::Error{
            version->line,
            "unsupported trace_schema " + json::num(version->number) +
                " (this build reads version " +
                std::to_string(schema::kPowerTraceSchemaVersion) + ")"};
    }
    if (segments == nullptr) {
        return json::Error{1, "missing \"segments\" field"};
    }
    if (trace.segments.empty()) {
        return json::Error{segments->line,
                           "\"segments\" must not be empty"};
    }
    return std::nullopt;
}

} // namespace

Seconds
PowerTrace::period() const
{
    Seconds total = 0.0;
    for (const TracePowerSource::Segment &s : segments) {
        total += s.duration;
    }
    return total;
}

Watts
PowerTrace::meanPower() const
{
    const Seconds total = period();
    if (total <= 0.0) {
        return 0.0;
    }
    Joules energy = 0.0;
    for (const TracePowerSource::Segment &s : segments) {
        energy += s.duration * s.power;
    }
    return energy / total;
}

std::string
PowerTrace::toJson() const
{
    std::string j = "{\"trace_schema\":" +
                    std::to_string(schema::kPowerTraceSchemaVersion);
    j += ",\"name\":\"" + jsonEscape(name) + "\"";
    j += ",\"segments\":[";
    for (std::size_t i = 0; i < segments.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "{\"duration_s\":" + json::num(segments[i].duration);
        j += ",\"power_w\":" + json::num(segments[i].power) + "}";
    }
    j += "]}";
    return j;
}

std::optional<PowerTrace>
parsePowerTrace(const std::string &text, PowerTraceError *err)
{
    PowerTraceError why;
    const std::optional<json::Value> doc = json::parse(text, &why);
    PowerTrace trace;
    if (doc) {
        const std::optional<json::Error> bad = readTrace(*doc, trace);
        if (!bad) {
            return trace;
        }
        why = *bad;
    }
    if (err != nullptr) {
        *err = why;
    }
    return std::nullopt;
}

} // namespace mouse
