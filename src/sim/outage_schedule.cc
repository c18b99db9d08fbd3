#include "outage_schedule.hh"

#include <algorithm>
#include <limits>
#include <type_traits>

namespace mouse
{

const char *
microStepName(MicroStep step)
{
    switch (step) {
      case MicroStep::kFetch:
        return "fetch";
      case MicroStep::kExecute:
        return "execute";
      case MicroStep::kWritePc:
        return "write-pc";
      case MicroStep::kCommit:
        return "commit";
    }
    return "?";
}

std::optional<MicroStep>
parseMicroStep(const std::string &name)
{
    if (name == "fetch") {
        return MicroStep::kFetch;
    }
    if (name == "execute") {
        return MicroStep::kExecute;
    }
    if (name == "write-pc") {
        return MicroStep::kWritePc;
    }
    if (name == "commit") {
        return MicroStep::kCommit;
    }
    return std::nullopt;
}

void
OutageSchedule::normalize()
{
    std::sort(points.begin(), points.end(),
              [](const OutagePoint &a, const OutagePoint &b) {
                  if (a.attempt != b.attempt) {
                      return a.attempt < b.attempt;
                  }
                  if (a.step != b.step) {
                      return a.step < b.step;
                  }
                  return a.fraction < b.fraction;
              });
    points.erase(std::unique(points.begin(), points.end()),
                 points.end());
    std::sort(checkpoints.begin(), checkpoints.end());
    checkpoints.erase(
        std::unique(checkpoints.begin(), checkpoints.end()),
        checkpoints.end());
}

std::string
OutageSchedule::toJson() const
{
    std::string j = "{\"checkpoint_period\":" +
                    std::to_string(checkpointPeriod);
    j += ",\"restore_journal\":";
    j += restoreJournal ? "true" : "false";
    if (!checkpoints.empty()) {
        j += ",\"checkpoints\":[";
        for (std::size_t i = 0; i < checkpoints.size(); ++i) {
            if (i > 0) {
                j += ",";
            }
            j += std::to_string(checkpoints[i]);
        }
        j += "]";
    }
    j += ",\"outages\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (i > 0) {
            j += ",";
        }
        j += "{\"attempt\":" + std::to_string(points[i].attempt);
        j += ",\"step\":\"";
        j += microStepName(points[i].step);
        j += "\",\"fraction\":" + json::num(points[i].fraction) + "}";
    }
    j += "]}";
    return j;
}

std::optional<OutageSchedule>
OutageSchedule::fromJson(const std::string &text)
{
    const std::optional<json::Value> doc = json::parse(text);
    if (!doc) {
        return std::nullopt;
    }
    return fromJson(*doc);
}

std::optional<OutageSchedule>
OutageSchedule::fromJson(const json::Value &doc)
{
    using json::Kind;
    constexpr std::int64_t kMaxU32 =
        std::numeric_limits<std::uint32_t>::max();
    // Absent fields keep their defaults; a present one must be valid.
    bool ok = doc.kind == Kind::kObject;
    const auto count = [&ok](const json::Value *v, std::int64_t lo,
                             std::int64_t hi, auto &out) {
        if (v != nullptr) {
            const std::optional<std::int64_t> n = json::integer(*v, lo, hi);
            ok = ok && n.has_value();
            out = static_cast<std::remove_reference_t<decltype(out)>>(
                n.value_or(lo));
        }
    };

    OutageSchedule sched;
    count(doc.find("checkpoint_period"), 1, kMaxU32,
          sched.checkpointPeriod);
    if (const json::Value *v = doc.find("restore_journal")) {
        ok = ok && v->kind == Kind::kBool;
        sched.restoreJournal = v->boolean;
    }
    if (const json::Value *v = doc.find("checkpoints")) {
        ok = ok && v->kind == Kind::kArray;
        for (const json::Value &c : v->items) {
            count(&c, 0, kMaxU32, sched.checkpoints.emplace_back());
        }
    }
    if (const json::Value *v = doc.find("outages")) {
        ok = ok && v->kind == Kind::kArray;
        for (const json::Value &o : v->items) {
            OutagePoint &p = sched.points.emplace_back();
            ok = ok && o.kind == Kind::kObject;
            count(o.find("attempt"), 0, json::kMaxExactInteger, p.attempt);
            if (const json::Value *step = o.find("step")) {
                // A non-string step has an empty string: no such step.
                const std::optional<MicroStep> named =
                    parseMicroStep(step->string);
                ok = ok && named.has_value();
                p.step = named.value_or(p.step);
            }
            if (const json::Value *f = o.find("fraction")) {
                ok = ok && f->kind == Kind::kNumber && f->number >= 0.0 &&
                     f->number <= 1.0;
                p.fraction = f->number;
            }
        }
    }
    if (!ok) {
        return std::nullopt;
    }
    sched.normalize();
    return sched;
}

} // namespace mouse
