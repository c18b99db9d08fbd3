#include "harness/spans.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/trace_sink.hh"

namespace perfbench
{

Tracer::Tracer(bool enabled)
    : enabled_(enabled), epoch_(std::chrono::steady_clock::now())
{
}

double
Tracer::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Tracer::begin(const char *name)
{
    if (!enabled_) {
        return -1;
    }
    const int parent = open_.empty() ? -1 : open_.back();
    const double t = now();
    const int id = record(name, t, t, parent);
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (id < 0) {
        return;
    }
    spans_[static_cast<std::size_t>(id)].end = now();
    if (!open_.empty() && open_.back() == id) {
        open_.pop_back();
    }
}

void
Tracer::count(const std::string &name, double v)
{
    if (enabled_) {
        counters_[name] += v;
    }
}

double
Tracer::counter(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

int
Tracer::record(std::string name, double start, double end, int parent)
{
    spans_.push_back(Span{std::move(name), start, end, parent});
    return static_cast<int>(spans_.size() - 1);
}

std::vector<double>
Tracer::selfTimes() const
{
    // Children's intervals clipped to their parent, per parent.
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans_.size());
    for (const Span &c : spans_) {
        if (c.parent < 0) {
            continue;
        }
        const Span &p = spans_[static_cast<std::size_t>(c.parent)];
        const double a = std::max(c.start, p.start);
        const double b = std::min(c.end, p.end);
        if (b > a) {
            kids[static_cast<std::size_t>(c.parent)].emplace_back(a, b);
        }
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = spans_[i].start;
        for (const auto &[a, b] : iv) {
            const double from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        self[i] = spans_[i].duration() - covered;
    }
    return self;
}

double
Tracer::total(const std::string &name) const
{
    double t = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name) {
            t += s.duration();
        }
    }
    return t;
}

std::size_t
Tracer::spanCount(const std::string &name) const
{
    return static_cast<std::size_t>(
        std::count_if(spans_.begin(), spans_.end(),
                      [&](const Span &s) { return s.name == name; }));
}

std::string
Tracer::summary() const
{
    struct Row
    {
        std::size_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    std::map<std::string, Row> rows;
    const std::vector<double> self = selfTimes();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        Row &r = rows[spans_[i].name];
        ++r.count;
        r.total += spans_[i].duration();
        r.self += self[i];
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(),
                                                    rows.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) {
                  return a.second.total > b.second.total;
              });
    std::string out = "  span                          count     total ms"
                      "      self ms\n";
    for (const auto &[name, r] : sorted) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "  %-26s %8zu %12.3f %12.3f\n",
                      name.c_str(), r.count, r.total * 1e3, r.self * 1e3);
        out += buf;
    }
    return out;
}

std::string
Tracer::chromeJson() const
{
    mouse::obs::TraceSink sink(spans_.size() + 1);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const std::string cat = s.name.substr(0, s.name.find('.'));
        sink.complete(s.name.c_str(), cat.c_str(), s.start, s.duration(),
                      "{\"id\":" + std::to_string(i) + ",\"parent\":" +
                          std::to_string(s.parent) + "}");
    }
    return sink.toChromeJson();
}

} // namespace perfbench
