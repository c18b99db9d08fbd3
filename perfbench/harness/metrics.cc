#include "harness/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/run_api.hh"

namespace perfbench
{

double
nearestRank(std::vector<double> v, double q)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

Percentile
tailPercentile(const std::vector<double> &v, double wanted)
{
    std::vector<double> ladder{wanted};
    for (double q : {0.99, 0.9, 0.75, 0.5}) {
        if (q < wanted) {
            ladder.push_back(q);
        }
    }
    Percentile p;
    p.samples = v.size();
    for (double q : ladder) {
        const double n = static_cast<double>(v.size());
        const std::size_t rank = std::clamp<std::size_t>(
            static_cast<std::size_t>(std::ceil(q * n)), 1,
            std::max<std::size_t>(v.size(), 1));
        p.q = q;
        p.beyond = v.size() >= rank ? v.size() - rank : 0;
        if (p.beyond >= kMinTailSamples) {
            break;
        }
    }
    p.value = nearestRank(v, p.q);
    return p;
}

SegmentedTail::SegmentedTail(std::size_t segment,
                             std::vector<double> wanted)
    : segment_(std::max<std::size_t>(segment, 1)),
      wanted_(std::move(wanted)), perSegment_(wanted_.size())
{
    buf_.reserve(segment_);
}

void
SegmentedTail::add(double v)
{
    buf_.push_back(v);
    ++seen_;
    if (buf_.size() < segment_) {
        return;
    }
    for (std::size_t i = 0; i < wanted_.size(); ++i) {
        perSegment_[i].push_back(tailPercentile(buf_, wanted_[i]));
    }
    buf_.clear();
}

Percentile
SegmentedTail::result(std::size_t i) const
{
    if (perSegment_[i].empty()) {
        Percentile p = tailPercentile(buf_, wanted_[i]);
        p.samples = seen_;
        return p;
    }
    std::vector<double> values;
    for (const Percentile &p : perSegment_[i]) {
        values.push_back(p.value);
    }
    Percentile p = perSegment_[i].front();
    p.value = median(values);
    p.samples = seen_;
    return p;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty()) {
        return 0.0;
    }
    double logSum = 0.0;
    for (double x : v) {
        if (!(x > 0.0)) {
            return 0.0;
        }
        logSum += std::log(x);
    }
    return std::exp(logSum / static_cast<double>(v.size()));
}

double
mean(const std::vector<double> &v)
{
    if (v.empty()) {
        return 0.0;
    }
    double s = 0.0;
    for (double x : v) {
        s += x;
    }
    return s / static_cast<double>(v.size());
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

void
Digest::addBytes(const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h_ ^= p[i];
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

void
Digest::add(const std::string &s)
{
    add(static_cast<std::uint64_t>(s.size()));
    addBytes(s.data(), s.size());
}

std::string
Digest::hex() const
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

void
Report::add(std::string name, double value, std::string unit,
            std::size_t samples, std::string note)
{
    metrics_.push_back(Metric{std::move(name), value, std::move(unit),
                              samples, std::move(note)});
}

std::string
Report::table() const
{
    std::string out;
    for (const Metric &m : metrics_) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "  %-26s %16.6g %-8s n=%-8zu %s\n",
                      m.name.c_str(), m.value, m.unit.c_str(),
                      m.samples, m.note.c_str());
        out += buf;
    }
    return out;
}

std::string
Report::json() const
{
    std::string j = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        if (i > 0) {
            j += ",";
        }
        j += jsonString(m.name) + ":{\"value\":" +
             (std::isfinite(m.value) ? num(m.value) : "null") +
             ",\"unit\":" + jsonString(m.unit) + "}";
    }
    j += "}";
    return j;
}

std::string
num(double v)
{
    if (!std::isfinite(v)) {
        return "0";
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + mouse::jsonEscape(s) + "\"";
}

void
addLatency(Report &rep, const SegmentedTail &lat, const std::string &what)
{
    const std::string segments =
        lat.segments() > 0 ? std::to_string(lat.segments()) +
                                 " segments of " +
                                 std::to_string(kLatencySegment)
                           : "1 segment";
    const Percentile p50 = lat.result(0);
    const Percentile tail = lat.result(1);
    rep.add("latency_p50_ms", p50.value * 1e3, "ms", p50.samples,
            what + "; median over " + segments);
    rep.add("latency_p99_ms", tail.value * 1e3, "ms", tail.samples,
            "p" + num(tail.q * 100) + " (" + std::to_string(tail.beyond) +
                " beyond per segment), median over " + segments);
}

} // namespace perfbench
