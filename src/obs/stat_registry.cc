#include "stat_registry.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"

namespace mouse::obs
{

using json::num;

void
Scalar::observe(double v)
{
    if (!touched_) {
        value_ = v;
        touched_ = true;
        return;
    }
    switch (policy_) {
      case MergePolicy::kSum:
        value_ += v;
        break;
      case MergePolicy::kMin:
        value_ = std::min(value_, v);
        break;
      case MergePolicy::kMax:
        value_ = std::max(value_, v);
        break;
    }
}

void
Scalar::merge(const Scalar &other)
{
    if (other.touched_) {
        observe(other.value_);
    }
}

namespace
{

/** Bucket index for a sample (0 = underflow / non-positive). */
int
bucketIndex(double v)
{
    if (!(v > 0.0)) {
        return 0;
    }
    const double d = std::log10(v) - Histogram::kLoExponent;
    const int idx = 1 + static_cast<int>(std::floor(
                            d * Histogram::kBucketsPerDecade));
    return std::clamp(idx, 0, Histogram::kBuckets - 1);
}

/** Lower bound of bucket @p idx (idx >= 1). */
double
bucketLo(int idx)
{
    return std::pow(10.0, Histogram::kLoExponent +
                              static_cast<double>(idx - 1) /
                                  Histogram::kBucketsPerDecade);
}

} // namespace

void
Histogram::sample(double v, std::uint64_t weight)
{
    if (weight == 0) {
        return;
    }
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    buckets_[bucketIndex(v)] += weight;
    count_ += weight;
    sum_ += v * static_cast<double>(weight);
}

double
Histogram::mean() const
{
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0) {
        return 0.0;
    }
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        if (buckets_[i] == 0) {
            continue;
        }
        const double next =
            static_cast<double>(seen + buckets_[i]);
        if (next >= target) {
            double v;
            if (i == 0) {
                v = min_;
            } else {
                // Interpolate inside the geometric bucket.
                const double lo = bucketLo(i);
                const double hi =
                    lo * std::pow(10.0, 1.0 / kBucketsPerDecade);
                const double frac =
                    buckets_[i] > 0
                        ? (target - static_cast<double>(seen)) /
                              static_cast<double>(buckets_[i])
                        : 0.0;
                v = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
            }
            return std::clamp(v, min_, max_);
        }
        seen += buckets_[i];
    }
    return max_;
}

void
Histogram::merge(const Histogram &other)
{
    if (other.count_ == 0) {
        return;
    }
    if (count_ == 0) {
        min_ = other.min_;
        max_ = other.max_;
    } else {
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }
    for (int i = 0; i < kBuckets; ++i) {
        buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
}

StatRegistry::Entry &
StatRegistry::require(const std::string &name, Entry::Kind kind)
{
    auto it = stats_.find(name);
    if (it != stats_.end()) {
        if (it->second.kind != kind) {
            mouse_panic("stat '%s' re-registered as a different kind",
                        name.c_str());
        }
        return it->second;
    }
    Entry e;
    e.kind = kind;
    return stats_.emplace(name, std::move(e)).first->second;
}

Counter &
StatRegistry::counter(const std::string &name, const std::string &desc)
{
    Entry &e = require(name, Entry::Kind::kCounter);
    if (!e.counter) {
        e.counter = std::make_unique<Counter>();
        e.desc = desc;
    }
    return *e.counter;
}

Scalar &
StatRegistry::scalar(const std::string &name, MergePolicy policy,
                     const std::string &desc)
{
    Entry &e = require(name, Entry::Kind::kScalar);
    if (!e.scalar) {
        e.scalar = std::make_unique<Scalar>(policy);
        e.desc = desc;
    }
    return *e.scalar;
}

Histogram &
StatRegistry::histogram(const std::string &name,
                        const std::string &desc)
{
    Entry &e = require(name, Entry::Kind::kHistogram);
    if (!e.histogram) {
        e.histogram = std::make_unique<Histogram>();
        e.desc = desc;
    }
    return *e.histogram;
}

void
StatRegistry::formula(const std::string &name, FormulaFn fn,
                      const std::string &desc)
{
    Entry &e = require(name, Entry::Kind::kFormula);
    e.formula = std::move(fn);
    e.desc = desc;
}

const Counter *
StatRegistry::findCounter(const std::string &name) const
{
    auto it = stats_.find(name);
    return it != stats_.end() ? it->second.counter.get() : nullptr;
}

const Scalar *
StatRegistry::findScalar(const std::string &name) const
{
    auto it = stats_.find(name);
    return it != stats_.end() ? it->second.scalar.get() : nullptr;
}

const Histogram *
StatRegistry::findHistogram(const std::string &name) const
{
    auto it = stats_.find(name);
    return it != stats_.end() ? it->second.histogram.get() : nullptr;
}

double
StatRegistry::counterValue(const std::string &name) const
{
    const Counter *c = findCounter(name);
    return c ? static_cast<double>(c->value()) : 0.0;
}

double
StatRegistry::scalarValue(const std::string &name) const
{
    const Scalar *s = findScalar(name);
    return s ? s->value() : 0.0;
}

void
StatRegistry::merge(const StatRegistry &other)
{
    for (const auto &[name, src] : other.stats_) {
        switch (src.kind) {
          case Entry::Kind::kCounter:
            counter(name, src.desc) += src.counter->value();
            break;
          case Entry::Kind::kScalar:
            scalar(name, src.scalar->policy(), src.desc)
                .merge(*src.scalar);
            break;
          case Entry::Kind::kHistogram:
            histogram(name, src.desc).merge(*src.histogram);
            break;
          case Entry::Kind::kFormula:
            // Adopt if absent; formulas look stats up by name, so
            // the copy re-evaluates against the merged registry.
            if (stats_.find(name) == stats_.end()) {
                formula(name, src.formula, src.desc);
            }
            break;
        }
    }
}

namespace
{

std::string
histogramJson(const Histogram &h)
{
    std::string j = "{\"count\":" + std::to_string(h.count());
    j += ",\"sum\":" + num(h.sum());
    j += ",\"min\":" + num(h.min());
    j += ",\"max\":" + num(h.max());
    j += ",\"mean\":" + num(h.mean());
    j += ",\"p50\":" + num(h.percentile(0.50));
    j += ",\"p90\":" + num(h.percentile(0.90));
    j += ",\"p99\":" + num(h.percentile(0.99));
    j += "}";
    return j;
}

} // namespace

std::string
StatRegistry::toJson() const
{
    // The map is name-sorted, so dotted names sharing a prefix are
    // adjacent; walk them while tracking the open component path.
    std::string j = "{";
    std::vector<std::string> open;
    bool first = true;
    for (const auto &[name, e] : stats_) {
        std::vector<std::string> parts;
        std::size_t pos = 0;
        while (true) {
            const std::size_t dot = name.find('.', pos);
            if (dot == std::string::npos) {
                parts.push_back(name.substr(pos));
                break;
            }
            parts.push_back(name.substr(pos, dot - pos));
            pos = dot + 1;
        }
        // Close groups that this name is no longer inside.
        std::size_t common = 0;
        while (common < open.size() && common + 1 < parts.size() &&
               open[common] == parts[common]) {
            ++common;
        }
        for (std::size_t k = open.size(); k > common; --k) {
            j += "}";
        }
        open.resize(common);
        if (!first) {
            j += ",";
        }
        first = false;
        // Open the new groups down to the leaf.
        for (std::size_t k = common; k + 1 < parts.size(); ++k) {
            j += "\"" + parts[k] + "\":{";
            open.push_back(parts[k]);
        }
        j += "\"" + parts.back() + "\":";
        switch (e.kind) {
          case Entry::Kind::kCounter:
            j += std::to_string(e.counter->value());
            break;
          case Entry::Kind::kScalar:
            j += num(e.scalar->value());
            break;
          case Entry::Kind::kHistogram:
            j += histogramJson(*e.histogram);
            break;
          case Entry::Kind::kFormula:
            j += num(e.formula ? e.formula(*this) : 0.0);
            break;
        }
    }
    for (std::size_t k = open.size(); k > 0; --k) {
        j += "}";
    }
    j += "}";
    return j;
}

std::string
StatRegistry::toCsv() const
{
    std::string csv =
        "name,kind,value,count,sum,min,max,mean,p50,p90,p99\n";
    for (const auto &[name, e] : stats_) {
        csv += name;
        switch (e.kind) {
          case Entry::Kind::kCounter:
            csv += ",counter," + std::to_string(e.counter->value()) +
                   ",,,,,,,,";
            break;
          case Entry::Kind::kScalar:
            csv += ",scalar," + num(e.scalar->value()) + ",,,,,,,,";
            break;
          case Entry::Kind::kFormula:
            csv += ",formula," +
                   num(e.formula ? e.formula(*this) : 0.0) +
                   ",,,,,,,,";
            break;
          case Entry::Kind::kHistogram: {
            const Histogram &h = *e.histogram;
            csv += ",histogram,," + std::to_string(h.count()) + "," +
                   num(h.sum()) + "," + num(h.min()) + "," +
                   num(h.max()) + "," + num(h.mean()) + "," +
                   num(h.percentile(0.5)) + "," +
                   num(h.percentile(0.9)) + "," +
                   num(h.percentile(0.99));
            break;
          }
        }
        csv += "\n";
    }
    return csv;
}

} // namespace mouse::obs
