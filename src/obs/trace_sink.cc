#include "trace_sink.hh"

#include "common/json.hh"

namespace mouse::obs
{

namespace
{

constexpr std::size_t kDefaultMaxEvents = 1u << 20;
constexpr std::size_t kDefaultMaxSamples = 1u << 20;

using json::num;

} // namespace

TraceSink::TraceSink(std::size_t maxEvents, std::size_t maxSamples)
    : maxEvents_(maxEvents > 0 ? maxEvents : kDefaultMaxEvents),
      maxSamples_(maxSamples > 0 ? maxSamples : kDefaultMaxSamples)
{
}

void
TraceSink::push(TraceEvent e)
{
    if (events_.size() >= maxEvents_) {
        ++droppedEvents_;
        return;
    }
    events_.push_back(std::move(e));
}

void
TraceSink::complete(const char *name, const char *cat, double tsS,
                    double durS, std::string args,
                    std::uint32_t pid, std::uint32_t tid)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.phase = 'X';
    e.tsUs = tsS * 1e6;
    e.durUs = durS * 1e6;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    push(std::move(e));
}

void
TraceSink::instant(const char *name, const char *cat, double tsS,
                   std::string args, std::uint32_t pid,
                   std::uint32_t tid)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.phase = 'i';
    e.tsUs = tsS * 1e6;
    e.pid = pid;
    e.tid = tid;
    e.args = std::move(args);
    push(std::move(e));
}

void
TraceSink::counter(const char *name, const char *cat, double tsS,
                   double value)
{
    TraceEvent e;
    e.name = name;
    e.cat = cat;
    e.phase = 'C';
    e.tsUs = tsS * 1e6;
    e.args = "{\"value\":" + num(value) + "}";
    push(std::move(e));
}

void
TraceSink::sample(double timeS, double capVoltage,
                  double harvestPower)
{
    if (samples_.size() >= maxSamples_) {
        ++droppedSamples_;
        return;
    }
    samples_.push_back({timeS, capVoltage, harvestPower, 0});
}

void
TraceSink::mergeFrom(const TraceSink &other, std::uint32_t pid)
{
    events_.reserve(events_.size() + other.events_.size());
    for (const TraceEvent &e : other.events_) {
        if (events_.size() >= maxEvents_) {
            ++droppedEvents_;
            continue;
        }
        events_.push_back(e);
        events_.back().pid = pid;
    }
    samples_.reserve(samples_.size() + other.samples_.size());
    for (const WaveformSample &s : other.samples_) {
        if (samples_.size() >= maxSamples_) {
            ++droppedSamples_;
            continue;
        }
        samples_.push_back(s);
        samples_.back().pid = pid;
    }
    droppedEvents_ += other.droppedEvents_;
    droppedSamples_ += other.droppedSamples_;
}

void
TraceSink::appendFrom(const TraceSink &other)
{
    events_.reserve(events_.size() + other.events_.size());
    for (const TraceEvent &e : other.events_) {
        if (events_.size() >= maxEvents_) {
            ++droppedEvents_;
            continue;
        }
        events_.push_back(e);
    }
    samples_.reserve(samples_.size() + other.samples_.size());
    for (const WaveformSample &s : other.samples_) {
        if (samples_.size() >= maxSamples_) {
            ++droppedSamples_;
            continue;
        }
        samples_.push_back(s);
    }
    droppedEvents_ += other.droppedEvents_;
    droppedSamples_ += other.droppedSamples_;
}

std::string
TraceSink::toChromeJson() const
{
    std::string j = "{\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &body) {
        if (!first) {
            j += ",";
        }
        first = false;
        j += body;
    };
    for (const TraceEvent &e : events_) {
        std::string b = "{\"name\":\"" + e.name + "\",\"cat\":\"" +
                        e.cat + "\",\"ph\":\"" + e.phase + "\"";
        b += ",\"ts\":" + num(e.tsUs);
        if (e.phase == 'X') {
            b += ",\"dur\":" + num(e.durUs);
        }
        b += ",\"pid\":" + std::to_string(e.pid);
        b += ",\"tid\":" + std::to_string(e.tid);
        if (!e.args.empty()) {
            b += ",\"args\":" + e.args;
        } else if (e.phase == 'i') {
            b += ",\"s\":\"t\"";
        }
        b += "}";
        emit(b);
    }
    // The waveform rides along as counter series so Perfetto plots
    // the capacitor charge/discharge dynamics on the same timeline.
    for (const WaveformSample &s : samples_) {
        const std::string ts = num(s.timeS * 1e6);
        const std::string pid = std::to_string(s.pid);
        emit("{\"name\":\"cap_voltage_v\",\"cat\":\"waveform\","
             "\"ph\":\"C\",\"ts\":" +
             ts + ",\"pid\":" + pid +
             ",\"tid\":0,\"args\":{\"value\":" + num(s.capVoltage) +
             "}}");
        emit("{\"name\":\"harvest_power_w\",\"cat\":\"waveform\","
             "\"ph\":\"C\",\"ts\":" +
             ts + ",\"pid\":" + pid +
             ",\"tid\":0,\"args\":{\"value\":" +
             num(s.harvestPower) + "}}");
    }
    j += "],\"displayTimeUnit\":\"ms\"";
    j += ",\"otherData\":{\"dropped_events\":" +
         std::to_string(droppedEvents_) +
         ",\"dropped_samples\":" + std::to_string(droppedSamples_) +
         "}}";
    return j;
}

std::string
TraceSink::waveformCsv() const
{
    std::string csv = "point,t_s,cap_voltage_v,harvest_power_w\n";
    for (const WaveformSample &s : samples_) {
        csv += std::to_string(s.pid) + "," + num(s.timeS) + "," +
               num(s.capVoltage) + "," + num(s.harvestPower) + "\n";
    }
    return csv;
}

} // namespace mouse::obs
