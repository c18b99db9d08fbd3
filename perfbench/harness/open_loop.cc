#include "harness/open_loop.hh"

#include <cmath>

#include "common/rng.hh"

namespace perfbench
{

std::vector<double>
poissonArrivals(std::uint64_t seed, double rate, double duration)
{
    mouse::Rng rng(seed);
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        t += -std::log1p(-rng.uniform()) / rate;
        if (t >= duration) {
            return due;
        }
        due.push_back(t);
    }
}

OpenLoopResult
runOpenLoop(const std::vector<double> &due, double window,
            const OpenLoopHooks &hooks)
{
    OpenLoopResult r;
    const std::size_t n = due.size();
    r.latency.resize(n);
    r.lag.resize(n);
    r.completion.resize(n);
    r.submitted.resize(n);
    const double t0 = hooks.now();
    std::size_t next = 0;
    while (next < n) {
        const double boundary =
            static_cast<double>(r.windows + 1) * window;
        ++r.windows;
        hooks.sleepUntil(t0 + boundary);
        const std::size_t first = next;
        while (next < n && due[next] < boundary) {
            r.submitted[next] = hooks.now() - t0;
            r.lag[next] = r.submitted[next] - boundary;
            hooks.submit(next);
            ++next;
        }
        if (next == first) {
            continue;
        }
        const double d0 = hooks.now();
        hooks.drain();
        const double done = hooks.now();
        r.drainSeconds.push_back(done - d0);
        for (std::size_t i = first; i < next; ++i) {
            r.completion[i] = done - t0;
            r.latency[i] = r.completion[i] - due[i];
        }
    }
    r.scheduleEnd = static_cast<double>(r.windows) * window;
    return r;
}

std::size_t
backlogAtEnd(const OpenLoopResult &r)
{
    std::size_t n = 0;
    for (double c : r.completion) {
        n += c > r.scheduleEnd ? 1 : 0;
    }
    return n;
}

} // namespace perfbench
