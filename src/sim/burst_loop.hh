/**
 * @file
 * The burst loop behind every simulator, internal to src/sim and
 * src/baseline: one loop, runBursts(machine, power), with its
 * telemetry probe, the records machines and powers exchange, and the
 * three powers.
 *
 * A machine says what the next chunk of work costs, commits it, dies
 * partway through an attempt and tells the loop what the outage
 * costs it.  Its interface:
 *
 *   kStepwise     true when a chunk is one controller step (the cut
 *                 then lands on a micro-step);
 *   done()        all work committed;
 *   pending()     units the next chunk may commit at most;
 *   unitCost()    load-side energy of one unit of that chunk;
 *   unitTime()    seconds of one unit of that chunk;
 *   reserve()     load-side energy the buffer keeps back for the
 *                 machine's just-in-time backup;
 *   idlePower()   standby power while executing;
 *   period()      checkpoint period reported with chunk events;
 *   commit(n)     run n units and return their Work;
 *   interrupt(c)  the attempt died at Cut c: return the Outage.
 *
 * A machine may also opt in to burst skipping (SkippableMachine):
 *
 *   burstKey()    its state at a burst start, which with the buffer
 *                 voltage decides the whole burst;
 *   skip(u)       move u units through the current chunk unrun.
 *
 * A power says how many units fit before an outage and where the cut
 * lands, then recharges: ContinuousPower never cuts, SchedulePower
 * cuts where an OutageSchedule says, and HarvestEnv runs a capacitor
 * charged by a power source.
 */

#ifndef MOUSE_SIM_BURST_LOOP_HH
#define MOUSE_SIM_BURST_LOOP_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/simulator.hh"

namespace mouse::sim
{

/**
 * Telemetry probe of the burst loop.  Holds raw pointers into the
 * run's Telemetry bundle; every method self-gates, and the loop's
 * call sites are additionally wrapped in MOUSE_OBS_HOOK so a null
 * telemetry costs one predictable branch (or nothing at all under
 * MOUSE_OBS_DISABLE_HOOKS).
 */
class SimProbe
{
  public:
    explicit SimProbe(obs::Telemetry *telem)
    {
        if (telem == nullptr) {
            return;
        }
        cfg_ = telem->config;
        sink_ = telem->sink.get();
        reg_ = telem->stats.get();
        if (reg_ != nullptr) {
            outageDur_ = &reg_->histogram(
                "sim.outage.duration_s",
                "seconds powered off per outage");
            burstInstr_ = &reg_->histogram(
                "sim.burst.instructions",
                "instructions committed per powered-on burst");
            restores_ =
                &reg_->counter("sim.restore.count",
                               "restart-protocol executions");
            recharges_ = &reg_->counter(
                "harvest.cap.recharges",
                "full recharges of the buffer capacitor");
            vMin_ = &reg_->scalar("harvest.cap.voltage_min_v",
                                  obs::MergePolicy::kMin,
                                  "lowest sampled buffer voltage");
            vMax_ = &reg_->scalar("harvest.cap.voltage_max_v",
                                  obs::MergePolicy::kMax,
                                  "highest sampled buffer voltage");
        }
    }

    bool wantsEvents() const { return sink_ && cfg_.events; }
    bool wantsWaveform() const { return sink_ && cfg_.waveform; }

    /** A chunk of @p n identical instructions committed (trace). */
    void
    commitChunk(std::uint64_t n, Seconds t0, Seconds dur,
                unsigned checkpointPeriod)
    {
        burst_ += n;
        if (wantsEvents()) {
            sink_->complete(
                "burst", "exec", t0, dur,
                "{\"instructions\":" + std::to_string(n) + "}");
            sink_->instant(
                "checkpoint", "backup", t0 + dur,
                "{\"instructions\":" + std::to_string(n) +
                    ",\"period\":" +
                    std::to_string(checkpointPeriod) + "}");
        }
    }

    /** One instruction committed (functional). */
    void
    commitInstr(Seconds t0, Seconds dur, std::size_t pc, int op)
    {
        ++burst_;
        if (wantsEvents()) {
            sink_->complete("instr", "exec", t0, dur,
                            "{\"pc\":" + std::to_string(pc) +
                                ",\"op\":" + std::to_string(op) +
                                "}");
            sink_->instant("checkpoint", "backup", t0 + dur);
        }
    }

    /** An attempt died mid-instruction; the power goes off at
     *  @p off, once any just-in-time backup is done. */
    void
    outageBegin(Seconds t, Seconds attemptDur, Joules wasted,
                Seconds off)
    {
        if (burstInstr_ != nullptr) {
            burstInstr_->sample(static_cast<double>(burst_));
        }
        burst_ = 0;
        offSince_ = off;
        if (wantsEvents()) {
            sink_->complete("dead_attempt", "exec", t, attemptDur,
                            "{\"wasted_j\":" + json::num(wasted) + "}");
            sink_->instant("power_off", "power", offSince_);
            sink_->counter("power_state", "power", offSince_, 0.0);
        }
    }

    /** Just-in-time backup as the supply collapses. */
    void
    backup(Seconds t0, Seconds dur, Joules energy)
    {
        if (wantsEvents()) {
            sink_->complete("backup", "power", t0, dur,
                            "{\"energy_j\":" + json::num(energy) + "}");
        }
    }

    /** Replayed instructions after a restart are Dead work too. */
    void
    deadReplay(std::uint64_t n, Seconds t0, Seconds dur)
    {
        if (wantsEvents()) {
            sink_->complete(
                "replay", "exec", t0, dur,
                "{\"instructions\":" + std::to_string(n) + "}");
        }
    }

    /** The capacitor refilled; power is back at @p t. */
    void
    rechargeDone(Seconds t)
    {
        if (recharges_ != nullptr) {
            recharges_->increment();
            if (offSince_ >= 0.0) {
                outageDur_->sample(t - offSince_);
            }
        }
        if (wantsEvents() && offSince_ >= 0.0) {
            sink_->complete("outage", "power", offSince_,
                            t - offSince_);
            sink_->instant("power_on", "power", t);
            sink_->counter("power_state", "power", t, 1.0);
        }
        offSince_ = -1.0;
    }

    /** Restart protocol re-issued the activation journal. */
    void
    restore(Seconds t0, Seconds dur, Joules energy)
    {
        if (restores_ != nullptr) {
            restores_->increment();
        }
        if (wantsEvents()) {
            sink_->complete("restore", "power", t0, dur,
                            "{\"energy_j\":" + json::num(energy) + "}");
        }
    }

    /** Waveform sample, rate-limited to the configured period. */
    void
    maybeSample(Seconds t, Volts v, Watts p)
    {
        if (vMin_ != nullptr) {
            vMin_->observe(v);
            vMax_->observe(v);
        }
        // A gap of one period up to rounding counts as a period, so
        // evenly spaced recharge samples are not dropped.
        if (!wantsWaveform() ||
            (lastSample_ >= 0.0 &&
             t - lastSample_ < cfg_.waveformPeriod * (1.0 - 1e-9))) {
            return;
        }
        lastSample_ = t;
        sink_->sample(t, v, p);
    }

    /**
     * Synthesize waveform samples for a closed-form recharge from
     * @p v0 to @p v1: v(t) = sqrt(v0^2 + 2 E(t) / C), with E(t) the
     * energy @p src delivers in the first t seconds.
     */
    void
    sampleRecharge(Seconds t0, Seconds dt, Volts v0, Volts v1,
                   Farads c, const PowerSource &src)
    {
        if (!wantsWaveform() || dt <= 0.0) {
            maybeSample(t0 + dt, v1, src.power(t0));
            return;
        }
        const double steps = std::clamp(
            std::floor(dt / cfg_.waveformPeriod), 1.0, 256.0);
        const Seconds step = dt / steps;
        for (double k = 1.0; k <= steps; k += 1.0) {
            const Seconds at = step * k;
            const Volts v = std::sqrt(
                v0 * v0 + 2.0 * src.energyOver(t0, at) / c);
            maybeSample(t0 + at, std::min(v, v1), src.power(t0 + at));
        }
    }

    /** Close out the run: totals, shares, and overflow counters. */
    void
    finalize(const RunStats &stats)
    {
        if (reg_ != nullptr) {
            if (burst_ > 0 && stats.outages > 0) {
                burstInstr_->sample(static_cast<double>(burst_));
            }
            auto count = [&](const char *name, std::uint64_t v,
                             const char *desc) {
                reg_->counter(name, desc) += v;
            };
            count("sim.instr.committed", stats.instructionsCommitted,
                  "instructions that committed");
            count("sim.instr.dead", stats.instructionsDead,
                  "instruction attempts killed by outages (incl. "
                  "replays)");
            count("sim.outage.count", stats.outages,
                  "power outages (= restarts)");
            auto set = [&](const char *name, double v,
                           const char *desc) {
                reg_->scalar(name, obs::MergePolicy::kSum, desc)
                    .observe(v);
            };
            set("sim.energy.compute_j", stats.computeEnergy,
                "energy of committed instructions");
            set("sim.energy.backup_j", stats.backupEnergy,
                "checkpoint-write energy");
            set("sim.energy.dead_j", stats.deadEnergy,
                "energy of attempts an outage killed");
            set("sim.energy.restore_j", stats.restoreEnergy,
                "restart-protocol energy");
            set("sim.energy.idle_j", stats.idleEnergy,
                "standby leakage while energized");
            set("sim.energy.total_j", stats.totalEnergy(),
                "total load-side energy");
            set("sim.time.active_s", stats.activeTime,
                "time executing committed instructions");
            set("sim.time.dead_s", stats.deadTime,
                "time lost to killed attempts");
            set("sim.time.restore_s", stats.restoreTime,
                "time re-issuing activations");
            set("sim.time.charging_s", stats.chargingTime,
                "time powered off, recharging");
            set("sim.time.total_s", stats.totalTime(),
                "end-to-end simulated time");
            auto share = [&](const char *name, const char *part,
                             const char *whole, const char *desc) {
                reg_->formula(
                    name,
                    [part, whole](const obs::StatRegistry &r) {
                        const double total = r.scalarValue(whole);
                        return total > 0.0
                                   ? r.scalarValue(part) / total
                                   : 0.0;
                    },
                    desc);
            };
            share("sim.energy.dead_share", "sim.energy.dead_j",
                  "sim.energy.total_j",
                  "dead / total energy (Fig. 10-12 commentary)");
            share("sim.energy.backup_share", "sim.energy.backup_j",
                  "sim.energy.total_j", "backup / total energy");
            share("sim.time.charging_share", "sim.time.charging_s",
                  "sim.time.total_s", "charging / total time");
            if (sink_ != nullptr) {
                reg_->counter("obs.trace.dropped_events",
                              "events lost to the buffer cap") +=
                    sink_->droppedEvents();
                reg_->counter("obs.trace.dropped_samples",
                              "waveform samples lost to the cap") +=
                    sink_->droppedSamples();
            }
        }
        if (sink_ != nullptr && sink_->droppedEvents() > 0) {
            mouse_warn("trace sink dropped %llu events (raise "
                       "TraceConfig.maxEvents)",
                       static_cast<unsigned long long>(
                           sink_->droppedEvents()));
        }
    }

  private:
    obs::TraceConfig cfg_{};
    obs::StatRegistry *reg_ = nullptr;
    obs::TraceSink *sink_ = nullptr;
    obs::Counter *restores_ = nullptr;
    obs::Counter *recharges_ = nullptr;
    obs::Histogram *outageDur_ = nullptr;
    obs::Histogram *burstInstr_ = nullptr;
    obs::Scalar *vMin_ = nullptr;
    obs::Scalar *vMax_ = nullptr;
    /** Instructions committed since the last outage. */
    std::uint64_t burst_ = 0;
    /** Start of the current off period; -1 while powered. */
    Seconds offSince_ = -1.0;
    Seconds lastSample_ = -1.0;
};

/** What one committed chunk adds to the run. */
struct Work
{
    Joules exec = 0.0;
    Joules backup = 0.0;
    Seconds time = 0.0;
    /** Instructions committed (a HALT step commits none). */
    std::uint64_t count = 0;
    /** Controller step only: the energy it drew, its PC and op. */
    Joules load = 0.0;
    std::size_t pc = 0;
    int op = 0;
    /** The chunk re-executes work an outage rolled back: it is Dead
     *  work, not committed. */
    bool replay = false;
};

/** Where a power cut lands in the attempt it kills. */
struct Cut
{
    /** When the attempt started, and how long it ran. */
    Seconds at = 0.0;
    Seconds time = 0.0;
    MicroStep step = MicroStep::kExecute;
    /** Intra-phase fraction for Controller::stepInterrupted. */
    double fraction = 0.0;
    /** Energy the buffer delivered before dying. */
    Joules delivered = 0.0;
    /** Energy the instruction needed. */
    Joules need = 0.0;
};

/** Backup, restore or replay work; count 0 means none. */
struct Overhead
{
    std::uint64_t count = 0;
    Joules energy = 0.0;
    Seconds time = 0.0;
};

/** What an outage costs the machine. */
struct Outage
{
    Joules wasted = 0.0;
    /** Paid as the supply collapses, from the machine's reserve. */
    Overhead backup;
    /** Paid on power-up, after the recharge. */
    Overhead restore;
    Overhead replay;
};

/**
 * Post @p amount to the RunStats field @p Field in @p book.  The
 * booking functions are always_inline: left to the inliner, they
 * reached the burst loop late, and a harvested run whose bursts
 * never repeat took ~1 % longer.
 */
template <auto Field, class Book, class T>
[[gnu::always_inline]] inline void
post(Book &book, T amount)
{
    book.template add<Field>(amount);
}

/**
 * The loop's accounting of a committed chunk, in the loop's order:
 * a post() for every RunStats field it adds to, and book.clock(dt)
 * for every step a harvesting power's clock takes (HarvestEnv's
 * settle).  addWork applies it to a RunStats; a tape of repeated
 * bursts records it.
 */
template <class Book>
[[gnu::always_inline]] inline void
bookWork(Book &book, const Work &w)
{
    book.clock(w.time);
    if (w.replay) {
        post<&RunStats::deadEnergy>(book, w.exec + w.backup);
        post<&RunStats::deadTime>(book, w.time);
        post<&RunStats::instructionsDead>(book, w.count);
        return;
    }
    post<&RunStats::computeEnergy>(book, w.exec);
    post<&RunStats::backupEnergy>(book, w.backup);
    post<&RunStats::activeTime>(book, w.time);
    post<&RunStats::instructionsCommitted>(book, w.count);
}

/**
 * The loop's accounting of an outage, in the loop's order: the
 * attempt the cut of @p cutTime killed, @p o, and @p charge seconds
 * of recharge.  The clock steps as HarvestEnv's cut, spend and
 * recharge move it.
 */
template <class Book>
[[gnu::always_inline]] inline void
bookOutage(Book &book, Seconds cutTime, const Outage &o, Seconds charge)
{
    book.clock(cutTime);
    post<&RunStats::deadEnergy>(book, o.wasted);
    post<&RunStats::deadTime>(book, cutTime);
    post<&RunStats::instructionsDead>(book, 1);
    post<&RunStats::outages>(book, 1);
    if (o.backup.count > 0) {
        book.clock(o.backup.time);
        post<&RunStats::backupEnergy>(book, o.backup.energy);
        post<&RunStats::restoreTime>(book, o.backup.time);
    }
    book.clock(charge);
    post<&RunStats::chargingTime>(book, charge);
    if (o.restore.count > 0) {
        book.clock(o.restore.time);
        post<&RunStats::restoreEnergy>(book, o.restore.energy);
        post<&RunStats::restoreTime>(book, o.restore.time);
    }
    if (o.replay.count > 0) {
        book.clock(o.replay.time);
        post<&RunStats::deadEnergy>(book, o.replay.energy);
        post<&RunStats::deadTime>(book, o.replay.time);
        post<&RunStats::instructionsDead>(book, 1);
    }
}

/** Books into a RunStats; the power keeps its own clock. */
struct StatsBook
{
    RunStats &stats;

    template <auto Field, class T>
    [[gnu::always_inline]] void
    add(T amount)
    {
        stats.*Field += amount;
    }

    void clock(Seconds) {}
};

/** Add a committed chunk to the run's accounting. */
inline void
addWork(RunStats &stats, const Work &w)
{
    StatsBook book{stats};
    bookWork(book, w);
}

/** Add an outage to the run's accounting (bookOutage). */
inline void
addOutage(RunStats &stats, Seconds cutTime, const Outage &o,
          Seconds charge)
{
    StatsBook book{stats};
    bookOutage(book, cutTime, o, charge);
}

/** Fewer passes than this run one by one in repeatAdd: finding a
 *  binade's increment takes two passes.  Low, because a skip's
 *  replay adds each field's amounts in one dependent chain, and even
 *  a short chain costs more than the jumps that shorten it. */
constexpr std::uint64_t kRepeatAddMinPasses = 4;

/**
 * @p x after @p k passes of `for (a : addends) x += a`, bit for bit,
 * in O(binades crossed) passes instead of k.
 *
 * In a binade [2^e, 2^(e+1)) every double is a multiple of the ulp
 * u, so x + a rounds to x plus a rounded to a multiple of u, a tie
 * going to the even multiple: the step depends only on a and on the
 * parity of x / u.  With non-negative addends a pass only climbs, so
 * when it starts and ends inside the binade every partial sum is
 * inside too, and its increment depends only on that parity.  Two
 * consecutive passes with equal increments d then fix d for the rest
 * of the binade (with d / u even they started on one parity, with it
 * odd on both), so every pass that still ends inside is one jump,
 * and the pass that crosses into the next binade runs plainly.
 * Zero, subnormal, negative or non-finite x, negative or non-finite
 * addends, unequal increments and short runs take plain passes; a
 * pass that leaves x as it was leaves it there for good.
 */
inline double
repeatAdd(double x, std::span<const double> addends, std::uint64_t k)
{
    const auto pass = [addends](double v) {
        for (const double a : addends) {
            v += a;
        }
        return v;
    };
    const auto bits = [](double v) {
        return std::bit_cast<std::uint64_t>(v);
    };
    constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
    const bool climbs =
        std::all_of(addends.begin(), addends.end(), [](double a) {
            return a >= 0.0 && a <= std::numeric_limits<double>::max();
        });
    while (k > 0) {
        if (!climbs || k < kRepeatAddMinPasses || !std::isnormal(x) ||
            x < 0.0) {
            const double next = pass(x);
            --k;
            if (bits(next) == bits(x)) {
                return x;
            }
            x = next;
            continue;
        }
        const std::uint64_t b0 = bits(x);
        const std::uint64_t b1 = bits(pass(x));
        const std::uint64_t b2 = bits(pass(std::bit_cast<double>(b1)));
        k -= 2;
        x = std::bit_cast<double>(b2);
        // Positive doubles order as their bits, so equal exponent
        // fields at both ends put both passes inside x's binade.
        if ((b2 >> 52) != (b0 >> 52) || b1 - b0 != b2 - b1) {
            continue;
        }
        const std::uint64_t d = b1 - b0;
        if (d == 0) {
            return x;
        }
        const std::uint64_t n =
            std::min(k, (kMantissa - (b2 & kMantissa)) / d);
        x = std::bit_cast<double>(b2 + n * d);
        k -= n;
    }
    return x;
}

/** Checkpoint discipline of a run without a schedule: MOUSE's
 *  per-cycle protocol. */
inline const OutageSchedule kPerCycle;

/**
 * Scripted power: cuts exactly where an OutageSchedule says and is
 * back as soon as the restart protocol can run (charging time is not
 * modelled).
 */
class SchedulePower
{
  public:
    explicit SchedulePower(const OutageSchedule &s = kPerCycle,
                           std::uint64_t maxAttempts = 0)
        : points_(s.points), maxAttempts_(maxAttempts)
    {
    }

    /** No non-termination check: maxAttempts bounds a schedule. */
    static constexpr unsigned limit =
        std::numeric_limits<unsigned>::max();
    Seconds now = 0.0;

    template <class Machine>
    void
    begin(const Machine &, RunStats &, SimProbe *)
    {
    }

    /** Out of attempts: the caller sees halted() == false. */
    bool
    exhausted() const
    {
        return maxAttempts_ > 0 && attempt_ >= maxAttempts_;
    }

    template <class Machine>
    std::uint64_t
    fit(const Machine &m) const
    {
        if (next_ == points_.size()) {
            return m.pending();
        }
        const std::uint64_t due = points_[next_].attempt;
        return attempt_ >= due ? 0 : std::min(m.pending(), due - attempt_);
    }

    template <class Machine>
    void
    settle(const Machine &, std::uint64_t n, const Work &w)
    {
        attempt_ += n;
        now += w.time;
    }

    template <class Machine>
    Cut
    cut(const Machine &m)
    {
        const OutagePoint &p = points_[next_++];
        const double f = std::clamp(p.fraction, 0.0, 1.0);
        ++attempt_;
        const Cut c{now, m.unitTime() * f, p.step, f, 0.0, 0.0};
        now += c.time;
        return c;
    }

    /** Power is back at once: no charging time. */
    Seconds
    recharge([[maybe_unused]] SimProbe *probe)
    {
        MOUSE_OBS_HOOK(probe, probe->rechargeDone(now));
        return 0.0;
    }

    void spend(Seconds dt, Joules) { now += dt; }
    void sample(SimProbe &) const {}

  private:
    const std::vector<OutagePoint> &points_;
    std::uint64_t maxAttempts_;
    std::size_t next_ = 0;
    /** Every step, committed or cut, consumes one attempt index. */
    std::uint64_t attempt_ = 0;
};

/**
 * Continuous power: a schedule without cuts, known to be one at
 * compile time, so the loop's outage path folds away.
 */
struct ContinuousPower : SchedulePower
{
    using SchedulePower::SchedulePower;

    bool exhausted() const { return false; }

    template <class Machine>
    std::uint64_t
    fit(const Machine &m) const
    {
        return m.pending();
    }

    template <class Machine>
    void
    settle(const Machine &, std::uint64_t, const Work &w)
    {
        now += w.time;
    }
};

/** Map the failing load fraction onto a Figure-7 micro-step. */
inline MicroStep
microStepFor(double fraction, Rng &rng)
{
    // The fetch and commit machinery occupy small windows at the
    // cycle's ends; most of the cycle is the array operation.  Add
    // jitter so repeated outages do not always land identically.
    const double f =
        std::clamp(fraction + rng.uniform(-0.05, 0.05), 0.0, 1.0);
    if (f < 0.08) {
        return MicroStep::kFetch;
    }
    if (f < 0.80) {
        return MicroStep::kExecute;
    }
    if (f < 0.94) {
        return MicroStep::kWritePc;
    }
    return MicroStep::kCommit;
}

/** Consecutive failed attempts at one instruction before a
 *  harvested run is declared non-terminating. */
constexpr unsigned kNonTerminationLimit = 8;

/**
 * Capacitor + source power: the buffer capacitor inside its voltage
 * window, charged by the source through the platform's front end.
 * Power is cut when the buffer cannot cover the next unit of work on
 * top of the machine's reserve.
 *
 * Efficiency (docs/HARVESTING.md): the platform's front end derates
 * the source, both while recharging and as in-burst credit.  The
 * buffer -> load path is lossless, the paper's accounting, and every
 * run starts from an empty buffer, the paper's initial condition.
 */
struct HarvestEnv
{
    /** @p defaultCapacitance sizes the buffer when @p cfg names
     *  neither a platform nor an override; the machine runs between
     *  @p vLow and @p vHigh. */
    HarvestEnv(const HarvestConfig &cfg, Farads defaultCapacitance,
               Volts vLow, Volts vHigh)
        : cap(effectiveCapacitance(cfg, defaultCapacitance), 0.0),
          frontEnd(frontEndEfficiency(cfg)),
          sourceOwner(cfg.source.make()), source(*sourceOwner),
          timeInvariant(cfg.source.isConstant()), vLow(vLow),
          vHigh(vHigh), rng(cfg.seed)
    {
    }

    /** Charge to the restart voltage through the front end; returns
     *  the seconds it took. */
    Seconds
    recharge([[maybe_unused]] SimProbe *probe)
    {
        const Seconds dt =
            source.timeToHarvest(cap.energyTo(vHigh), now, frontEnd);
        if (dt > 1e7) {
            mouse_fatal("source never refills the buffer "
                        "(charged for >115 days of sim time)");
        }
        MOUSE_OBS_HOOK(probe, probe->sampleRecharge(now, dt,
                                                    cap.voltage(), vHigh,
                                                    cap.capacitance(),
                                                    source));
        now += dt;
        cap.setVoltage(vHigh);
        MOUSE_OBS_HOOK(probe, probe->rechargeDone(now));
        return dt;
    }

    Joules
    available() const
    {
        return cap.energyAbove(vLow);
    }

    /** The run starts by charging the buffer to the restart level;
     *  the machine's reserve is fixed for the run. */
    template <class Machine>
    void
    begin(const Machine &m, RunStats &stats, SimProbe *p)
    {
        reserve = m.reserve();
        stats.chargingTime += recharge(p);
    }

    bool exhausted() const { return false; }

    /**
     * Units of the pending chunk the buffer covers above the
     * reserve.  A chunk cannot watch the voltage between its units:
     * the source keeps trickling in at its chunk-start power, and the
     * net drain per unit decides how many fit (with a source stronger
     * than the draw, execution is continuous).  A controller step
     * only needs the buffer to cover it.
     */
    template <class Machine>
    std::uint64_t
    fit(const Machine &m)
    {
        need = m.unitCost();
        if constexpr (Machine::kStepwise) {
            return available() >= need ? 1 : 0;
        } else {
            const Joules credit =
                source.power(now) * frontEnd * m.unitTime();
            net = need > credit ? need - credit : 0.0;
            if (!(net > 0.0)) {
                return m.pending();
            }
            const Joules usable = available() - reserve;
            return usable > 0.0
                       ? std::min(m.pending(),
                                  static_cast<std::uint64_t>(
                                      usable / net))
                       : 0;
        }
    }

    /** Drain a committed chunk at its net rate; a controller step
     *  draws what it actually used, then gets the cycle's source
     *  credit, capped at the window top. */
    template <class Machine>
    void
    settle(const Machine &m, std::uint64_t n, const Work &w)
    {
        if constexpr (Machine::kStepwise) {
            cap.draw(w.load);
            cap.charge(source.power(now) * frontEnd, m.unitTime());
            if (cap.voltage() > vHigh) {
                cap.setVoltage(vHigh);
            }
        } else {
            cap.draw(net * static_cast<double>(n));
        }
        now += w.time;
    }

    /** The attempt dies where the energy above the reserve runs out
     *  (for a controller, at the matching micro-step) and drains the
     *  buffer down to the reserve. */
    template <class Machine>
    Cut
    cut(const Machine &m)
    {
        const Joules avail = std::max(available() - reserve, 0.0);
        const double fraction = need > 0.0 ? avail / need : 0.0;
        Cut c{now, m.unitTime() * std::min(1.0, fraction),
              MicroStep::kExecute, 0.0, avail, need};
        if constexpr (Machine::kStepwise) {
            c.step = microStepFor(fraction, rng);
            c.fraction = std::clamp((fraction - 0.08) / 0.72, 0.0, 1.0);
        }
        cap.draw(avail);
        now += c.time;
        return c;
    }

    void
    spend(Seconds dt, Joules load)
    {
        now += dt;
        cap.draw(load);
    }

    void
    sample(SimProbe &probe) const
    {
        probe.maybeSample(now, cap.voltage(), source.power(now));
    }

    Capacitor cap;
    /** Source -> buffer efficiency of the platform front end. */
    double frontEnd;
    std::unique_ptr<PowerSource> sourceOwner;
    const PowerSource &source;
    /** The source's power never changes, so neither does what a
     *  burst does from a given buffer voltage. */
    bool timeInvariant;
    Volts vLow;
    Volts vHigh;
    /** Jitters the micro-step a cut lands on. */
    Rng rng;
    static constexpr unsigned limit = kNonTerminationLimit;
    /** Absolute simulation time (for time-varying sources). */
    Seconds now = 0.0;
    /** Energy the machine keeps for its outage work. */
    Joules reserve = 0.0;
    /** Cost of the pending instruction. */
    Joules need = 0.0;
    /** Net per-instruction drain of the pending trace chunk. */
    Joules net = 0.0;
};

/** A machine whose repeated bursts the loop may skip. */
template <class M>
concept SkippableMachine = requires(M &m, const M &cm) {
    { cm.burstKey() == cm.burstKey() } -> std::convertible_to<bool>;
    m.skip(std::uint64_t{});
};

/** The loop's accounting, unrecorded. */
struct NoTape
{
    void commit(const Work &) {}
    void outage(Seconds, const Outage &, Seconds) {}
};

/**
 * Repeated-burst skipping, off: the loop runs every burst.  This is
 * the case for stepwise and non-opting machines, and for scripted
 * and continuous power.
 */
template <class Machine, class Power>
struct BurstCycles
{
    static constexpr bool kSkips = false;

    BurstCycles(const Power &, obs::Telemetry *) {}
};

/**
 * Repeated-burst skipping on a harvesting environment
 * (docs/HARVESTING.md, "Repeated bursts").  On a time-invariant
 * source a burst is decided by the buffer voltage and the machine's
 * burst key at its start, so a state seen before starts the same
 * bursts again.  Brent's cycle finding compares each burst start
 * with one anchor, moved at powers of two, which costs O(1) a burst.
 * Once the state returns, the loop runs one more cycle on a Tape,
 * which keeps the loop's accounting (bookWork, bookOutage) field by
 * field.  If the state returns again, skip() applies the tape k more
 * times and moves the machine past the units those cycles would
 * commit: each RunStats sum and the clock get their k passes from
 * repeatAdd, bit-identical to adding the amounts one by one in the
 * loop's order at a cost of a few passes per binade the field
 * crosses, and counts add k times their per-cycle total.  The
 * current chunk must hold more than k cycles' units, so every skipped
 * burst still ends in an outage.  A burst that commits nothing
 * restarts the search: it is never skipped, and the non-termination
 * check sees every one.
 */
template <SkippableMachine Machine>
class BurstCycles<Machine, HarvestEnv>
{
  public:
    static constexpr bool kSkips = true;

    /**
     * The loop's accounting over one cycle, field by field: per
     * RunStats sum and for the clock, its addends in the loop's
     * order; per count, its total.  bookWork and bookOutage post
     * into it as they post into a RunStats.
     */
    class Tape
    {
      public:
        void commit(const Work &w) { bookWork(*this, w); }

        void
        outage(Seconds cutTime, const Outage &o, Seconds charge)
        {
            bookOutage(*this, cutTime, o, charge);
        }

        template <auto Field, class T>
        void
        add(T amount)
        {
            if constexpr (std::is_same_v<decltype(Field),
                                         double RunStats::*>) {
                constexpr std::size_t i = indexOf(kSums, Field);
                static_assert(i < kSums.size(), "list the sum in kSums");
                sums_[i].push_back(amount);
            } else {
                constexpr std::size_t i = indexOf(kCounts, Field);
                static_assert(i < kCounts.size(),
                              "list the count in kCounts");
                counts_[i] += amount;
            }
        }

        void clock(Seconds dt) { clock_.push_back(dt); }

      private:
        friend BurstCycles;

        /** The RunStats sums and counts bookWork and bookOutage post
         *  to; posting another one does not compile. */
        static constexpr std::array<double RunStats::*, 8> kSums = {
            &RunStats::activeTime,    &RunStats::deadTime,
            &RunStats::restoreTime,   &RunStats::chargingTime,
            &RunStats::computeEnergy, &RunStats::backupEnergy,
            &RunStats::deadEnergy,    &RunStats::restoreEnergy};
        static constexpr std::array<std::uint64_t RunStats::*, 3>
            kCounts = {&RunStats::instructionsCommitted,
                       &RunStats::instructionsDead, &RunStats::outages};

        /** @p field's index in @p fields, or fields.size(). */
        template <class Fields, class Field>
        static constexpr std::size_t
        indexOf(const Fields &fields, Field field)
        {
            return static_cast<std::size_t>(
                std::find(fields.begin(), fields.end(), field) -
                fields.begin());
        }

        /** Forget the amounts, keeping the storage. */
        void
        clear()
        {
            for (std::vector<double> &addends : sums_) {
                addends.clear();
            }
            counts_.fill(0);
            clock_.clear();
        }

        /**
         * Apply the tape @p k times to @p stats, and return the clock
         * @p now advanced as HarvestEnv advances it.  Out of line: it
         * runs once per skip, and the loop's code stays small.
         */
        [[gnu::noinline]] Seconds
        replay(RunStats &stats, Seconds now, std::uint64_t k) const
        {
            for (std::size_t i = 0; i < kSums.size(); ++i) {
                double &sum = stats.*kSums[i];
                sum = repeatAdd(sum, sums_[i], k);
            }
            for (std::size_t i = 0; i < kCounts.size(); ++i) {
                stats.*kCounts[i] += k * counts_[i];
            }
            return repeatAdd(now, clock_, k);
        }

        std::array<std::vector<double>, kSums.size()> sums_;
        std::array<std::uint64_t, kCounts.size()> counts_{};
        std::vector<double> clock_;
    };

    /** Observed runs see every burst, so they never skip. */
    BurstCycles(const HarvestEnv &power, obs::Telemetry *telem)
        : enabled_(power.timeInvariant && telem == nullptr)
    {
    }

    /**
     * A burst starts; @p committed says the one before it committed
     * work.  Returns the bursts in a cycle worth taping (the state is
     * back at the anchor and the chunk holds more than two cycles),
     * else 0.
     */
    unsigned
    burstStart(const Machine &m, const HarvestEnv &power, bool committed)
    {
        if (!enabled_) {
            return 0;
        }
        const State s = state(m, power);
        if (!committed || !(s.key == anchor_.key)) {
            reanchor(s, m.pending());
            return 0;
        }
        ++bursts_;
        if (s.volts == anchor_.volts) {
            const unsigned cycle = bursts_;
            const std::uint64_t units = anchorPending_ - m.pending();
            reanchor(s, m.pending());
            return m.pending() > 2 * units ? cycle : 0;
        }
        if (bursts_ == limit_) {
            anchor_ = s;
            anchorPending_ = m.pending();
            limit_ = std::min(2 * limit_, kMaxCycle);
            bursts_ = 0;
        }
        return 0;
    }

    /** An empty tape for the cycle burstStart() asked for. */
    Tape &
    tape()
    {
        tape_.clear();
        return tape_;
    }

    /**
     * The loop ran the cycle burstStart() asked for onto tape();
     * @p committed says every burst of it committed work.  If the
     * state is back where the tape started, apply the tape k more
     * times and move the machine past the units they commit.
     */
    void
    skip(Machine &m, HarvestEnv &power, RunStats &stats, bool committed)
    {
        if (m.done()) {
            return;
        }
        const State s = state(m, power);
        if (committed && s.key == anchor_.key &&
            s.volts == anchor_.volts && m.pending() < anchorPending_) {
            // The chunk holds more than k cycles' units.
            const std::uint64_t units = anchorPending_ - m.pending();
            const std::uint64_t k = (m.pending() - 1) / units;
            power.now = tape_.replay(stats, power.now, k);
            m.skip(k * units);
        }
        reanchor(s, m.pending());
    }

  private:
    /** Longest cycle, in bursts, the search looks for (the paper
     *  grid's longest is 37). */
    static constexpr unsigned kMaxCycle = 64;

    struct State
    {
        std::uint64_t volts;
        decltype(std::declval<const Machine &>().burstKey()) key;
    };

    static State
    state(const Machine &m, const HarvestEnv &power)
    {
        return {std::bit_cast<std::uint64_t>(power.cap.voltage()),
                m.burstKey()};
    }

    void
    reanchor(const State &s, std::uint64_t pending)
    {
        anchor_ = s;
        anchorPending_ = pending;
        bursts_ = 0;
        limit_ = 1;
    }

    bool enabled_;
    /** The first burst start only anchors: no voltage has these
     *  bits. */
    State anchor_{~std::uint64_t{0}, {}};
    /** Units pending at the anchor. */
    std::uint64_t anchorPending_ = 0;
    /** Bursts since the anchor. */
    unsigned bursts_ = 0;
    /** The anchor moves after this many bursts. */
    unsigned limit_ = 1;
    Tape tape_;
};

/**
 * The burst loop behind every runner: commit what the power covers;
 * on a cut, account the dead attempt, back up, recharge, restart and
 * replay.  It owns all RunStats accounting and every probe call, and
 * lets BurstCycles skip the bursts that repeat.
 */
template <class Machine, class Power>
RunStats
runBursts(Machine &&m, Power &&power, obs::Telemetry *telem)
{
    RunStats stats;
    SimProbe probe(telem);
    SimProbe *const hooks = telem ? &probe : nullptr;
    power.begin(m, stats, hooks);
    unsigned failures = 0;
    // One turn of the loop: commit what the power covers, or take an
    // outage (then it returns true), telling @p tape what it adds.
    const auto turn = [&](auto &tape) {
        if (const std::uint64_t n = power.fit(m); n > 0) {
            failures = 0;
            [[maybe_unused]] const Seconds t0 = power.now;
            const Work w = m.commit(n);
            power.settle(m, n, w);
            addWork(stats, w);
            tape.commit(w);
            if (w.replay) {
                MOUSE_OBS_HOOK(telem, {
                    probe.deadReplay(w.count, t0, w.time);
                    power.sample(probe);
                });
            } else if (w.count > 0) {
                MOUSE_OBS_HOOK(telem, {
                    if constexpr (std::decay_t<Machine>::kStepwise) {
                        probe.commitInstr(t0, w.time, w.pc, w.op);
                    } else {
                        probe.commitChunk(w.count, t0, w.time,
                                          m.period());
                    }
                    power.sample(probe);
                });
            }
            return false;
        }
        // Outage mid-instruction: the attempt is Dead work.
        const Cut cut = power.cut(m);
        const Outage o = m.interrupt(cut);
        if (o.backup.count > 0) {
            MOUSE_OBS_HOOK(telem, probe.backup(power.now, o.backup.time,
                                               o.backup.energy));
            power.spend(o.backup.time, o.backup.energy);
        }
        MOUSE_OBS_HOOK(telem, probe.outageBegin(cut.at, cut.time,
                                                o.wasted, power.now));
        const Seconds charge = power.recharge(hooks);
        if (o.restore.count > 0) {
            MOUSE_OBS_HOOK(telem, probe.restore(power.now, o.restore.time,
                                                o.restore.energy));
            power.spend(o.restore.time, o.restore.energy);
        }
        if (o.replay.count > 0) {
            MOUSE_OBS_HOOK(telem, probe.deadReplay(o.replay.count,
                                                   power.now,
                                                   o.replay.time));
            power.spend(o.replay.time, o.replay.energy);
        }
        addOutage(stats, cut.time, o, charge);
        tape.outage(cut.time, o, charge);
        if (++failures > power.limit) {
            mouse_fatal("non-termination: a full burst cannot cover "
                        "one %.3g J instruction plus restore; reduce "
                        "parallelism or enlarge the capacitor",
                        cut.need);
        }
        return true;
    };
    using Cycles = BurstCycles<std::decay_t<Machine>, std::decay_t<Power>>;
    [[maybe_unused]] Cycles cycles(power, telem);
    NoTape none;
    while (!m.done() && !power.exhausted()) {
        if (!turn(none)) {
            continue;
        }
        if constexpr (Cycles::kSkips) {
            // A commit resets failures, so 1 means the burst
            // committed (the first burst start only anchors).
            const unsigned cycle =
                cycles.burstStart(m, power, failures == 1);
            if (cycle > 0) {
                auto &tape = cycles.tape();
                bool committed = true;
                for (unsigned b = 0; b < cycle && !m.done();) {
                    if (turn(tape)) {
                        committed &= failures == 1;
                        ++b;
                    }
                }
                cycles.skip(m, power, stats, committed);
            }
        }
    }
    stats.idleEnergy += m.idlePower() * stats.activeTime;
    MOUSE_OBS_HOOK(telem, probe.finalize(stats));
    return stats;
}

} // namespace mouse::sim

#endif // MOUSE_SIM_BURST_LOOP_HH
