#include "simulator.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <type_traits>

#include "common/logging.hh"

namespace mouse
{

namespace
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

    /** An attempt died mid-instruction; the outage window opens. */
    void
    outageBegin(Seconds t, Seconds attemptDur, Joules wasted)
    {
        if (burstInstr_ != nullptr) {
            burstInstr_->sample(static_cast<double>(burst_));
        }
        burst_ = 0;
        offSince_ = t + attemptDur;
        if (wantsEvents()) {
            sink_->complete("dead_attempt", "exec", t, attemptDur,
                            "{\"wasted_j\":" + jnum(wasted) + "}");
            sink_->instant("power_off", "power", offSince_);
            sink_->counter("power_state", "power", offSince_, 0.0);
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
            // Same interval under the "stall" category: live-metrics
            // consumers attribute brownout time separately from
            // compute and queueing without re-deriving it from the
            // power track (docs/OBSERVABILITY.md span taxonomy).
            sink_->complete("outage_stall", "stall", offSince_,
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
                            "{\"energy_j\":" + jnum(energy) + "}");
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
    static std::string
    jnum(double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return buf;
    }

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
    /** Load-side energy the buffer delivered before dying. */
    Joules delivered = 0.0;
    /** Buffer-side energy the instruction needed. */
    Joules need = 0.0;
};

/** Restore or replay work; count 0 means none. */
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
    Overhead restore;
    Overhead replay;
};

/**
 * Trace machine: run-length TraceBlocks priced by the EnergyModel; a
 * chunk is the rest of the current block.  A checkpoint period N > 1
 * (the Section IV-D study knob) amortizes the per-cycle backup over
 * N instructions, and an outage replays those committed since the
 * last checkpoint.
 */
class TraceMachine
{
  public:
    static constexpr bool kStepwise = false;

    TraceMachine(const Trace &trace, const EnergyModel &energy,
                 unsigned period)
        : blocks_(trace.blocks), energy_(energy),
          cycle_(energy.cycleTime()), period_(std::max(1u, period))
    {
        enter(0);
    }

    const EnergyModel &energy() const { return energy_; }
    bool done() const { return block_ == blocks_.size(); }
    std::uint64_t pending() const { return remaining_; }
    unsigned period() const { return period_; }
    Joules unitCost() const { return cost_.total(); }

    Work
    commit(std::uint64_t n)
    {
        const double nd = static_cast<double>(n);
        Work w;
        w.exec = cost_.exec * nd;
        w.backup = cost_.backup * nd;
        w.time = cycle_ * nd;
        w.count = n;
        uncheckpointed_ =
            period_ > 1 ? (uncheckpointed_ + n) % period_ : 0;
        remaining_ -= n;
        if (remaining_ == 0) {
            enter(block_ + 1);
        }
        return w;
    }

    /**
     * The killed attempt wastes all the buffer gave it.  Restart
     * re-issues the (single, in compiled kernels) Activate Columns
     * checkpoint, then replays what committed since the last
     * checkpoint; replay is idempotent, so only its cost matters.
     */
    Outage
    interrupt(const Cut &cut)
    {
        const unsigned cols = blocks_[block_].activeColsAfter;
        const double n = static_cast<double>(uncheckpointed_);
        const Outage o{cut.delivered,
                       {1, energy_.restoreEnergy(1, cols), cycle_},
                       {uncheckpointed_, cost_.total() * n, cycle_ * n}};
        uncheckpointed_ = 0;
        return o;
    }

  private:
    void
    enter(std::size_t block)
    {
        // Skip empty blocks (Trace::append never stores one).
        for (block_ = block; !done() && blocks_[block_].count == 0;
             ++block_) {
        }
        if (!done()) {
            const TraceBlock &blk = blocks_[block_];
            remaining_ = blk.count;
            cost_ = energy_.instructionCost(blk.op, blk.touchedCols);
            cost_.backup /= period_;
        }
    }

    const std::vector<TraceBlock> &blocks_;
    const EnergyModel &energy_;
    Seconds cycle_;
    unsigned period_;
    std::size_t block_ = 0;
    std::uint64_t remaining_ = 0;
    InstrCost cost_;
    std::uint64_t uncheckpointed_ = 0;
};

/** Checkpoint discipline of a run without a schedule: MOUSE's
 *  per-cycle protocol. */
const OutageSchedule kPerCycle;

/**
 * Controller machine: the bit-exact Controller, one step per chunk,
 * under the checkpoint discipline of an OutageSchedule.  A
 * SONIC-style window (period > 1) rolls the PC back on restart, to
 * the last explicit checkpoint crossed or else to a boundary every
 * `period` committed instructions, and the window re-executes as
 * ordinary steps.
 */
class ControllerMachine
{
  public:
    static constexpr bool kStepwise = true;

    explicit ControllerMachine(Controller &ctrl,
                               const OutageSchedule &s = kPerCycle)
        : ctrl_(ctrl), cycle_(ctrl.energyModel().cycleTime()),
          period_(std::max(1u, s.checkpointPeriod)), schedule_(s),
          windowStart_(ctrl.pc())
    {
    }

    const EnergyModel &energy() const { return ctrl_.energyModel(); }
    bool done() const { return ctrl_.halted(); }
    std::uint64_t pending() const { return 1; }

    Joules
    unitCost() const
    {
        const Instruction inst = ctrl_.peekInstruction();
        return energy()
            .instructionCost(inst.op, ctrl_.touchedColumns(inst))
            .total();
    }

    Work
    commit(std::uint64_t)
    {
        const std::size_t pc = ctrl_.pc();
        const StepResult r = ctrl_.step();
        if (!r.halted && period_ > 1 && ++sinceCheckpoint_ >= period_) {
            windowStart_ = ctrl_.pc();
            sinceCheckpoint_ = 0;
        }
        return {r.energy - r.backupEnergy, r.backupEnergy, cycle_,
                r.halted ? 0u : 1u, r.energy, pc,
                static_cast<int>(r.inst.op)};
    }

    /** Cut the step, then run the restart protocol (unless the
     *  schedule deliberately skips the journal replay). */
    Outage
    interrupt(const Cut &cut)
    {
        Outage o;
        o.wasted = ctrl_.stepInterrupted(cut.step, cut.fraction);
        ctrl_.powerLoss();
        if (schedule_.restoreJournal) {
            const RestartResult rr = ctrl_.restart();
            o.restore = {1, rr.restoreEnergy,
                         cycle_ * static_cast<double>(rr.restoreCycles)};
        }
        if (period_ > 1) {
            const auto &cps = schedule_.checkpoints;
            if (!cps.empty()) {
                // Largest checkpoint PC <= current PC.
                const auto it = std::upper_bound(
                    cps.begin(), cps.end(),
                    static_cast<std::uint32_t>(ctrl_.pc()));
                if (it != cps.begin()) {
                    ctrl_.rollbackPc(*(it - 1));
                }
            } else {
                ctrl_.rollbackPc(windowStart_);
            }
            sinceCheckpoint_ = 0;
        }
        return o;
    }

  private:
    Controller &ctrl_;
    Seconds cycle_;
    unsigned period_;
    const OutageSchedule &schedule_;
    std::size_t windowStart_;
    std::uint64_t sinceCheckpoint_ = 0;
};

/**
 * Scripted power: cuts exactly where an OutageSchedule says and is
 * back as soon as the restart protocol can run (charging time is not
 * modelled).
 */
class SchedulePower
{
  public:
    explicit SchedulePower(Seconds cycle,
                           const OutageSchedule &s = kPerCycle,
                           std::uint64_t maxAttempts = 0)
        : cycle_(cycle), points_(s.points), maxAttempts_(maxAttempts)
    {
    }

    /** No non-termination check: maxAttempts bounds a schedule. */
    static constexpr unsigned limit =
        std::numeric_limits<unsigned>::max();
    Seconds now = 0.0;

    void begin(RunStats &, SimProbe *) {}

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
    cut(const Machine &)
    {
        const OutagePoint &p = points_[next_++];
        const double f = std::clamp(p.fraction, 0.0, 1.0);
        ++attempt_;
        const Cut c{now, cycle_ * f, p.step, f, 0.0, 0.0};
        now += c.time;
        return c;
    }

    void
    recharge(RunStats &, [[maybe_unused]] SimProbe *probe)
    {
        MOUSE_OBS_HOOK(probe, probe->rechargeDone(now));
    }

    void spend(Seconds dt, Joules) { now += dt; }
    void sample(SimProbe &) const {}

  private:
    Seconds cycle_;
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
MicroStep
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

/**
 * Capacitor + source power: the buffer capacitor inside its voltage
 * window, charged by the source through the converter.  Power is cut
 * when the buffer cannot cover the next instruction.
 */
struct HarvestEnv
{
    HarvestEnv(const EnergyModel &energy, const HarvestConfig &cfg)
        : cap(effectiveCapacitance(cfg,
                                   energy.config().bufferCapacitance),
              cfg.startEmpty ? 0.0 : energy.config().capVoltageLow),
          converter(effectiveConverterEfficiency(cfg)),
          sourceOwner(cfg.source.make()),
          source(*sourceOwner),
          vLow(energy.config().capVoltageLow),
          vHigh(energy.config().capVoltageHigh),
          cycle(energy.cycleTime()), rng(cfg.seed),
          limit(cfg.nonTerminationLimit)
    {
    }

    /** Charge to the restart voltage, logging the off time.  The
     *  converter derates the load side, so the source fills the
     *  buffer at full strength. */
    void
    recharge(RunStats &stats, [[maybe_unused]] SimProbe *probe)
    {
        const Seconds dt =
            source.timeToHarvest(cap.energyTo(vHigh), now, 1.0);
        if (dt > 1e7) {
            mouse_fatal("source never refills the buffer "
                        "(charged for >115 days of sim time)");
        }
        MOUSE_OBS_HOOK(probe, probe->sampleRecharge(now, dt,
                                                    cap.voltage(), vHigh,
                                                    cap.capacitance(),
                                                    source));
        stats.chargingTime += dt;
        now += dt;
        cap.setVoltage(vHigh);
        MOUSE_OBS_HOOK(probe, probe->rechargeDone(now));
    }

    Joules
    available() const
    {
        return cap.energyAbove(vLow);
    }

    /** Draw @p load joules of *load-side* energy from the buffer. */
    void
    drawLoad(Joules load)
    {
        cap.draw(converter.bufferEnergyFor(load));
    }

    /** The run starts by charging the buffer to the restart level. */
    void begin(RunStats &stats, SimProbe *p) { recharge(stats, p); }

    bool exhausted() const { return false; }

    /**
     * Instructions of the pending chunk the buffer covers.  A trace
     * chunk cannot watch the voltage between its instructions: the
     * source keeps trickling in at its chunk-start power, and the net
     * drain per instruction decides how many fit (with a source
     * stronger than the draw, execution is continuous).  A
     * controller step only needs the buffer to cover it.
     */
    template <class Machine>
    std::uint64_t
    fit(const Machine &m)
    {
        // A trace chunk's cost repeats burst after burst; convert it
        // only when it changes (the division sits on the hot path).
        if (const Joules cost = m.unitCost(); cost != needFor) {
            needFor = cost;
            need = converter.bufferEnergyFor(cost);
        }
        if constexpr (Machine::kStepwise) {
            return available() >= need ? 1 : 0;
        } else {
            const Joules credit = source.power(now) * cycle;
            net = need > credit ? need - credit : 0.0;
            return net > 0.0
                       ? std::min(m.pending(),
                                  static_cast<std::uint64_t>(
                                      available() / net))
                       : m.pending();
        }
    }

    /** Drain a committed chunk at its net rate; a controller step
     *  draws what it actually used, then gets the cycle's source
     *  credit, capped at the window top. */
    template <class Machine>
    void
    settle(const Machine &, std::uint64_t n, const Work &w)
    {
        if constexpr (Machine::kStepwise) {
            drawLoad(w.load);
            cap.charge(source.power(now), cycle);
            if (cap.voltage() > vHigh) {
                cap.setVoltage(vHigh);
            }
        } else {
            cap.draw(net * static_cast<double>(n));
        }
        now += w.time;
    }

    /** The attempt dies where the energy runs out (for a controller,
     *  at the matching micro-step) and drains the buffer to the
     *  shutdown voltage. */
    template <class Machine>
    Cut
    cut(const Machine &)
    {
        const Joules avail = available();
        const double fraction = need > 0.0 ? avail / need : 0.0;
        Cut c{now, cycle * std::min(1.0, fraction), MicroStep::kExecute,
              0.0, avail * converter.efficiency(), need};
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
        drawLoad(load);
    }

    void
    sample(SimProbe &probe) const
    {
        probe.maybeSample(now, cap.voltage(), source.power(now));
    }

    Capacitor cap;
    SwitchedCapConverter converter;
    std::unique_ptr<PowerSource> sourceOwner;
    const PowerSource &source;
    Volts vLow;
    Volts vHigh;
    Seconds cycle;
    /** Jitters the micro-step a cut lands on. */
    Rng rng;
    /** Consecutive failed attempts before non-termination. */
    unsigned limit;
    /** Absolute simulation time (for time-varying sources). */
    Seconds now = 0.0;
    /** Buffer-side cost of the pending instruction. */
    Joules need = 0.0;
    /** Net per-instruction drain of the pending trace chunk. */
    Joules net = 0.0;
    /** Load-side cost `need` was converted from. */
    Joules needFor = -1.0;
};

/**
 * The burst loop behind every runner: commit what the power covers;
 * on a cut, account the dead attempt, recharge, restart and replay.
 * It owns all RunStats accounting and every probe call.
 */
template <class Machine, class Power>
RunStats
runBursts(Machine &&m, Power &&power, obs::Telemetry *telem)
{
    RunStats stats;
    SimProbe probe(telem);
    SimProbe *const hooks = telem ? &probe : nullptr;
    power.begin(stats, hooks);
    unsigned failures = 0;
    while (!m.done() && !power.exhausted()) {
        if (const std::uint64_t n = power.fit(m); n > 0) {
            failures = 0;
            [[maybe_unused]] const Seconds t0 = power.now;
            const Work w = m.commit(n);
            power.settle(m, n, w);
            stats.computeEnergy += w.exec;
            stats.backupEnergy += w.backup;
            stats.activeTime += w.time;
            stats.instructionsCommitted += w.count;
            if (w.count > 0) {
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
            continue;
        }
        // Outage mid-instruction: the attempt is Dead work.
        const Cut cut = power.cut(m);
        const Outage o = m.interrupt(cut);
        stats.deadEnergy += o.wasted;
        stats.deadTime += cut.time;
        ++stats.instructionsDead;
        ++stats.outages;
        MOUSE_OBS_HOOK(telem,
                       probe.outageBegin(cut.at, cut.time, o.wasted));
        power.recharge(stats, hooks);
        if (o.restore.count > 0) {
            stats.restoreEnergy += o.restore.energy;
            stats.restoreTime += o.restore.time;
            MOUSE_OBS_HOOK(telem, probe.restore(power.now, o.restore.time,
                                                o.restore.energy));
            power.spend(o.restore.time, o.restore.energy);
        }
        if (o.replay.count > 0) {
            stats.deadEnergy += o.replay.energy;
            stats.deadTime += o.replay.time;
            ++stats.instructionsDead;
            MOUSE_OBS_HOOK(telem, probe.deadReplay(o.replay.count,
                                                   power.now,
                                                   o.replay.time));
            power.spend(o.replay.time, o.replay.energy);
        }
        if (++failures > power.limit) {
            mouse_fatal("non-termination: a full burst cannot cover "
                        "one %.3g J instruction plus restore; reduce "
                        "parallelism or enlarge the capacitor",
                        cut.need);
        }
    }
    stats.idleEnergy += m.energy().idlePower() * stats.activeTime;
    MOUSE_OBS_HOOK(telem, probe.finalize(stats));
    return stats;
}

} // namespace

Farads
effectiveCapacitance(const HarvestConfig &harvest, Farads techBuffer)
{
    if (harvest.capacitanceOverride > 0.0) {
        return harvest.capacitanceOverride;
    }
    if (!harvest.platform.empty()) {
        const Platform *p = platformByName(harvest.platform);
        if (p == nullptr) {
            mouse_fatal("unknown platform '%s'",
                        harvest.platform.c_str());
        }
        return p->capacitance;
    }
    return techBuffer;
}

double
effectiveConverterEfficiency(const HarvestConfig &harvest)
{
    if (harvest.platform.empty()) {
        return harvest.converterEfficiency;
    }
    const Platform *p = platformByName(harvest.platform);
    if (p == nullptr) {
        mouse_fatal("unknown platform '%s'",
                    harvest.platform.c_str());
    }
    return harvest.converterEfficiency * p->converterEfficiency;
}

RunStats
runContinuousFunctional(Controller &ctrl, obs::Telemetry *telem)
{
    return runBursts(ControllerMachine(ctrl),
                     ContinuousPower(ctrl.energyModel().cycleTime()),
                     telem);
}

RunStats
runContinuousTrace(const Trace &trace, const EnergyModel &energy,
                   obs::Telemetry *telem)
{
    return runBursts(TraceMachine(trace, energy, 1),
                     ContinuousPower(energy.cycleTime()), telem);
}

RunStats
runHarvestedTrace(const Trace &trace, const EnergyModel &energy,
                  const HarvestConfig &harvest,
                  obs::Telemetry *telem)
{
    return runBursts(
        TraceMachine(trace, energy, harvest.checkpointPeriod),
        HarvestEnv(energy, harvest), telem);
}

RunStats
runScheduledFunctional(Controller &ctrl,
                       const OutageSchedule &schedule,
                       std::uint64_t maxAttempts,
                       obs::Telemetry *telem)
{
    return runBursts(ControllerMachine(ctrl, schedule),
                     SchedulePower(ctrl.energyModel().cycleTime(),
                                   schedule, maxAttempts),
                     telem);
}

RunStats
runHarvestedFunctional(Controller &ctrl, const HarvestConfig &harvest,
                       obs::Telemetry *telem)
{
    return runBursts(ControllerMachine(ctrl),
                     HarvestEnv(ctrl.energyModel(), harvest), telem);
}

} // namespace mouse
