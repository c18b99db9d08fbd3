#include "simulator.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "sim/burst_loop.hh"

namespace mouse
{

namespace
{

using sim::Cut;
using sim::Outage;
using sim::Work;

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

    bool done() const { return block_ == blocks_.size(); }
    std::uint64_t pending() const { return remaining_; }
    unsigned period() const { return period_; }
    Joules unitCost() const { return cost_.total(); }
    Seconds unitTime() const { return cycle_; }
    Joules reserve() const { return 0.0; }
    Watts idlePower() const { return energy_.idlePower(); }

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

    /** The state a burst starts from, besides the buffer: the
     *  block decides the chunk's cost, and uncheckpointed_ the
     *  replay an outage costs. */
    std::pair<std::size_t, std::uint64_t>
    burstKey() const
    {
        return {block_, uncheckpointed_};
    }

    /** Move @p u units through the current block without running
     *  them; the block keeps at least one. */
    void
    skip(std::uint64_t u)
    {
        mouse_assert(u < remaining_, "skip past the block's end");
        remaining_ -= u;
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
                       {},
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
                               const OutageSchedule &s = sim::kPerCycle)
        : ctrl_(ctrl), cycle_(ctrl.energyModel().cycleTime()),
          period_(std::max(1u, s.checkpointPeriod)), schedule_(s),
          windowStart_(ctrl.pc())
    {
    }

    const EnergyModel &energy() const { return ctrl_.energyModel(); }
    bool done() const { return ctrl_.halted(); }
    std::uint64_t pending() const { return 1; }
    Seconds unitTime() const { return cycle_; }
    Joules reserve() const { return 0.0; }
    Watts idlePower() const { return energy().idlePower(); }

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

/** MOUSE's harvesting environment: the technology's buffer and
 *  voltage window. */
sim::HarvestEnv
mouseHarvestEnv(const EnergyModel &energy, const HarvestConfig &harvest)
{
    const DeviceConfig &cfg = energy.config();
    return sim::HarvestEnv(harvest, cfg.bufferCapacitance,
                           cfg.capVoltageLow, cfg.capVoltageHigh);
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
frontEndEfficiency(const HarvestConfig &harvest)
{
    if (harvest.platform.empty()) {
        return 1.0;
    }
    const Platform *p = platformByName(harvest.platform);
    if (p == nullptr) {
        mouse_fatal("unknown platform '%s'",
                    harvest.platform.c_str());
    }
    return p->frontEndEfficiency;
}

RunStats
runContinuousFunctional(Controller &ctrl, obs::Telemetry *telem)
{
    return sim::runBursts(ControllerMachine(ctrl), sim::ContinuousPower(),
                          telem);
}

RunStats
runContinuousTrace(const Trace &trace, const EnergyModel &energy,
                   obs::Telemetry *telem)
{
    return sim::runBursts(TraceMachine(trace, energy, 1),
                          sim::ContinuousPower(), telem);
}

RunStats
runHarvestedTrace(const Trace &trace, const EnergyModel &energy,
                  const HarvestConfig &harvest,
                  obs::Telemetry *telem)
{
    return sim::runBursts(
        TraceMachine(trace, energy, harvest.checkpointPeriod),
        mouseHarvestEnv(energy, harvest), telem);
}

RunStats
runScheduledFunctional(Controller &ctrl,
                       const OutageSchedule &schedule,
                       std::uint64_t maxAttempts,
                       obs::Telemetry *telem)
{
    return sim::runBursts(ControllerMachine(ctrl, schedule),
                          sim::SchedulePower(schedule, maxAttempts),
                          telem);
}

RunStats
runHarvestedFunctional(Controller &ctrl, const HarvestConfig &harvest,
                       obs::Telemetry *telem)
{
    return sim::runBursts(ControllerMachine(ctrl),
                          mouseHarvestEnv(ctrl.energyModel(), harvest),
                          telem);
}

} // namespace mouse

