#include "mcu_model.hh"

#include <algorithm>

#include "baseline/mcu/datasheet.hh"
#include "sim/burst_loop.hh"

namespace mouse::mcu
{

namespace
{

/** Amortized per-op cost of the scheme's region checkpoints: one
 *  checkpoint per region boundary, spread over the mean region
 *  length.  Zero for schemes without boundary checkpoints. */
McuCost
checkpointPerOp(const McuProgram &prog, const EhScheme &scheme)
{
    McuCost cost;
    if (scheme.checkpointEnergy() <= 0.0 ||
        prog.checkpoints.empty() || prog.totalOps == 0) {
        return cost;
    }
    const double perRegion = static_cast<double>(prog.totalOps) /
                             static_cast<double>(
                                 prog.checkpoints.size());
    cost.energy = scheme.checkpointEnergy() / perRegion;
    cost.seconds = scheme.checkpointSeconds() / perRegion;
    return cost;
}

/** Outage work of @p energy and @p seconds; none when both are 0. */
sim::Overhead
overhead(double energy, double seconds)
{
    return {energy > 0.0 || seconds > 0.0 ? 1u : 0u, energy, seconds};
}

/**
 * MCU machine: walks the priced McuBlocks of an op stream under a
 * backup scheme; a chunk is the rest of the current block, every op
 * paying its bundle cost plus the scheme's per-op overhead.  The
 * scheme's just-in-time backup is kept in reserve and paid at the
 * cut.  After the restore, execution resumes where the scheme says;
 * ops below the high-water mark re-execute as Dead chunks.
 */
class McuMachine
{
  public:
    static constexpr bool kStepwise = false;

    McuMachine(const McuProgram &prog, const EhScheme &scheme)
        : prog_(prog), scheme_(scheme)
    {
        const McuCost cp = checkpointPerOp(prog, scheme);
        opEnergy_ = scheme.perOpEnergy() + cp.energy;
        opTime_ = scheme.perOpSeconds() + cp.seconds;
        seek(0);
    }

    bool done() const { return block_ == prog_.blocks.size(); }
    unsigned period() const { return 1; }
    Joules unitCost() const { return per_.energy + opEnergy_; }
    Seconds unitTime() const { return per_.seconds + opTime_; }
    Joules reserve() const { return scheme_.backupEnergy(); }
    Watts idlePower() const { return 0.0; }

    /** The rest of the block, up to the high-water mark when
     *  replaying, so a chunk is all Dead or all fresh. */
    std::uint64_t
    pending() const
    {
        const std::uint64_t left = prog_.blockStart[block_ + 1] - pos_;
        return pos_ < highWater_ ? std::min(left, highWater_ - pos_)
                                 : left;
    }

    sim::Work
    commit(std::uint64_t n)
    {
        const double nd = static_cast<double>(n);
        sim::Work w;
        w.exec = per_.energy * nd;
        w.backup = opEnergy_ * nd;
        w.time = unitTime() * nd;
        w.count = n;
        w.replay = pos_ < highWater_;
        pos_ += n;
        highWater_ = std::max(highWater_, pos_);
        if (pos_ == prog_.blockStart[block_ + 1]) {
            seek(pos_);
        }
        return w;
    }

    /**
     * The killed op wastes what the buffer gave it above the reserve.
     * The reserve pays the scheme's backup.  A cut without high-water
     * progress since the previous one means the scheme's replay
     * window is longer than a burst: Clank's watchdog forces a
     * checkpoint where execution died, and the next burst resumes
     * there.
     */
    sim::Outage
    interrupt(const sim::Cut &cut)
    {
        double backupE = scheme_.backupEnergy();
        double backupT = scheme_.backupSeconds();
        if (highWater_ == cutHighWater_) {
            watchdog_ = std::max(watchdog_, pos_);
            backupE += scheme_.checkpointEnergy();
            backupT += scheme_.checkpointSeconds();
        }
        cutHighWater_ = highWater_;
        seek(std::max(scheme_.resumeOp(prog_, pos_), watchdog_));
        return {cut.delivered,
                overhead(backupE, backupT),
                overhead(scheme_.restoreEnergy(),
                         scheme_.restoreSeconds()),
                {}};
    }

  private:
    /** Move to op @p op and the block holding it. */
    void
    seek(std::uint64_t op)
    {
        pos_ = op;
        while (block_ > 0 && prog_.blockStart[block_] > pos_) {
            --block_;
        }
        while (!done() && prog_.blockStart[block_ + 1] <= pos_) {
            ++block_;
        }
        if (!done()) {
            per_ = prog_.blocks[block_].per;
        }
    }

    const McuProgram &prog_;
    const EhScheme &scheme_;
    /** Scheme overhead every op pays (per-op backup, amortized
     *  region checkpoints). */
    double opEnergy_ = 0.0;
    double opTime_ = 0.0;
    std::size_t block_ = 0;
    std::uint64_t pos_ = 0;
    McuCost per_{};
    /** Ops committed so far; re-executed ops below it are Dead. */
    std::uint64_t highWater_ = 0;
    /** High-water mark at the previous cut. */
    std::uint64_t cutHighWater_ = 0;
    /** Latest watchdog-forced checkpoint. */
    std::uint64_t watchdog_ = 0;
};

} // namespace

RunStats
mcuRunContinuous(const McuProgram &prog, const EhScheme &scheme,
                 obs::Telemetry *telem)
{
    return sim::runBursts(McuMachine(prog, scheme),
                          sim::ContinuousPower(), telem);
}

RunStats
mcuRunHarvested(const McuProgram &prog, const EhScheme &scheme,
                const HarvestConfig &harvest, obs::Telemetry *telem)
{
    const Platform *plat = harvest.platform.empty()
                               ? nullptr
                               : platformByName(harvest.platform);
    return sim::runBursts(
        McuMachine(prog, scheme),
        sim::HarvestEnv(harvest, kDefaultCapacitance, kVLow,
                        plat != nullptr ? plat->maxCapacitorVoltage
                                        : kDefaultVHigh),
        telem);
}

} // namespace mouse::mcu
