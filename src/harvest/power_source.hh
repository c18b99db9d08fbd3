/**
 * @file
 * Energy-harvesting power sources.
 *
 * The paper's evaluation models the harvester as a constant power
 * source filling the buffer capacitor, swept from 60 uW (a 1 cm^2
 * body-heat thermal harvester) to 5 mW (the Powercast RF harvester
 * SONIC uses).  A piecewise trace source is provided for
 * fluctuating-environment experiments beyond the paper.
 *
 * Every source is constant or piecewise-constant, so the energy it
 * delivers over an interval and the time it takes to deliver a given
 * energy are closed-form: timeToHarvest() and energyOver() are the
 * one charge-time routine both simulators share (docs/HARVESTING.md,
 * "Integration accuracy").
 */

#ifndef MOUSE_HARVEST_POWER_SOURCE_HH
#define MOUSE_HARVEST_POWER_SOURCE_HH

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace mouse
{

/** Abstract harvester output-power model. */
class PowerSource
{
  public:
    virtual ~PowerSource() = default;

    /** Instantaneous harvested power at absolute time @p t. */
    virtual Watts power(Seconds t) const = 0;

    /**
     * Seconds from absolute time @p t0 until the source, derated by
     * @p eff, has delivered @p e joules.  Infinite when it never
     * does.
     */
    virtual Seconds timeToHarvest(Joules e, Seconds t0,
                                  double eff) const = 0;

    /** Joules the source delivers over [@p t0, @p t0 + @p dt]. */
    virtual Joules energyOver(Seconds t0, Seconds dt) const = 0;
};

/** Constant output (the paper's model). */
class ConstantPowerSource : public PowerSource
{
  public:
    explicit ConstantPowerSource(Watts p) : p_(p)
    {
        mouse_assert(p > 0.0, "non-positive source power");
    }

    Watts power(Seconds) const override { return p_; }

    Seconds
    timeToHarvest(Joules e, Seconds, double eff) const override
    {
        return e / (p_ * eff);
    }

    Joules
    energyOver(Seconds, Seconds dt) const override
    {
        return p_ * dt;
    }

  private:
    Watts p_;
};

/** Piecewise-constant trace, cycling through (duration, power)
 *  segments; models clouds over a solar cell etc.
 *
 *  Construction precomputes prefix sums of the segment start times
 *  and of the segment energies over one period.  power() finds the
 *  segment with upper_bound over the start times.  The charge
 *  queries work in phase space: whole periods go by the per-period
 *  energy, and the remainder is a binary search over the prefix
 *  energies, so every query is O(log n) and exact up to rounding. */
class TracePowerSource : public PowerSource
{
  public:
    struct Segment
    {
        Seconds duration;
        Watts power;

        bool operator==(const Segment &other) const = default;
    };

    explicit TracePowerSource(std::vector<Segment> segments)
        : segments_(std::move(segments))
    {
        mouse_assert(!segments_.empty(), "empty power trace");
        for (const Segment &s : segments_) {
            mouse_assert(s.duration > 0.0, "non-positive segment");
            start_.push_back(period_);
            energy_.push_back(periodEnergy_);
            period_ += s.duration;
            periodEnergy_ += s.duration * s.power;
        }
        splitPeriod();
    }

    Watts
    power(Seconds t) const override
    {
        return segments_[segmentAt(phase(t))].power;
    }

    Seconds
    timeToHarvest(Joules e, Seconds t0, double eff) const override
    {
        if (e <= 0.0) {
            return 0.0;
        }
        if (!(periodEnergy_ > 0.0)) {
            return std::numeric_limits<Seconds>::infinity();
        }
        // Count energy from the start of t0's period, skip whole
        // periods, and leave a remainder in (0, periodEnergy_].
        const Seconds ph = phase(t0);
        const Joules target = energyAt(ph) + e / eff;
        double k = std::max(0.0, std::ceil(target / periodEnergy_) - 1.0);
        Joules rest = target - k * periodEnergy_;
        if (rest <= 0.0) {
            k -= 1.0;
            rest += periodEnergy_;
        }
        rest = std::min(rest, periodEnergy_);
        // The segment the remainder ends in starts below it, so it
        // delivers power: zero-power segments are stepped over.
        const std::size_t i = static_cast<std::size_t>(
            std::lower_bound(energy_.begin() + 1, energy_.end(), rest) -
            energy_.begin() - 1);
        return k * period_ + start_[i] +
               (rest - energy_[i]) / segments_[i].power - ph;
    }

    Joules
    energyOver(Seconds t0, Seconds dt) const override
    {
        const Seconds ph = phase(t0);
        const Seconds end = ph + dt;
        const double k = std::floor(end / period_);
        return k * periodEnergy_ + energyAt(end - k * period_) -
               energyAt(ph);
    }

    /** Repetition period: the sum of the segment durations. */
    Seconds period() const { return period_; }

    /**
     * @p t modulo period(), bit-identical to std::fmod(t, period())
     * but several times cheaper: the quotient's multiple of the
     * period is formed exactly (Dekker's two-product) and subtracted.
     * std::fmod still answers quotients of 2^53 and above, negative
     * and non-finite times.
     */
    Seconds phase(Seconds t) const;

    const std::vector<Segment> &segments() const { return segments_; }

    /**
     * Square wave: @p peak watts for @p duty of each @p period, then
     * zero.  The canonical outage-heavy source for brownout-
     * attribution experiments — every off phase starves the buffer,
     * so runs longer than duty*period are guaranteed outages.
     */
    static TracePowerSource
    square(Seconds period, double duty, Watts peak)
    {
        mouse_assert(period > 0.0, "non-positive square period");
        mouse_assert(duty > 0.0 && duty < 1.0,
                     "square duty must be in (0, 1)");
        return TracePowerSource(
            {{period * duty, peak}, {period * (1.0 - duty), 0.0}});
    }

  private:
    /** Segment holding @p phase in [0, period). */
    std::size_t
    segmentAt(Seconds phase) const
    {
        return static_cast<std::size_t>(
            std::upper_bound(start_.begin() + 1, start_.end(), phase) -
            start_.begin() - 1);
    }

    /** Energy delivered from phase 0 to @p phase. */
    Joules
    energyAt(Seconds phase) const
    {
        const std::size_t i = segmentAt(phase);
        return energy_[i] + (phase - start_[i]) * segments_[i].power;
    }

    /** Veltkamp split of period_ into periodHi_ + periodLo_, 26
     *  significant bits each (for phase()). */
    void splitPeriod();

    /** Exact t - n * period_ for an integral @p n below 2^53. */
    Seconds remainderAfter(Seconds t, double n) const;

    std::vector<Segment> segments_;
    /** Start phase of each segment. */
    std::vector<Seconds> start_;
    /** Energy delivered before each segment starts. */
    std::vector<Joules> energy_;
    Seconds period_ = 0.0;
    Seconds periodHi_ = 0.0;
    Seconds periodLo_ = 0.0;
    Joules periodEnergy_ = 0.0;
};

} // namespace mouse

#endif // MOUSE_HARVEST_POWER_SOURCE_HH
