/**
 * @file
 * TracePowerSource::phase(): an exact floating-point remainder.
 *
 * Dekker's two-product is exact only when every product in it is
 * rounded on its own, so this file is built with -ffp-contract=off
 * (src/harvest/CMakeLists.txt): a fused multiply-add would skip one
 * of those roundings.
 */

#include "harvest/power_source.hh"

#include <cstdint>

namespace mouse
{

namespace
{

/** Veltkamp's splitter for binary64: 2^27 + 1. */
constexpr double kSplitter = 134217729.0;

/** @p a == @p hi + @p lo, each with at most 26 significant bits. */
void
split(double a, double &hi, double &lo)
{
    const double c = kSplitter * a;
    hi = c - (c - a);
    lo = a - hi;
}

} // namespace

void
TracePowerSource::splitPeriod()
{
    split(period_, periodHi_, periodLo_);
}

Seconds
TracePowerSource::remainderAfter(Seconds t, double n) const
{
    // n * period_ == hi + lo exactly (Dekker's two-product).
    double nHi = 0.0;
    double nLo = 0.0;
    split(n, nHi, nLo);
    const double hi = n * period_;
    const double lo = ((nHi * periodHi_ - hi) + nHi * periodLo_ +
                       nLo * periodHi_) +
                      nLo * periodLo_;
    // t and hi are within a factor of two of each other, so t - hi
    // is exact (Sterbenz).  A remainder in [0, period_) is
    // representable, so subtracting lo rounds to it exactly; one
    // outside keeps its side of the interval.
    return (t - hi) - lo;
}

Seconds
TracePowerSource::phase(Seconds t) const
{
    const double q = t / period_;
    if (!(t >= 0.0 && q < 0x1p53)) {
        return std::fmod(t, period_);
    }
    double n = static_cast<double>(static_cast<std::int64_t>(q));
    Seconds r = remainderAfter(t, n);
    // The rounded quotient can be one off next to a multiple.
    while (r < 0.0) {
        n -= 1.0;
        r = remainderAfter(t, n);
    }
    while (r >= period_) {
        n += 1.0;
        r = remainderAfter(t, n);
    }
    return r;
}

} // namespace mouse
