/**
 * @file
 * Declarative sweep grids.
 *
 * Every headline result in the paper is a grid of independent
 * simulations (Figure 9 alone is 3 techs x 6 benchmarks x a power
 * sweep; the ablations add checkpoint periods, gate margins, and
 * Monte-Carlo seeds).  A SweepGrid names those axes declaratively;
 * the cartesian product is enumerated in a canonical mixed-radix
 * order (tech slowest, seed slot fastest) so a point's index — not
 * the thread that happens to run it — identifies it.
 *
 * Per-point RNG seeds are derived with a SplitMix64 step from the
 * grid's root seed and the point index, so results are bit-identical
 * regardless of thread count or schedule.
 */

#ifndef MOUSE_EXP_SWEEP_HH
#define MOUSE_EXP_SWEEP_HH

#include <cstdint>

#include "exp/workloads.hh"
#include "logic/gate_solver.hh"
#include "obs/telemetry.hh"

namespace mouse::exp
{

/** Deterministic per-point seed: SplitMix64(root, index). */
std::uint64_t deriveSeed(std::uint64_t rootSeed, std::uint64_t index);

/** Coordinates of one grid point (decoded from its index). */
struct SweepPoint
{
    std::size_t index = 0;
    TechConfig tech = TechConfig::ModernStt;
    /** Position along the techs axis. */
    std::size_t techSlot = 0;
    /** Index into the grid's benchmarks vector. */
    std::size_t benchmark = 0;
    /** Headline harvester power (constant power, or the mean of a
     *  scenario source); <= 0 means continuous power. */
    Watts power = 0.0;
    /** True when the point came from the grid's sources axis; such
     *  points are always harvested, whatever their mean power. */
    bool scenario = false;
    /** Position along the sources axis (0 for power sweeps). */
    std::size_t sourceSlot = 0;
    /** The environment this point runs under: the sources-axis
     *  entry, or constant(power) for classic power sweeps. */
    SourceSpec source;
    /** Platform preset name; empty = tech defaults. */
    std::string platform;
    /** Baseline selector from the grid's schemes axis ("mouse",
     *  "mcu:<scheme>", "sonic"); empty when the grid has no schemes
     *  axis, which runs MOUSE as always. */
    std::string scheme;
    unsigned checkpointPeriod = 1;
    double margin = kDefaultGateMargin;
    /** Position along the margins axis (margins may repeat a
     *  value). */
    std::size_t marginSlot = 0;
    /** Position along the Monte-Carlo seed axis. */
    std::size_t seedSlot = 0;
    /** Derived outage-schedule seed for this point. */
    std::uint64_t seed = 0;

    bool
    continuous() const
    {
        return !scenario && power <= 0.0;
    }
};

/** Continuous-power marker for SweepGrid::powers. */
constexpr Watts kContinuousPower = 0.0;

/** A cartesian sweep over the experiment axes. */
struct SweepGrid
{
    std::vector<TechConfig> techs{TechConfig::ModernStt};
    std::vector<Benchmark> benchmarks;
    /** Harvester powers; kContinuousPower entries run on wall
     *  power.  Ignored when `sources` is non-empty. */
    std::vector<Watts> powers{kContinuousPower};
    /**
     * Scenario-source axis: when non-empty it *replaces* the powers
     * axis in the mixed-radix decode (same slot, so grids that never
     * set it keep their historical index -> point mapping and
     * derived seeds), and every point is harvested under its
     * SourceSpec.  See docs/HARVESTING.md.
     */
    std::vector<SourceSpec> sources;
    /**
     * Platform axis: capacitor/converter presets by name
     * (harvest/platform.hh), decoded between the power/source slot
     * and the benchmark slot.  Empty (the default) contributes
     * radix 1 — i.e. nothing — keeping old grids bit-identical.
     */
    std::vector<std::string> platforms;
    /**
     * System/scheme axis: baseline selectors by name
     * (baseline/selector.hh — "mouse", "mcu:bec", "mcu:odab",
     * "mcu:clank", "mcu:oracle", "sonic"), decoded between the
     * platform slot and the benchmark slot.  Empty (the default)
     * contributes radix 1 and every point runs MOUSE, keeping old
     * grids bit-identical.  See docs/BASELINES.md.
     */
    std::vector<std::string> schemes;
    std::vector<unsigned> checkpointPeriods{1};
    std::vector<double> margins{kDefaultGateMargin};
    /** Monte-Carlo axis: independent derived seeds per point. */
    std::size_t seedsPerPoint = 1;
    /** Root of the per-point seed derivation. */
    std::uint64_t rootSeed = 1;
    /**
     * Telemetry channels every point records (all off by default).
     * Each point fills its own sinks; the runner folds them — in
     * grid-index order, so bit-identically for any thread count —
     * into the SweepResult aggregates.
     */
    obs::TraceConfig telemetry{};

    /** Number of grid points (product of the axis lengths). */
    std::size_t size() const;

    /** Decode @p index into its coordinates.
     *  @pre index < size() and no axis is empty. */
    SweepPoint at(std::size_t index) const;

    /** Harvesting environment for @p point (harvested points). */
    HarvestConfig harvestFor(const SweepPoint &point) const;
};

} // namespace mouse::exp

#endif // MOUSE_EXP_SWEEP_HH
