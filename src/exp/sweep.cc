#include "sweep.hh"

#include "common/logging.hh"

namespace mouse::exp
{

std::uint64_t
deriveSeed(std::uint64_t rootSeed, std::uint64_t index)
{
    // One SplitMix64 step at stream position `index + 1`; matches the
    // seeding idiom of common/rng.hh so nearby indices diverge
    // immediately.
    std::uint64_t z =
        rootSeed + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::size_t
SweepGrid::size() const
{
    const std::size_t powerAxis =
        sources.empty() ? powers.size() : sources.size();
    const std::size_t platformAxis =
        platforms.empty() ? 1 : platforms.size();
    const std::size_t schemeAxis =
        schemes.empty() ? 1 : schemes.size();
    return techs.size() * benchmarks.size() * powerAxis *
           platformAxis * schemeAxis * checkpointPeriods.size() *
           margins.size() * seedsPerPoint;
}

SweepPoint
SweepGrid::at(std::size_t index) const
{
    if (techs.empty() || benchmarks.empty() ||
        (powers.empty() && sources.empty()) ||
        checkpointPeriods.empty() || margins.empty() ||
        seedsPerPoint == 0) {
        mouse_fatal("sweep grid has an empty axis");
    }
    if (index >= size()) {
        mouse_fatal("sweep point %zu out of range (grid has %zu)",
                    index, size());
    }
    SweepPoint p;
    p.index = index;
    p.seed = deriveSeed(rootSeed, index);

    // Mixed-radix decode, fastest axis last in the declaration
    // order: tech, benchmark, [scheme,] [platform,] power|source,
    // checkpointPeriod, margin, seed.  The sources axis occupies the
    // powers slot and the platform/scheme axes contribute radix 1
    // when empty, so grids predating them decode exactly as they
    // always have (same index -> point mapping, same derived seeds).
    std::size_t rest = index;
    p.seedSlot = rest % seedsPerPoint;
    rest /= seedsPerPoint;
    p.marginSlot = rest % margins.size();
    p.margin = margins[p.marginSlot];
    rest /= margins.size();
    p.checkpointPeriod =
        checkpointPeriods[rest % checkpointPeriods.size()];
    rest /= checkpointPeriods.size();
    if (sources.empty()) {
        p.power = powers[rest % powers.size()];
        p.source = SourceSpec::constant(p.power);
        rest /= powers.size();
    } else {
        p.scenario = true;
        p.sourceSlot = rest % sources.size();
        p.source = sources[p.sourceSlot];
        p.power = p.source.meanPower();
        rest /= sources.size();
    }
    if (!platforms.empty()) {
        p.platform = platforms[rest % platforms.size()];
        rest /= platforms.size();
    }
    if (!schemes.empty()) {
        p.scheme = schemes[rest % schemes.size()];
        rest /= schemes.size();
    }
    p.benchmark = rest % benchmarks.size();
    rest /= benchmarks.size();
    p.techSlot = rest;
    p.tech = techs[rest];
    return p;
}

HarvestConfig
SweepGrid::harvestFor(const SweepPoint &point) const
{
    HarvestConfig harvest;
    harvest.source = point.source;
    harvest.platform = point.platform;
    harvest.checkpointPeriod = point.checkpointPeriod;
    harvest.seed = point.seed;
    return harvest;
}

} // namespace mouse::exp
