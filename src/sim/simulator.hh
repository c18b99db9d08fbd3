/**
 * @file
 * The MOUSE execution simulators (paper Section VIII).
 *
 * Every runner is one burst loop over a machine and a power source.
 * The machine says what the next chunk of work costs, commits it,
 * dies partway through an attempt, restarts, and replays or rolls
 * back; the power says how much fits before an outage and where the
 * cut lands, then recharges.  The loop owns the RunStats accounting,
 * idle energy, non-termination detection and telemetry.
 *
 * Three machines run on it; the first two share one energy model:
 *
 *  - Functional (controller): drives the Controller/TileGrid
 *    bit-exact machine, including real micro-step power cuts and the
 *    full restart protocol.  Used to *prove* intermittent correctness
 *    and to run the small end-to-end examples.
 *
 *  - Trace: consumes a compressed instruction trace; each
 *    instruction's cost comes from EnergyModel::instructionCost.
 *    Used for the paper's large benchmarks where simulating 10^10 MTJ
 *    bit updates would be pointless — the instruction stream is data-
 *    independent, so cycle counts are exact and energy differs only
 *    by the data-dependence of gate pulse currents.
 *
 *  - MCU (baseline/mcu/mcu_model.hh): the intermittent-MCU baseline
 *    walks its priced op stream under a backup scheme, keeping the
 *    scheme's just-in-time backup energy in reserve.
 *
 * Three powers: continuous (never cuts), a harvesting environment
 * (capacitor + power source + voltage window), and a scripted
 * OutageSchedule (cuts at named attempts, no charging time).
 */

#ifndef MOUSE_SIM_SIMULATOR_HH
#define MOUSE_SIM_SIMULATOR_HH

#include <functional>

#include "common/rng.hh"
#include "compile/program.hh"
#include "controller/controller.hh"
#include "harvest/capacitor.hh"
#include "harvest/platform.hh"
#include "harvest/power_source.hh"
#include "harvest/source_spec.hh"
#include "obs/telemetry.hh"
#include "sim/outage_schedule.hh"
#include "sim/stats.hh"

namespace mouse
{

/** Harvesting environment description. */
struct HarvestConfig
{
    /**
     * Power environment: constant (the paper's model, default
     * 60 uW) | embedded trace | named corpus trace | square wave.
     * Every recharge is closed-form over the run's absolute time
     * (PowerSource::timeToHarvest).  See docs/HARVESTING.md.
     */
    SourceSpec source;
    /**
     * Named capacitor/converter platform preset
     * (harvest/platform.hh); empty keeps the system's default buffer
     * and a lossless front end.  A platform replaces the default
     * buffer capacitance (capacitanceOverride still wins), and its
     * front-end efficiency derates the source (frontEndEfficiency).
     */
    std::string platform;
    /** Non-zero: replace the configuration's buffer capacitor (the
     *  Capybara-style tuning knob; also lets small demo programs
     *  experience real outages). */
    Farads capacitanceOverride = 0.0;
    /**
     * Checkpoint period in instructions (Section IV-D study knob).
     * MOUSE's design point is 1 (checkpoint every cycle); larger
     * periods divide the backup cost by N but replay up to N
     * instructions per outage as Dead work.  Trace mode only — the
     * functional controller implements the paper's per-cycle
     * protocol.
     */
    unsigned checkpointPeriod = 1;
    /** Seed for the micro-step outage positions (functional mode). */
    std::uint64_t seed = 1;
};

/**
 * Effective buffer capacitance of @p harvest on a technology whose
 * default buffer is @p techBuffer.  Precedence: explicit
 * capacitanceOverride > named platform datasheet > tech default.
 * Fatal on an unknown platform name — API paths validate through
 * RunError (kHarvestPlatformUnknown) before reaching here.
 */
Farads effectiveCapacitance(const HarvestConfig &harvest,
                            Farads techBuffer);

/** Front-end (source -> buffer) efficiency of @p harvest: the named
 *  platform's, 1.0 without one.  Fatal on an unknown platform
 *  name. */
double frontEndEfficiency(const HarvestConfig &harvest);

/**
 * Continuous-power functional run of a full program.
 *
 * All runners take an optional telemetry bundle (see
 * obs/telemetry.hh); when null — the default — no stats, events or
 * waveform samples are recorded and the hot loops pay only a
 * never-taken branch.  Telemetry observes: it never changes the
 * RunStats a run produces.
 */
RunStats runContinuousFunctional(Controller &ctrl,
                                 obs::Telemetry *telem = nullptr);

/** Continuous-power analytical run of a compressed trace. */
RunStats runContinuousTrace(const Trace &trace,
                            const EnergyModel &energy,
                            obs::Telemetry *telem = nullptr);

/**
 * Harvested functional run: executes the program against the
 * capacitor model, cutting power mid-instruction (at a micro-step
 * chosen by where the energy actually ran out) whenever the buffer
 * hits the shutdown voltage, then performing the paper's restart
 * protocol.
 *
 * @throws via mouse_fatal on detected non-termination (the buffer
 *         cannot cover even one instruction plus restore).
 */
RunStats runHarvestedFunctional(Controller &ctrl,
                                const HarvestConfig &harvest,
                                obs::Telemetry *telem = nullptr);

/** Harvested trace run: same environment model over a compressed
 *  trace. */
RunStats runHarvestedTrace(const Trace &trace,
                           const EnergyModel &energy,
                           const HarvestConfig &harvest,
                           obs::Telemetry *telem = nullptr);

/**
 * Scripted-outage functional run: executes the loaded program on the
 * bit-exact machine, cutting power exactly where @p schedule says —
 * attempt index, micro-step, intra-phase fraction — instead of where
 * a capacitor model happens to run dry.  Charging time is not
 * modelled (the schedule abstracts the environment away); energy and
 * work accounting are the burst loop's, as in every runner.
 *
 * With schedule.checkpointPeriod > 1 the restart path additionally
 * rolls the PC back to the last window boundary (SONIC-style
 * checkpointing); with schedule.restoreJournal == false the Activate
 * Columns journal replay is skipped (a deliberately broken restart
 * for checker validation).
 *
 * @param maxAttempts Abort guard: the run is declared non-terminating
 *        after this many attempts (0 = no limit) and `halted()` stays
 *        false.  Fault campaigns size it from the golden run.
 */
RunStats runScheduledFunctional(Controller &ctrl,
                                const OutageSchedule &schedule,
                                std::uint64_t maxAttempts = 0,
                                obs::Telemetry *telem = nullptr);

} // namespace mouse

#endif // MOUSE_SIM_SIMULATOR_HH
