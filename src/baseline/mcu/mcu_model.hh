/**
 * @file
 * The instruction-trace MCU execution model (docs/BASELINES.md).
 *
 * Replays an McuProgram under a chosen EhScheme, either on wall
 * power or against the *same* harvesting environment description —
 * SourceSpec, platform presets, capacitance override, converter
 * efficiency — that drives the MOUSE simulators (HarvestConfig,
 * sim/simulator.hh).  The MCU is the third machine of the simulators'
 * burst loop (sim/burst_loop.hh): it executes ops while the buffer
 * above the scheme's just-in-time backup reserve lasts, backs up at
 * the cut, recharges, restores and resumes where the scheme says,
 * re-executing any rolled-back tail as Dead work — the same RunStats
 * taxonomy and telemetry as the MOUSE runners.
 *
 * Everything is closed-form per trace block and per burst, so runs
 * are deterministic pure functions of their inputs (no host clock,
 * no RNG): byte-identical across thread counts by construction.
 */

#ifndef MOUSE_BASELINE_MCU_MCU_MODEL_HH
#define MOUSE_BASELINE_MCU_MCU_MODEL_HH

#include "baseline/mcu/eh_scheme.hh"
#include "baseline/mcu/op_stream.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace mouse::mcu
{

/** Wall-power run: every op commits once; per-op scheme overhead and
 *  region checkpoints are still paid (they do not know the power is
 *  clean).  Optional telemetry as for the MOUSE runners. */
RunStats mcuRunContinuous(const McuProgram &prog,
                          const EhScheme &scheme,
                          obs::Telemetry *telem = nullptr);

/**
 * Harvested run under @p harvest.  The platform preset (or
 * capacitanceOverride) sizes the buffer exactly as for MOUSE;
 * without either, the datasheet's default 4.7 uF buffer is used.  The
 * voltage window runs from the brown-out threshold up to the
 * platform's rated voltage (datasheet default 3.6 V).  Fatal
 * (non-termination) at the burst loop's one check when the buffer
 * cannot cover one op bundle plus the scheme's restore and backup
 * reserve.
 */
RunStats mcuRunHarvested(const McuProgram &prog,
                         const EhScheme &scheme,
                         const HarvestConfig &harvest,
                         obs::Telemetry *telem = nullptr);

} // namespace mouse::mcu

#endif // MOUSE_BASELINE_MCU_MCU_MODEL_HH
