/**
 * @file
 * Public facade of the MOUSE library.
 *
 * An Accelerator bundles one device configuration (Modern STT /
 * Projected STT / Projected SHE) with a tile grid, instruction
 * memory, controller, and energy model.  The execution modes the
 * paper evaluates — {functional, trace} x {continuous, harvested},
 * plus scripted-outage fault injection — are selected declaratively
 * by a RunRequest given to execute(), the single entry point.
 *
 * A typical downstream user writes a kernel with KernelBuilder (or
 * maps an SVM/BNN with ml/mapping.hh), loads it, and reads stats and
 * tile contents back.  See examples/quickstart.cpp and
 * docs/EXPERIMENTS_API.md.
 */

#ifndef MOUSE_CORE_ACCELERATOR_HH
#define MOUSE_CORE_ACCELERATOR_HH

#include <memory>
#include <optional>

#include "compile/builder.hh"
#include "controller/controller.hh"
#include "core/run_api.hh"
#include "sim/simulator.hh"

namespace mouse
{

/** Top-level configuration of a MOUSE accelerator instance. */
struct MouseConfig
{
    TechConfig tech = TechConfig::ModernStt;
    ArrayConfig array{};
    PeripheralParams peripheral{};
    /** Gate noise margin (Section V robustness knob). */
    double gateMargin = kDefaultGateMargin;
};

/** One configured MOUSE accelerator. */
class Accelerator
{
  public:
    explicit Accelerator(const MouseConfig &cfg);

    const MouseConfig &config() const { return cfg_; }
    const DeviceConfig &device() const { return lib_->config(); }
    const GateLibrary &gateLibrary() const { return *lib_; }
    const EnergyModel &energyModel() const { return *energy_; }

    TileGrid &grid() { return *grid_; }
    const TileGrid &grid() const { return *grid_; }
    Controller &controller() { return *controller_; }
    const Controller &controller() const { return *controller_; }

    /** Write a program into the instruction tiles and reset the PC
     *  (the pre-deployment step of Section IV-B). */
    void loadProgram(const Program &prog);

    /**
     * Run one simulation described by @p req.
     *
     * Functional fidelity executes the loaded program on the
     * bit-exact machine; Trace fidelity requires req.trace.  The
     * result carries the RunStats plus wall-clock and metadata.
     *
     * Malformed requests (validateRunRequest) are rejected up
     * front: the result carries the RunError and all-zero stats,
     * and nothing is simulated.
     */
    RunResult execute(const RunRequest &req);

  private:
    MouseConfig cfg_;
    /** Retained copy of the last loadProgram() argument: the MCU
     *  baseline replays it as an op stream (Functional fidelity has
     *  no trace to derive one from). */
    std::optional<Program> program_;
    std::unique_ptr<GateLibrary> lib_;
    std::unique_ptr<EnergyModel> energy_;
    std::unique_ptr<TileGrid> grid_;
    std::unique_ptr<InstructionMemory> imem_;
    std::unique_ptr<Controller> controller_;
};

} // namespace mouse

#endif // MOUSE_CORE_ACCELERATOR_HH
