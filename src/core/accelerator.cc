#include "accelerator.hh"

#include <chrono>

#include "baseline/mcu/mcu_model.hh"
#include "baseline/selector.hh"

namespace mouse
{

Accelerator::Accelerator(const MouseConfig &cfg) : cfg_(cfg)
{
    lib_ = std::make_unique<GateLibrary>(makeDeviceConfig(cfg.tech),
                                         cfg.gateMargin);
    energy_ = std::make_unique<EnergyModel>(*lib_, cfg.peripheral);
    grid_ = std::make_unique<TileGrid>(cfg.array, *lib_);
    imem_ = std::make_unique<InstructionMemory>(cfg.array);
    controller_ =
        std::make_unique<Controller>(*grid_, *imem_, *energy_);
}

void
Accelerator::loadProgram(const Program &prog)
{
    program_ = prog;
    imem_->load(prog.encode());
    controller_->reset();
}

RunResult
Accelerator::execute(const RunRequest &req)
{
    const auto t0 = std::chrono::steady_clock::now();
    RunResult res;
    const bool harvested = req.power == PowerMode::Harvested;
    const bool scheduled = req.power == PowerMode::Scheduled;
    res.meta.tech = lib_->config().name();
    res.meta.margin = cfg_.gateMargin;
    res.meta.label = req.label;
    res.error = validateRunRequest(req);
    if (res.error == RunError::kNone &&
        req.fidelity == Fidelity::Functional && !program_) {
        res.error = RunError::kProgramMissing;
    }
    if (res.error != RunError::kNone) {
        // Rejected before simulating: all-zero stats, but metadata
        // filled so the caller can still report provenance.
        return res;
    }
    BaselineSelector sel;
    parseBaselineSelector(req.baseline, &sel);
    obs::Telemetry telem = obs::Telemetry::make(req.telemetry);
    obs::Telemetry *tp = telem.enabled() ? &telem : nullptr;
    if (sel.system == BaselineSystem::kMcu) {
        // The MCU baseline replays the workload as an op stream: the
        // request's trace under Trace fidelity, the retained loaded
        // program otherwise.  Same harvesting environment, same
        // RunStats taxonomy and telemetry — only the machine differs.
        const std::unique_ptr<mcu::EhScheme> scheme =
            mcu::makeEhScheme(sel.scheme);
        const unsigned regionOps = req.harvest.checkpointPeriod > 1
                                       ? req.harvest.checkpointPeriod
                                       : 0;
        const mcu::McuProgram mp =
            program_ && req.fidelity == Fidelity::Functional
                ? mcu::mcuProgramFromProgram(*program_, regionOps)
                : mcu::mcuProgramFromTrace(*req.trace, regionOps);
        res.stats = harvested ? mcu::mcuRunHarvested(mp, *scheme,
                                                     req.harvest, tp)
                              : mcu::mcuRunContinuous(mp, *scheme, tp);
        res.meta.system = baselineSystemName(sel.system);
        res.meta.scheme = sel.scheme;
    } else {
        if (telem.stats && req.fidelity == Fidelity::Functional) {
            controller_->attachStats(telem.stats.get());
            grid_->attachStats(telem.stats.get());
        }
        switch (req.fidelity) {
          case Fidelity::Functional:
            if (scheduled) {
                res.stats = runScheduledFunctional(*controller_,
                                                   *req.schedule,
                                                   req.maxAttempts, tp);
            } else if (harvested) {
                res.stats = runHarvestedFunctional(*controller_,
                                                   req.harvest, tp);
            } else {
                res.stats = runContinuousFunctional(*controller_, tp);
            }
            break;
          case Fidelity::Trace:
            res.stats = harvested
                            ? runHarvestedTrace(*req.trace, *energy_,
                                                req.harvest, tp)
                            : runContinuousTrace(*req.trace, *energy_,
                                                 tp);
            break;
        }
        if (telem.stats && req.fidelity == Fidelity::Functional) {
            // The registry is owned by the result; drop the raw
            // attachments before it can outlive them.
            controller_->attachStats(nullptr);
            grid_->attachStats(nullptr);
        }
    }
    res.statsTree = telem.stats;
    res.traceSink = telem.sink;
    res.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    if (harvested) {
        res.meta.power = req.harvest.source.meanPower();
        res.meta.source = req.harvest.source.name();
        res.meta.platform = req.harvest.platform;
        res.meta.seed = req.harvest.seed;
        res.meta.checkpointPeriod = req.harvest.checkpointPeriod;
    }
    return res;
}

} // namespace mouse
