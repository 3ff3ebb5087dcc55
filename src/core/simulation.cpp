#include "simulation.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/fixed_power.hpp"
#include "core/tpr.hpp"
#include "cpu/thermal.hpp"
#include "obs/auditor.hpp"
#include "obs/profiler.hpp"
#include "obs/stats_registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "power/ats.hpp"
#include "power/battery.hpp"
#include "pv/mpp.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace solarcore::core {

namespace {

/**
 * One step of die temperature. With cfg.rcThermal, the per-core RC
 * loop: integrate each die's temperature, feed it back into the
 * leakage model, and throttle any core past the limit. Otherwise the
 * simple proxy: dies run ~30 K above ambient under load. Returns the
 * number of forced notch-downs.
 */
int
stepThermal(cpu::MultiCoreChip &chip,
            std::vector<cpu::ThermalModel> &thermal, double ambient_c,
            const SimConfig &cfg)
{
    int throttles = 0;
    for (int i = 0; i < chip.numCores(); ++i) {
        auto &core = chip.core(i);
        if (!cfg.rcThermal) {
            core.setDieTempC(ambient_c + 30.0);
            continue;
        }
        const double t = thermal[static_cast<std::size_t>(i)].step(
            core.power().totalW(), ambient_c, cfg.dtSeconds);
        core.setDieTempC(t);
        if (t > cfg.maxDieTempC && !core.gated() &&
            core.level() > chip.dvfs().minLevel()) {
            core.setLevel(core.level() - 1);
            ++throttles;
            if (cfg.trace) {
                obs::TraceEvent e;
                e.kind = obs::EventKind::ThermalThrottle;
                e.core = static_cast<std::int16_t>(i);
                e.v0 = t;
                cfg.trace->emit(e);
            }
        }
    }
    return throttles;
}

/**
 * Fold one simulated day's counters into the caller's registry. The
 * MPP-cache numbers are deltas against the counts at day start so a
 * shared cross-day cache is not double-counted; the hit rate is a
 * formula over the accumulated operands, so it stays correct when
 * per-worker registries are merged. A battery day counts under
 * sim.batteryDays and folds only its energy and instructions: its
 * chip energy is what it drew from storage and its instructions are
 * the chip's day total.
 */
void
foldDayStats(obs::StatsRegistry &reg, bool battery, const DayResult &day,
             const cpu::MultiCoreChip &chip,
             const pv::MppCache::Stats &cache_now,
             const pv::MppCache::Stats &cache_start)
{
    reg.scalar("sim.mppEnergyWh", "theoretical MPP energy [Wh]") +=
        day.mppEnergyWh;
    reg.scalar("sim.chipEnergyWh", "energy the chip consumed [Wh]") +=
        battery ? day.solarEnergyWh : day.chipEnergyWh;
    reg.scalar("sim.totalInstructions", "instructions retired in total") +=
        battery ? chip.totalInstructions() : day.totalInstructions;
    reg.scalar("pv.mppCache.hits", "MPP memo hits") +=
        static_cast<double>(cache_now.hits - cache_start.hits);
    reg.scalar("pv.mppCache.misses", "MPP memo misses (full solves)") +=
        static_cast<double>(cache_now.misses - cache_start.misses);
    reg.formula("pv.mppCache.hitRate",
                dayFormulaByName("pv.mppCache.hitRate"),
                "hit fraction of MPP memo lookups");
    if (battery) {
        ++reg.scalar("sim.batteryDays",
                     "battery-baseline days folded into this registry");
        return;
    }
    ++reg.scalar("sim.days", "simulated days folded into this registry");
    reg.scalar("sim.solarEnergyWh", "energy drawn from the panel [Wh]") +=
        day.solarEnergyWh;
    reg.scalar("sim.gridEnergyWh", "energy drawn from the utility [Wh]") +=
        day.gridEnergyWh;
    reg.scalar("sim.solarInstructions",
               "instructions retired on solar power") +=
        day.solarInstructions;
    reg.scalar("sim.thermalThrottles",
               "forced notch-downs from overheating") +=
        day.thermalThrottles;
    reg.scalar("ats.transfers", "automatic transfer switchovers") +=
        day.transferCount;
    reg.scalar("controller.retracks",
               "tracking events (all trigger causes)") += day.retracks;
    reg.scalar("controller.steps",
               "DVFS notches moved by the controller") +=
        static_cast<double>(day.controllerSteps);
    reg.formula("sim.solarUtilization",
                dayFormulaByName("sim.solarUtilization"),
                "solar energy / MPP energy over all folded days");

    const auto cores = static_cast<std::size_t>(chip.numCores());
    auto &dvfs = reg.vector("chip.core.dvfsTransitions", cores,
                            "per-core DVFS level changes");
    auto &gates = reg.vector("chip.core.gateTransitions", cores,
                             "per-core PCPG gate/ungate transitions");
    dvfs.ensureLanes(cores);
    gates.ensureLanes(cores);
    for (std::size_t i = 0; i < cores; ++i) {
        const auto &core = chip.core(static_cast<int>(i));
        dvfs.lane(i) += static_cast<double>(core.dvfsTransitions());
        gates.lane(i) += static_cast<double>(core.gateTransitions());
    }
    reg.scalar("chip.dvfsTransitions", "DVFS level changes, all cores") +=
        static_cast<double>(chip.totalDvfsTransitions());
    reg.scalar("chip.gateTransitions", "PCPG transitions, all cores") +=
        static_cast<double>(chip.totalGateTransitions());
}

/**
 * Per-step waveform sampling. Every supply registers the identical
 * channel superset (channels a supply never sets stay NaN / empty CSV
 * cells), which is what lets a campaign concatenate per-unit
 * recorders into one columnar file.
 */
class DayTelemetry
{
  public:
    DayTelemetry(obs::TelemetryRecorder *rec,
                 const cpu::MultiCoreChip &chip)
        : rec_(rec)
    {
        if (!rec_)
            return;
        panelP_ = rec_->channel("panel.power_w", "W");
        panelV_ = rec_->channel("panel.voltage_v", "V");
        panelI_ = rec_->channel("panel.current_a", "A");
        mppP_ = rec_->channel("mpp.power_w", "W");
        convK_ = rec_->channel("converter.ratio");
        railV_ = rec_->channel("rail.voltage_v", "V");
        chipP_ = rec_->channel("chip.power_w", "W");
        budgetP_ = rec_->channel("budget.power_w", "W");
        onSolar_ = rec_->channel("on_solar", "bool");
        soc_ = rec_->channel("battery.soc", "frac");
        for (int i = 0; i < chip.numCores(); ++i) {
            const std::string p = "core" + std::to_string(i);
            cores_.push_back({rec_->channel(p + ".freq_ghz", "GHz"),
                              rec_->channel(p + ".voltage_v", "V"),
                              rec_->channel(p + ".power_w", "W"),
                              rec_->channel(p + ".ipc"),
                              rec_->channel(p + ".tpr", "ips/W")});
        }
    }

    /**
     * Sample one step. @p net may be null (no solved electrical state
     * this step); pass NaN for @p mpp_w / @p converter_k /
     * @p battery_soc when the supply has no panel coupling / converter
     * / battery.
     */
    void
    sample(double minute, const cpu::MultiCoreChip &chip, double mpp_w,
           double budget_w, bool on_solar,
           const power::NetworkState *net, double converter_k,
           double battery_soc)
    {
        if (!rec_)
            return;
        SC_PROFILE_SCOPE("telemetry");
        rec_->beginStep(minute);
        if (!std::isnan(mpp_w))
            rec_->set(mppP_, mpp_w);
        rec_->set(budgetP_, budget_w);
        rec_->set(chipP_, chip.totalPower());
        rec_->set(onSolar_, on_solar ? 1.0 : 0.0);
        if (net && net->valid) {
            rec_->set(panelP_, net->panelPower());
            rec_->set(panelV_, net->panel.voltage);
            rec_->set(panelI_, net->panel.current);
            rec_->set(railV_, net->load.voltage);
        }
        if (!std::isnan(converter_k))
            rec_->set(convK_, converter_k);
        if (!std::isnan(battery_soc))
            rec_->set(soc_, battery_soc);
        for (int i = 0; i < chip.numCores(); ++i) {
            const auto &core = chip.core(i);
            const auto &ch = cores_[static_cast<std::size_t>(i)];
            rec_->set(ch.power, core.power().totalW());
            if (!core.gated()) {
                rec_->set(ch.freq,
                          chip.dvfs().frequency(core.level()) / 1e9);
                rec_->set(ch.volt, chip.dvfs().voltage(core.level()));
                rec_->set(ch.ipc, core.perf().ipc);
            }
            const auto up = upStep(chip, i);
            if (up.valid)
                rec_->set(ch.tpr, up.tpr());
        }
        rec_->endStep();
    }

  private:
    struct CoreChannels
    {
        obs::TelemetryRecorder::ChannelId freq, volt, power, ipc, tpr;
    };

    obs::TelemetryRecorder *rec_;
    obs::TelemetryRecorder::ChannelId panelP_ = 0, panelV_ = 0,
        panelI_ = 0, mppP_ = 0, convK_ = 0, railV_ = 0, chipP_ = 0,
        budgetP_ = 0, onSolar_ = 0, soc_ = 0;
    std::vector<CoreChannels> cores_;
};

/**
 * Where a day's power comes from -- the only thing the step loop
 * varies. Everything else (set-up, MPP staging, thermal, ATS, period
 * error, telemetry, chip stepping, audit, timeline, stats) is shared.
 */
enum class Supply {
    Tracked, //!< panel through the MPPT controller (Opt/RR/IC)
    Fixed,   //!< panel at cfg.fixedBudgetW, allocated by the optimizer
    Battery, //!< storage at a stable de-rated budget; no ATS
    Hybrid,  //!< Tracked plus a storage buffer (paper Section 8)
};

/** The panel-coupled supply a plain day runs under @p cfg's policy. */
Supply
panelSupply(const SimConfig &cfg)
{
    return cfg.policy == PolicyKind::FixedPower ? Supply::Fixed
                                                : Supply::Tracked;
}

/** What one day leaves for the public wrappers to report. */
struct DayRun
{
    DayResult day;
    double budgetW = 0.0;      //!< Fixed/Battery: allocation budget
    double instructions = 0.0; //!< chip.totalInstructions() at day end
    double bufferedWh = 0.0;   //!< Hybrid: energy from the buffer
};

/**
 * The one day loop behind simulateDay, simulateHybridDay and
 * simulateBatteryDay. @p supply_arg is the battery de-rating factor or
 * the hybrid buffer capacity [Wh]; the other supplies ignore it.
 */
DayRun
runDay(const pv::PvModule &module, const solar::SolarTrace &trace,
       workload::WorkloadId workload, const SimConfig &cfg, Supply supply,
       double supply_arg)
{
    SC_ASSERT(!trace.empty(), "simulateDay: empty trace");
    SC_ASSERT(cfg.dtSeconds > 0.0, "simulateDay: bad step");
    SC_PROFILE_SCOPE("day");

    DayRun run;
    DayResult &result = run.day;
    const bool tracking =
        supply == Supply::Tracked || supply == Supply::Hybrid;

    cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                            cfg.dvfsLevels == 6
                                ? cpu::DvfsTable::paperDefault()
                                : cpu::DvfsTable::interpolated(
                                      cfg.dvfsLevels),
                            cpu::EnergyParams{},
                            workload::workloadSet(workload), cfg.seed);
    chip.setGatingAllowed(cfg.pcpg);
    pv::PvArray array(module, cfg.modulesSeries, cfg.modulesParallel,
                      pv::kStc);
    // The day's MPP memo: the caller's cross-day cache when it matches
    // this array, else a fresh per-day one (still collapses repeated
    // trace conditions, e.g. the overcast plateaus).
    std::optional<pv::MppCache> local_cache;
    if (!cfg.mppCache ||
        !cfg.mppCache->compatibleWith(module, cfg.modulesSeries,
                                      cfg.modulesParallel))
        local_cache.emplace(module, cfg.modulesSeries, cfg.modulesParallel);
    pv::MppCache &mpp_cache = local_cache ? *local_cache : *cfg.mppCache;

    // Caller-owned workspace when provided, else a per-call local one.
    std::optional<SimWorkspace> local_ws;
    if (!cfg.workspace)
        local_ws.emplace();
    SimWorkspace &ws = cfg.workspace ? *cfg.workspace : *local_ws;
    ws.thermal.assign(static_cast<std::size_t>(chip.numCores()),
                      cpu::ThermalModel());

    obs::TraceBuffer *const tbuf = cfg.trace;
    // The hybrid tracks even under a Fixed-Power config.
    auto adapter = tracking
        ? makeAdapter(cfg.policy == PolicyKind::FixedPower
                          ? PolicyKind::MpptOpt
                          : cfg.policy)
        : nullptr;
    std::optional<SolarCoreController> controller;
    if (tracking) {
        controller.emplace(array, chip, *adapter, cfg.controller);
        controller->setTrace(tbuf);
        controller->setPrepareMemo(&ws.prepareMemo);
    }

    const double threshold =
        supply == Supply::Fixed ? cfg.fixedBudgetW : cfg.thresholdW;
    power::TransferSwitch ats(threshold, 0.02 * threshold);
    // The battery baseline runs the whole window on stored energy: its
    // switch stays on "solar" and only keeps the energy ledger.
    if (supply == Supply::Battery)
        ats.force(power::PowerSource::Solar);
    ats.setTrace(tbuf);
    std::optional<power::Battery> buffer;
    if (supply == Supply::Hybrid) {
        buffer.emplace(supply_arg, 0.95, 0.90);
        buffer->setTrace(tbuf);
    }
    DayTelemetry telem(cfg.telemetry, chip);
    obs::Auditor *const audit = cfg.audit;
    if (audit)
        audit->setTrace(tbuf);
    const char *const budget_check = supply == Supply::Fixed
        ? "solar draw vs fixed budget"
        : supply == Supply::Battery
        ? "battery baseline draw vs stable budget"
        : "solar draw vs MPP budget";
    const pv::MppCache::Stats cache_start = mpp_cache.stats();
    obs::HistogramStat *const err_hist =
        cfg.stats && supply != Supply::Battery
        ? &cfg.stats->histogram("sim.periodErrorPct", 0.0, 50.0, 25,
                                "per-period relative tracking error [%]")
        : nullptr;

    // Tracking-error accounting (Table 7): per tracking period t the
    // relative error is |Pb - Pl| / Pb with Pb the mean budget and Pl
    // the mean consumption over the period; day aggregate is the
    // geometric mean across periods.
    GeometricMean period_errors(1e-4);
    RunningStats period_budget;
    RunningStats period_consumed;
    auto close_period = [&]() {
        if (period_budget.count() > 0 &&
            period_budget.mean() >= cfg.errorFloorW) {
            const double rel_err =
                std::abs(period_budget.mean() - period_consumed.mean()) /
                period_budget.mean();
            period_errors.add(rel_err);
            if (err_hist)
                err_hist->add(rel_err * 100.0);
            if (tbuf) {
                obs::TraceEvent e;
                e.kind = obs::EventKind::PeriodClose;
                e.v0 = period_budget.mean();
                e.v1 = period_consumed.mean();
                tbuf->emit(e);
            }
        }
        period_budget = RunningStats();
        period_consumed = RunningStats();
    };

    const double dt_min = cfg.dtSeconds / 60.0;
    const double dt_h = cfg.dtSeconds / 3600.0;

    // Batched MPP precompute: the per-step environment is a pure
    // function of the trace, so stage every step's environment (the
    // walk is the step loop's own, so indices line up one-to-one) and
    // resolve all MPPs in one batched call on the selected lane kernel.
    // Cache hit/miss counters are sequential-equivalent to per-step
    // lookups. clear()/assign() keep capacity: a reused workspace
    // allocates only when the trace grows.
    ws.stepEnvs.clear();
    for (double minute = trace.startMinute(); minute <= trace.endMinute();
         minute += dt_min) {
        const double g = trace.irradianceAt(minute);
        const double ambient = trace.ambientAt(minute);
        ws.stepEnvs.push_back({g, module.cellTempFromAmbient(ambient, g)});
    }
    ws.stepMpps.assign(ws.stepEnvs.size(), pv::MppResult{});
    mpp_cache.lookupBatch(ws.stepEnvs, ws.stepMpps);
    std::size_t step = 0;

    // The budget of the allocator-driven supplies: Fixed-Power's, or
    // the stable level the battery's de-rated harvest sustains over
    // the whole daytime window.
    run.budgetW = cfg.fixedBudgetW;
    if (supply == Supply::Battery) {
        double mpp_wh = 0.0;
        for (const pv::MppResult &mpp : ws.stepMpps)
            mpp_wh += mpp.power * cfg.dtSeconds / 3600.0;
        const double day_hours =
            (trace.endMinute() - trace.startMinute()) / 60.0;
        run.budgetW = supply_arg * mpp_wh / day_hours;
    }
    // Hybrid buffer: charge-path efficiency of its own MPPT, and the
    // stable discharge level while bridging sub-threshold periods.
    constexpr double charge_path_eff = 0.95;
    const double buffer_budget_w = 2.0 * cfg.thresholdW;

    double last_track_minute = -1e9;
    double last_track_budget = 0.0;
    double last_track_demand = 0.0;
    // The battery is on stored energy from the first step, so its
    // first allocation is periodic rather than a solar entry.
    bool was_on_solar = supply == Supply::Battery;
    double last_timeline_minute = -1e9;

    chip.setAllLevels(chip.dvfs().maxLevel()); // boots on grid, full speed

    for (double minute = trace.startMinute(); minute <= trace.endMinute();
         minute += dt_min) {
        SC_PROFILE_SCOPE("step");
        if (tbuf)
            tbuf->setNow(minute);
        power::NetworkState step_net; //!< solved state, when tracking
        if (tracking)
            array.setEnvironment(ws.stepEnvs[step]);
        {
            SC_PROFILE_SCOPE("thermal");
            result.thermalThrottles +=
                stepThermal(chip, ws.thermal, trace.ambientAt(minute), cfg);
        }
        // The chip's demand entering the step. A new die temperature
        // invalidates every core's power estimate, so this is where the
        // step re-evaluates the power model.
        const double demand_w = [&] {
            SC_PROFILE_SCOPE("chip.power");
            return chip.totalPower();
        }();

        const pv::MppResult mpp = ws.stepMpps[step++];
        result.mppEnergyWh += mpp.power * cfg.dtSeconds / 3600.0;

        if (supply != Supply::Battery)
            ats.update(mpp.power, cfg.dtSeconds);
        bool on_solar = ats.onSolar();
        bool on_buffer = false;
        double budget_w = tracking ? mpp.power : run.budgetW;

        if (on_solar) {
            // Re-track (or re-allocate) on entry, at each period
            // boundary, and on supply or demand drift; a budgeted
            // supply's demand drift is phase drift past its budget.
            const bool due =
                minute - last_track_minute >= cfg.trackingPeriodMinutes;
            const bool supply_moved = tracking && last_track_budget > 0.0 &&
                std::abs(mpp.power - last_track_budget) >
                    cfg.retrackSupplyDelta * last_track_budget;
            const bool demand_moved = tracking
                ? last_track_demand > 0.0 &&
                    std::abs(demand_w - last_track_demand) >
                        cfg.retrackDemandDelta * last_track_demand
                : demand_w > budget_w;
            TrackResult tr;
            bool viable = true;
            if (!was_on_solar || due || supply_moved || demand_moved) {
                if (tbuf) {
                    obs::TraceEvent e;
                    e.kind = obs::EventKind::Retrack;
                    e.arg0 = static_cast<std::uint8_t>(
                        !was_on_solar ? obs::RetrackCause::SolarEntry
                        : due         ? obs::RetrackCause::Periodic
                        : supply_moved ? obs::RetrackCause::SupplyDelta
                                       : obs::RetrackCause::DemandDelta);
                    e.v0 = budget_w;
                    e.v1 = demand_w;
                    tbuf->emit(e);
                }
                if (tracking && (due || !was_on_solar))
                    close_period();
                ++result.retracks;
                last_track_minute = minute;
                if (tracking) {
                    tr = controller->track();
                    viable = tr.solarViable;
                    last_track_budget = mpp.power;
                    last_track_demand = chip.totalPower();
                } else {
                    const auto alloc = optimizeAllocation(chip, budget_w);
                    if (alloc.feasible)
                        applyAllocation(chip, alloc);
                    else if (chip.gatingAllowed())
                        chip.gateAll(); // the chip's lowest draw
                    else
                        viable = false;
                }
            } else if (tracking) {
                tr = controller->enforceRail();
                viable = tr.solarViable;
            }
            step_net = tr.net;
            if (!viable) {
                // Even the minimum sheddable load exceeds what the
                // supply can carry (possible with PCPG disabled): fail
                // over to the utility before the rail collapses. The
                // battery's switch takes no updates, so it stays there.
                ats.force(power::PowerSource::Grid);
                chip.setAllLevels(chip.dvfs().maxLevel());
                on_solar = false;
            }
        } else if (buffer) {
            // Sub-threshold supply still trickles into the buffer,
            // which carries the chip at a stable level while it can.
            buffer->charge(mpp.power * charge_path_eff, dt_h);
            const auto alloc = optimizeAllocation(chip, buffer_budget_w);
            const double want = alloc.feasible ? alloc.powerW : 0.0;
            if (want > 0.0 && buffer->storedWh() * 0.9 >= want * dt_h) {
                applyAllocation(chip, alloc);
                run.bufferedWh += buffer->discharge(chip.totalPower(), dt_h);
                budget_w = buffer_budget_w;
                on_buffer = true;
            } else {
                chip.setAllLevels(chip.dvfs().maxLevel());
            }
        } else if (was_on_solar) {
            // Fell back to the utility: run as a traditional CMP.
            chip.setAllLevels(chip.dvfs().maxLevel());
        }

        const double consumed = chip.totalPower();
        // On solar the panel also supplies the DC/DC conversion loss.
        const double drawn = on_solar && tracking
            ? consumed / cfg.controller.converterEfficiency
            : consumed;
        // The tracking margin charges the buffer through its own MPPT
        // path instead of being left on the panel.
        if (on_solar && buffer)
            buffer->charge(std::max(0.0, mpp.power - drawn) *
                               charge_path_eff,
                           dt_h);
        if (on_solar && supply != Supply::Battery) {
            period_budget.add(mpp.power);
            period_consumed.add(consumed);
        }

        telem.sample(minute, chip,
                     supply == Supply::Battery ? std::nan("") : mpp.power,
                     budget_w, on_solar, step_net.valid ? &step_net : nullptr,
                     tracking ? controller->converter().ratio()
                              : std::nan(""),
                     buffer ? buffer->socFraction() : std::nan(""));

        const double instr_before = chip.totalInstructions();
        {
            SC_PROFILE_SCOPE("chip.step");
            chip.step(cfg.dtSeconds);
        }
        const double instr_delta = chip.totalInstructions() - instr_before;
        result.totalInstructions += instr_delta;
        if (on_solar || on_buffer)
            result.solarInstructions += instr_delta;
        if (!on_buffer)
            ats.accountEnergy(drawn, cfg.dtSeconds);

        if (audit) {
            SC_PROFILE_SCOPE("audit");
            audit->setNow(minute);
            audit->countStep();
            if (on_solar || on_buffer)
                audit->checkBudget(drawn, budget_w,
                                   on_buffer ? "buffer draw vs discharge "
                                               "budget"
                                             : budget_check);
            if (step_net.valid) {
                audit->checkRailVoltage(step_net.load.voltage,
                                        cfg.controller.railNominalV,
                                        "converter rail vs nominal");
                audit->checkPanelPoint(
                    step_net.panel.current,
                    array.currentAt(step_net.panel.voltage),
                    array.currentAt(0.0),
                    "solved panel point vs I-V curve");
            }
            if (buffer)
                audit->checkSocRange(buffer->socFraction(),
                                     "buffer state of charge");
            for (int i = 0; i < chip.numCores(); ++i) {
                const auto &core = chip.core(i);
                audit->checkDvfsLegality(
                    i, core.level(), chip.dvfs().minLevel(),
                    chip.dvfs().maxLevel(), core.gated(),
                    chip.gatingAllowed(), "core DVFS/gating state");
            }
        }

        if (cfg.recordTimeline && minute - last_timeline_minute >= 1.0) {
            result.timeline.push_back(
                {minute, mpp.power, on_solar ? consumed : 0.0, on_solar});
            last_timeline_minute = minute;
        }
        was_on_solar = on_solar;
    }

    close_period();
    if (buffer && audit) {
        audit->setNow(trace.endMinute());
        audit->checkEnergyBalance(buffer->absorbedWh(), buffer->storedWh(),
                                  buffer->deliveredWh(), buffer->lostWh(),
                                  "battery ledger closure");
    }

    // Panel energy: what the switch drew, plus what the buffer absorbed.
    result.solarEnergyWh =
        ats.solarEnergyWh() + (buffer ? buffer->absorbedWh() : 0.0);
    result.chipEnergyWh = chip.totalEnergy() / 3600.0;
    result.gridEnergyWh = ats.gridEnergyWh();
    result.utilization = result.mppEnergyWh > 0.0
        ? result.solarEnergyWh / result.mppEnergyWh
        : 0.0;
    const double total_sec = ats.solarSeconds() + ats.gridSeconds();
    result.effectiveFraction =
        total_sec > 0.0 ? ats.solarSeconds() / total_sec : 0.0;
    result.avgTrackingError = period_errors.value();
    result.transferCount = ats.transferCount();
    result.controllerSteps = tracking ? controller->totalSteps() : 0;
    run.instructions = chip.totalInstructions();

    if (obs::StatsRegistry *const reg = cfg.stats) {
        foldDayStats(*reg, supply == Supply::Battery, result, chip,
                     mpp_cache.stats(), cache_start);
        if (buffer) {
            reg->scalar("battery.deliveredWh",
                        "energy delivered from the buffer [Wh]") +=
                buffer->deliveredWh();
            reg->scalar("battery.lostWh",
                        "buffer conversion/self-discharge losses [Wh]") +=
                buffer->lostWh();
        }
    }
    return run;
}

} // namespace

DayResult
simulateDay(const pv::PvModule &module, const solar::SolarTrace &trace,
            workload::WorkloadId workload, const SimConfig &cfg)
{
    return runDay(module, trace, workload, cfg, panelSupply(cfg), 0.0).day;
}

HybridDayResult
simulateHybridDay(const pv::PvModule &module, const solar::SolarTrace &trace,
                  workload::WorkloadId workload,
                  double battery_capacity_wh, const SimConfig &cfg)
{
    SC_ASSERT(battery_capacity_wh >= 0.0,
              "simulateHybridDay: negative capacity");
    // A capacity of 0 degenerates to plain simulateDay.
    const bool buffered = battery_capacity_wh > 0.0;
    DayRun run = runDay(module, trace, workload, cfg,
                        buffered ? Supply::Hybrid : panelSupply(cfg),
                        battery_capacity_wh);
    HybridDayResult result;
    result.day = std::move(run.day);
    result.batteryCapacityWh = battery_capacity_wh;
    result.bufferedWh = run.bufferedWh;
    // Green energy: the panel draw alone, or with a buffer everything
    // the utility did not supply.
    const DayResult &day = result.day;
    result.greenEnergyWh = buffered ? day.chipEnergyWh - day.gridEnergyWh
                                    : day.solarEnergyWh;
    const double total = buffered ? day.chipEnergyWh
                                  : day.solarEnergyWh + day.gridEnergyWh;
    result.greenFraction = total > 0.0 ? result.greenEnergyWh / total : 0.0;
    return result;
}

BatteryDayResult
simulateBatteryDay(const pv::PvModule &module,
                   const solar::SolarTrace &trace,
                   workload::WorkloadId workload, double derating_factor,
                   const SimConfig &cfg)
{
    SC_ASSERT(derating_factor > 0.0 && derating_factor <= 1.0,
              "simulateBatteryDay: bad de-rating factor");
    const DayRun run = runDay(module, trace, workload, cfg,
                              Supply::Battery, derating_factor);
    BatteryDayResult result;
    result.deratingFactor = derating_factor;
    result.budgetW = run.budgetW;
    result.instructions = run.instructions;
    result.mppEnergyWh = run.day.mppEnergyWh;
    result.consumedWh = run.day.solarEnergyWh;
    result.utilization = result.mppEnergyWh > 0.0
        ? result.consumedWh / result.mppEnergyWh
        : 0.0;
    return result;
}

obs::FormulaStat::Fn
dayFormulaByName(std::string_view name)
{
    if (name == "sim.solarUtilization") {
        return [](const obs::StatsRegistry &r) {
            const double mpp = r.value("sim.mppEnergyWh");
            return mpp > 0.0 ? r.value("sim.solarEnergyWh") / mpp : 0.0;
        };
    }
    if (name == "pv.mppCache.hitRate") {
        return [](const obs::StatsRegistry &r) {
            const double hits = r.value("pv.mppCache.hits");
            const double n = hits + r.value("pv.mppCache.misses");
            return n > 0.0 ? hits / n : 0.0;
        };
    }
    return {};
}

} // namespace solarcore::core
