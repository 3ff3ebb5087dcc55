/**
 * @file
 * Day-level differential of the two PV routes the controller can take.
 *
 * A uniform PvArray pins its rail through the batch-kernel fast path
 * (pv::PreparedArray); any other IvSource takes the generic
 * golden-section MPP plus bisecting pin. This test drives one
 * SolarCoreController of each kind through the (G, T) sequence of a
 * fig13 day (AZ, January, MPPT&Opt, HM2) on the same array: the
 * integrated panel energy must agree within the fig13 golden
 * tolerance, and every staged step's batched MPP must match the
 * per-call analytic findMpp(PvArray).
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/scenario.hpp"
#include "core/controller.hpp"
#include "core/simulation.hpp"
#include "pv/bp3180n.hpp"
#include "pv/mpp.hpp"
#include "pv/pv_kernel.hpp"
#include "solar/trace.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::core {
namespace {

/** Forwards to a PvArray while hiding its type, so the controller
 *  cannot recognise it and takes the generic IvSource pin. */
class ForwardingSource : public pv::IvSource
{
  public:
    explicit ForwardingSource(const pv::PvArray &array) : array_(array) {}

    double currentAt(double v) const override { return array_.currentAt(v); }

    double
    openCircuitVoltage() const override
    {
        return array_.openCircuitVoltage();
    }

  private:
    const pv::PvArray &array_;
};

/** One controller with its own chip, stepped like the tracked day. */
struct TrackedRig
{
    TrackedRig(const pv::IvSource &panel, const SimConfig &cfg)
        : chip(cpu::defaultChipConfig(), cpu::DvfsTable::paperDefault(),
               cpu::EnergyParams{},
               workload::workloadSet(workload::WorkloadId::HM2), cfg.seed),
          ctl(panel, chip, adapter, cfg.controller)
    {
        chip.setAllLevels(chip.dvfs().maxLevel()); // boots on grid
    }

    /** One step at @p minute whose supply MPP is @p mpp_w. */
    void
    step(double minute, double mpp_w, const SimConfig &cfg)
    {
        if (mpp_w < cfg.thresholdW) {
            if (onSolar)
                chip.setAllLevels(chip.dvfs().maxLevel());
            onSolar = false;
        } else {
            const bool due =
                minute - lastTrackMinute >= cfg.trackingPeriodMinutes;
            TrackResult tr;
            if (!onSolar || due) {
                tr = ctl.track();
                lastTrackMinute = minute;
            } else {
                tr = ctl.enforceRail();
            }
            onSolar = tr.solarViable;
            if (onSolar) {
                panelWh += tr.net.panel.voltage * tr.net.panel.current *
                    cfg.dtSeconds / 3600.0;
            } else {
                chip.setAllLevels(chip.dvfs().maxLevel());
            }
        }
        chip.step(cfg.dtSeconds);
    }

    cpu::MultiCoreChip chip;
    TprOptAdapter adapter;
    SolarCoreController ctl;
    bool onSolar = false;
    double lastTrackMinute = -1e9;
    double panelWh = 0.0;
};

TEST(PvPathDifferential, Fig13DayPreparedPathMatchesLegacyPin)
{
    campaign::ScenarioGrid grid;
    ASSERT_TRUE(campaign::applyPreset("fig13", grid));
    ASSERT_EQ(grid.sites.front(), solar::SiteId::AZ);
    ASSERT_EQ(grid.months.front(), solar::Month::Jan);

    SimConfig cfg;
    cfg.dtSeconds = grid.dtSeconds;
    cfg.trackingPeriodMinutes = grid.trackingPeriodMinutes;

    const pv::PvModule module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(
        grid.sites.front(), grid.months.front(), grid.seeds.front());

    // Stage the day's environments exactly as the step loop walks them.
    std::vector<double> minutes;
    std::vector<pv::Environment> envs;
    const double dt_min = cfg.dtSeconds / 60.0;
    for (double minute = trace.startMinute(); minute <= trace.endMinute();
         minute += dt_min) {
        const double g = trace.irradianceAt(minute);
        minutes.push_back(minute);
        envs.push_back(
            {g, module.cellTempFromAmbient(trace.ambientAt(minute), g)});
    }
    std::vector<pv::MppResult> mpps(envs.size());
    pv::findMppBatch(module, cfg.modulesSeries, cfg.modulesParallel, envs,
                     mpps);

    pv::PvArray array(module, cfg.modulesSeries, cfg.modulesParallel,
                      pv::kStc);
    const ForwardingSource legacy_panel(array);
    TrackedRig prepared(array, cfg);
    TrackedRig legacy(legacy_panel, cfg);

    double mpp_wh = 0.0;
    for (std::size_t k = 0; k < envs.size(); ++k) {
        array.setEnvironment(envs[k]);
        const pv::MppResult want = pv::findMpp(array);
        for (auto [got, ref] : {std::pair{mpps[k].voltage, want.voltage},
                                std::pair{mpps[k].current, want.current},
                                std::pair{mpps[k].power, want.power}}) {
            EXPECT_LE(std::abs(got - ref),
                      1e-9 * std::max(std::abs(got), std::abs(ref)) +
                          1e-12)
                << "step " << k << " G=" << envs[k].irradiance
                << " T=" << envs[k].cellTempC;
        }
        mpp_wh += mpps[k].power * cfg.dtSeconds / 3600.0;

        prepared.step(minutes[k], mpps[k].power, cfg);
        legacy.step(minutes[k], mpps[k].power, cfg);
    }

    // A day that never reached the panel would compare 0 with 0.
    ASSERT_GT(legacy.panelWh, 0.25 * mpp_wh);
    EXPECT_LE(std::abs(prepared.panelWh - legacy.panelWh),
              0.01 * legacy.panelWh)
        << "prepared " << prepared.panelWh << " Wh vs legacy "
        << legacy.panelWh << " Wh (MPP " << mpp_wh << " Wh)";
}

} // namespace
} // namespace solarcore::core
