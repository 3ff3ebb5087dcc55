/**
 * @file
 * The day loop applies the same set-up and per-step accounting to
 * every supply: the battery baseline honours the RC thermal model and
 * PCPG, and the hybrid buffer reports the tracked day's accounting.
 */

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "obs/auditor.hpp"

namespace solarcore::core {
namespace {

TEST(DaySupply, BatteryDayHonoursRcThermal)
{
    // The RC thermal model changes the dies' leakage, so a battery day
    // under it must differ from the ambient + 30 K proxy, while
    // staying near it and deterministic.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Apr, 1);
    SimConfig proxy;
    proxy.dtSeconds = 60.0;
    SimConfig rc = proxy;
    rc.rcThermal = true;
    const auto a = simulateBatteryDay(module, trace,
                                      workload::WorkloadId::HM2, 0.92,
                                      proxy);
    const auto b = simulateBatteryDay(module, trace,
                                      workload::WorkloadId::HM2, 0.92, rc);
    EXPECT_DOUBLE_EQ(b.budgetW, a.budgetW);
    EXPECT_NE(b.instructions, a.instructions);
    EXPECT_NEAR(b.instructions / a.instructions, 1.0, 0.05);

    const auto b2 = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2, 0.92, rc);
    EXPECT_DOUBLE_EQ(b.instructions, b2.instructions);
}

TEST(DaySupply, BatteryDayWithoutPcpgNeverGates)
{
    // With PCPG off the allocator may not gate a core, and a budget
    // too small for every core to run fails over to the utility.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::TN,
                                               solar::Month::Jan, 1);
    obs::Auditor audit;
    SimConfig cfg;
    cfg.dtSeconds = 60.0;
    cfg.pcpg = false;
    cfg.audit = &audit;
    const auto r = simulateBatteryDay(module, trace,
                                      workload::WorkloadId::HM2, 0.85, cfg);
    EXPECT_GT(audit.stepsAudited(), 0u);
    EXPECT_EQ(audit.count(obs::AuditCheck::DvfsLegality), 0u);
    // This day's ~32 W budget is below the cheapest all-ungated
    // allocation, so the chip runs from the utility, not the battery.
    EXPECT_LT(r.budgetW, 33.0);
    EXPECT_DOUBLE_EQ(r.consumedWh, 0.0);
    EXPECT_GT(r.instructions, 0.0);
}

TEST(DaySupply, HybridSunnyDayReportsTrackedAccounting)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 1);
    SimConfig cfg;
    cfg.dtSeconds = 60.0;
    cfg.recordTimeline = true;
    const auto r = simulateHybridDay(module, trace,
                                     workload::WorkloadId::HM2, 25.0, cfg);
    EXPECT_GT(r.day.effectiveFraction, 0.0);
    EXPECT_LE(r.day.effectiveFraction, 1.0);
    EXPECT_GT(r.day.controllerSteps, 0);
    EXPECT_GT(r.day.avgTrackingError, 0.0);
    EXPECT_FALSE(r.day.timeline.empty());
}

} // namespace
} // namespace solarcore::core
