/**
 * @file
 * Tests for the full-day simulation driver: conservation laws, metric
 * ranges, determinism, and the paper's qualitative policy ordering.
 */

#include <bit>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/simulation.hpp"
#include "power/battery.hpp"

namespace solarcore::core {
namespace {

SimConfig
fastConfig(PolicyKind policy = PolicyKind::MpptOpt)
{
    SimConfig cfg;
    cfg.policy = policy;
    cfg.dtSeconds = 60.0; // coarse step keeps tests quick
    return cfg;
}

DayResult
run(PolicyKind policy, workload::WorkloadId wl = workload::WorkloadId::HM2,
    solar::SiteId site = solar::SiteId::AZ,
    solar::Month month = solar::Month::Jan)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(site, month, 1);
    return simulateDay(module, trace, wl, fastConfig(policy));
}

TEST(Simulation, MetricRanges)
{
    const auto r = run(PolicyKind::MpptOpt);
    EXPECT_GT(r.mppEnergyWh, 0.0);
    EXPECT_GT(r.solarEnergyWh, 0.0);
    EXPECT_LE(r.utilization, 1.0);
    EXPECT_GE(r.utilization, 0.0);
    EXPECT_GE(r.effectiveFraction, 0.0);
    EXPECT_LE(r.effectiveFraction, 1.0);
    EXPECT_GT(r.solarInstructions, 0.0);
    EXPECT_GE(r.totalInstructions, r.solarInstructions);
    EXPECT_GE(r.avgTrackingError, 0.0);
    EXPECT_LT(r.avgTrackingError, 0.5);
}

TEST(Simulation, SolarConsumptionNeverExceedsBudget)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 2);
    auto cfg = fastConfig(PolicyKind::MpptOpt);
    cfg.recordTimeline = true;
    const auto r = simulateDay(module, trace, workload::WorkloadId::H1, cfg);
    ASSERT_FALSE(r.timeline.empty());
    for (const auto &p : r.timeline) {
        if (p.onSolar) {
            EXPECT_LE(p.consumedW, p.budgetW * 1.001)
                << "minute " << p.minute;
        }
    }
}

TEST(Simulation, EnergyLedgerConsistent)
{
    // Solar + grid ledger must equal what the chip consumed.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::CO,
                                               solar::Month::Apr, 3);
    auto cfg = fastConfig(PolicyKind::MpptRr);
    const auto r = simulateDay(module, trace, workload::WorkloadId::M2, cfg);
    // The ledger samples power at the start of each step while the
    // chip integrates through phase changes, so agreement is to the
    // step discretization, not exact.
    EXPECT_NEAR(r.solarEnergyWh + r.gridEnergyWh, r.chipEnergyWh,
                5e-3 * r.chipEnergyWh);
}

TEST(Simulation, WinterDawnFallsBackToGrid)
{
    // CO January sunrise is well after 7:30: the first minutes of the
    // window must be grid-powered.
    const auto r = run(PolicyKind::MpptOpt, workload::WorkloadId::M2,
                       solar::SiteId::CO, solar::Month::Jan);
    EXPECT_GT(r.gridEnergyWh, 0.0);
    EXPECT_LT(r.effectiveFraction, 1.0);
}

TEST(Simulation, Deterministic)
{
    const auto a = run(PolicyKind::MpptOpt);
    const auto b = run(PolicyKind::MpptOpt);
    EXPECT_DOUBLE_EQ(a.solarEnergyWh, b.solarEnergyWh);
    EXPECT_DOUBLE_EQ(a.solarInstructions, b.solarInstructions);
    EXPECT_DOUBLE_EQ(a.avgTrackingError, b.avgTrackingError);
}

TEST(Simulation, PolicyOrderingOnHeterogeneousWorkload)
{
    // Paper Section 6.4: MPPT&Opt > MPPT&RR > MPPT&IC in PTP.
    const auto opt = run(PolicyKind::MpptOpt, workload::WorkloadId::HM2);
    const auto rr = run(PolicyKind::MpptRr, workload::WorkloadId::HM2);
    const auto ic = run(PolicyKind::MpptIc, workload::WorkloadId::HM2);
    EXPECT_GT(opt.solarInstructions, rr.solarInstructions);
    EXPECT_GT(rr.solarInstructions, ic.solarInstructions);
}

TEST(Simulation, ThreadMotionRecoversIcPerformance)
{
    // Extension: migrating efficient programs onto the boosted cores
    // lets the concentration policy commit more instructions.
    const auto ic = run(PolicyKind::MpptIc, workload::WorkloadId::ML2);
    const auto tm = run(PolicyKind::MpptIcMotion,
                        workload::WorkloadId::ML2);
    EXPECT_GT(tm.solarInstructions, 1.05 * ic.solarInstructions);
    // Still at most Opt-level performance.
    const auto opt = run(PolicyKind::MpptOpt, workload::WorkloadId::ML2);
    EXPECT_LT(tm.solarInstructions, 1.05 * opt.solarInstructions);
}

TEST(Simulation, OptCloseToRoundRobinOnHomogeneousWorkload)
{
    // With 8 copies of one program the TPR heuristic degenerates to
    // near-round-robin; the gap should be small.
    const auto opt = run(PolicyKind::MpptOpt, workload::WorkloadId::M1);
    const auto rr = run(PolicyKind::MpptRr, workload::WorkloadId::M1);
    EXPECT_NEAR(opt.solarInstructions / rr.solarInstructions, 1.0, 0.08);
}

TEST(Simulation, FixedPowerWorseThanSolarCore)
{
    // Paper Section 6.2: even the best fixed budget reaches at most
    // ~70% of SolarCore's energy and PTP.
    const auto sc = run(PolicyKind::MpptOpt);
    for (double budget : {25.0, 50.0, 75.0, 100.0}) {
        const auto module = pv::buildBp3180n();
        const auto trace =
            solar::generateDayTrace(solar::SiteId::AZ, solar::Month::Jan, 1);
        auto cfg = fastConfig(PolicyKind::FixedPower);
        cfg.fixedBudgetW = budget;
        const auto r =
            simulateDay(module, trace, workload::WorkloadId::HM2, cfg);
        EXPECT_LT(r.solarEnergyWh, 0.75 * sc.solarEnergyWh) << budget;
        EXPECT_LT(r.solarInstructions, 0.75 * sc.solarInstructions)
            << budget;
    }
}

TEST(Simulation, HigherFixedBudgetShortensEffectiveDuration)
{
    // Paper Figure 15: the duration above threshold shrinks with the
    // budget.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Oct, 1);
    double prev = 2.0;
    for (double budget : {25.0, 50.0, 75.0, 100.0}) {
        auto cfg = fastConfig(PolicyKind::FixedPower);
        cfg.fixedBudgetW = budget;
        const auto r =
            simulateDay(module, trace, workload::WorkloadId::M1, cfg);
        EXPECT_LE(r.effectiveFraction, prev + 1e-9) << budget;
        prev = r.effectiveFraction;
    }
}

TEST(Simulation, SunnierSiteHigherUtilization)
{
    const auto az = run(PolicyKind::MpptOpt, workload::WorkloadId::HM2,
                        solar::SiteId::AZ, solar::Month::Oct);
    const auto tn = run(PolicyKind::MpptOpt, workload::WorkloadId::HM2,
                        solar::SiteId::TN, solar::Month::Oct);
    EXPECT_GT(az.utilization, tn.utilization);
    EXPECT_GT(az.effectiveFraction, tn.effectiveFraction);
}

TEST(Simulation, TimelineOnlyWhenRequested)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jan, 1);
    auto cfg = fastConfig(PolicyKind::MpptOpt);
    cfg.recordTimeline = false;
    EXPECT_TRUE(simulateDay(module, trace, workload::WorkloadId::L1, cfg)
                    .timeline.empty());
    cfg.recordTimeline = true;
    const auto r = simulateDay(module, trace, workload::WorkloadId::L1, cfg);
    EXPECT_GE(r.timeline.size(), 590u);
    EXPECT_LE(r.timeline.size(), 610u);
}

/** Every DayResult field of @p got equals @p want's, bit for bit. */
void
expectSameDayBits(const DayResult &got, const DayResult &want)
{
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    EXPECT_EQ(bits(got.mppEnergyWh), bits(want.mppEnergyWh));
    EXPECT_EQ(bits(got.solarEnergyWh), bits(want.solarEnergyWh));
    EXPECT_EQ(bits(got.gridEnergyWh), bits(want.gridEnergyWh));
    EXPECT_EQ(bits(got.chipEnergyWh), bits(want.chipEnergyWh));
    EXPECT_EQ(bits(got.utilization), bits(want.utilization));
    EXPECT_EQ(bits(got.effectiveFraction), bits(want.effectiveFraction));
    EXPECT_EQ(bits(got.solarInstructions), bits(want.solarInstructions));
    EXPECT_EQ(bits(got.totalInstructions), bits(want.totalInstructions));
    EXPECT_EQ(bits(got.avgTrackingError), bits(want.avgTrackingError));
    EXPECT_EQ(got.transferCount, want.transferCount);
    EXPECT_EQ(got.thermalThrottles, want.thermalThrottles);
    EXPECT_EQ(got.retracks, want.retracks);
    EXPECT_EQ(got.controllerSteps, want.controllerSteps);
    ASSERT_EQ(got.timeline.size(), want.timeline.size());
    for (std::size_t i = 0; i < got.timeline.size(); ++i) {
        const TimelinePoint &g = got.timeline[i], &w = want.timeline[i];
        EXPECT_EQ(bits(g.minute), bits(w.minute));
        EXPECT_EQ(bits(g.budgetW), bits(w.budgetW));
        EXPECT_EQ(bits(g.consumedW), bits(w.consumedW));
        EXPECT_EQ(g.onSolar, w.onSolar);
    }
}

TEST(Simulation, ReusedWorkspaceMatchesFreshDayBitwise)
{
    // A workspace reused across tracked days shares its PV memo
    // between them. Days of two weather seeds, interleaved as a
    // campaign thread runs them, and then the same days on a second
    // array arrangement, must each come out exactly as a day run on a
    // fresh workspace.
    const auto module = pv::buildBp3180n();
    const solar::SolarTrace traces[] = {
        solar::generateDayTrace(solar::SiteId::AZ, solar::Month::Jul, 1),
        solar::generateDayTrace(solar::SiteId::AZ, solar::Month::Jul, 2)};
    SimWorkspace ws;
    for (const int parallel : {1, 2}) {
        for (const PolicyKind policy :
             {PolicyKind::MpptOpt, PolicyKind::MpptRr, PolicyKind::MpptIc}) {
            for (std::uint64_t seed = 1; seed <= 2; ++seed) {
                SCOPED_TRACE(testing::Message()
                             << "modulesParallel " << parallel << " policy "
                             << static_cast<int>(policy) << " seed " << seed);
                auto cfg = fastConfig(policy);
                cfg.seed = seed;
                cfg.modulesParallel = parallel;
                cfg.recordTimeline = true;
                const auto &trace = traces[seed - 1];
                const DayResult fresh = simulateDay(
                    module, trace, workload::WorkloadId::HM2, cfg);
                cfg.workspace = &ws;
                expectSameDayBits(
                    simulateDay(module, trace, workload::WorkloadId::HM2,
                                cfg),
                    fresh);
            }
        }
    }
    EXPECT_GT(ws.prepareMemo.size(), 0u);
}

TEST(BatterySim, UpperBoundBeatsLowerBound)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jan, 1);
    const auto cfg = fastConfig();
    const auto bu = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2,
                                       power::kBatteryUpperBound, cfg);
    const auto bl = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2,
                                       power::kBatteryLowerBound, cfg);
    EXPECT_GT(bu.instructions, bl.instructions);
    EXPECT_GT(bu.budgetW, bl.budgetW);
    EXPECT_NEAR(bu.budgetW / bl.budgetW, 0.92 / 0.81, 1e-9);
}

TEST(BatterySim, UtilizationBoundedByDerating)
{
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::CO,
                                               solar::Month::Jul, 1);
    const auto cfg = fastConfig();
    const auto b = simulateBatteryDay(module, trace,
                                      workload::WorkloadId::L2, 0.92, cfg);
    EXPECT_LE(b.utilization, 0.92 + 1e-9);
    EXPECT_GT(b.utilization, 0.5);
}

TEST(BatterySim, SolarCoreWithinBatteryBand)
{
    // Paper Figure 21: SolarCore's PTP sits between the battery
    // bounds (just below Battery-U). Allow a generous band: above
    // 80% of Battery-L, below Battery-U.
    const auto module = pv::buildBp3180n();
    const auto trace = solar::generateDayTrace(solar::SiteId::AZ,
                                               solar::Month::Jul, 1);
    const auto cfg = fastConfig();
    const auto sc = simulateDay(module, trace, workload::WorkloadId::HM2,
                                fastConfig(PolicyKind::MpptOpt));
    const auto bu = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2,
                                       power::kBatteryUpperBound, cfg);
    const auto bl = simulateBatteryDay(module, trace,
                                       workload::WorkloadId::HM2,
                                       power::kBatteryLowerBound, cfg);
    EXPECT_GT(sc.solarInstructions, 0.8 * bl.instructions);
    EXPECT_LT(sc.solarInstructions, 1.05 * bu.instructions);
}

} // namespace
} // namespace solarcore::core
