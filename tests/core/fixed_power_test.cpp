/**
 * @file
 * Tests for the fixed-budget allocation optimizer, including a
 * bitwise cross-check of the frontier DP against a dense reference DP
 * and a cross-check against exhaustive search.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "core/fixed_power.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::core {
namespace {

/**
 * Reference for optimizeAllocation: the multiple-choice knapsack as a
 * dense DP over every grid cost, with an n x (B+1) argmax table. Same
 * choices in the same order (gated first if allowed, then the levels),
 * same grid costs, same tie-break.
 */
AllocationResult
denseAllocation(const cpu::MultiCoreChip &chip, double budget_w,
                double power_res_w)
{
    AllocationResult res;
    if (budget_w <= 0.0)
        return res;
    const int n = chip.numCores();
    const int budget_units =
        static_cast<int>(std::floor(budget_w / power_res_w));
    if (budget_units <= 0)
        return res;

    struct Choice
    {
        cpu::MultiCoreChip::CoreSetting setting;
        double powerW = 0.0;
        double throughput = 0.0;
        int cost = 0;
    };
    const auto &table = chip.dvfs();
    std::vector<std::vector<Choice>> choices(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto &out = choices[static_cast<std::size_t>(i)];
        if (chip.gatingAllowed())
            out.push_back({{table.minLevel(), true},
                           chip.powerModel().gatedPower().totalW(), 0.0});
        for (int l = table.minLevel(); l <= table.maxLevel(); ++l)
            out.push_back({{l, false}, chip.core(i).powerAtLevel(l),
                           chip.core(i).throughputAtLevel(l)});
        for (auto &ch : out)
            ch.cost = static_cast<int>(
                std::ceil(ch.powerW / power_res_w - 1e-12));
    }

    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    const auto cells = static_cast<std::size_t>(budget_units) + 1;
    std::vector<double> dp(cells, kNegInf);
    dp[0] = 0.0;
    std::vector<std::vector<int>> choice_at(static_cast<std::size_t>(n),
                                            std::vector<int>(cells, -1));
    for (std::size_t i = 0; i < choices.size(); ++i) {
        std::vector<double> next(cells, kNegInf);
        for (int u = 0; u <= budget_units; ++u) {
            if (dp[static_cast<std::size_t>(u)] == kNegInf)
                continue;
            for (std::size_t c = 0; c < choices[i].size(); ++c) {
                const int u2 = u + choices[i][c].cost;
                if (u2 > budget_units)
                    continue;
                const double t =
                    dp[static_cast<std::size_t>(u)] + choices[i][c].throughput;
                if (t > next[static_cast<std::size_t>(u2)]) {
                    next[static_cast<std::size_t>(u2)] = t;
                    choice_at[i][static_cast<std::size_t>(u2)] =
                        static_cast<int>(c);
                }
            }
        }
        dp.swap(next);
    }

    int best_u = -1;
    double best_t = kNegInf;
    for (int u = 0; u <= budget_units; ++u) {
        if (dp[static_cast<std::size_t>(u)] > best_t) {
            best_t = dp[static_cast<std::size_t>(u)];
            best_u = u;
        }
    }
    if (best_u < 0)
        return res;

    res.settings.resize(static_cast<std::size_t>(n));
    int u = best_u;
    for (int i = n - 1; i >= 0; --i) {
        const auto &row = choices[static_cast<std::size_t>(i)];
        const int c = choice_at[static_cast<std::size_t>(i)]
                               [static_cast<std::size_t>(u)];
        const auto &ch = row[static_cast<std::size_t>(c)];
        res.settings[static_cast<std::size_t>(i)] = ch.setting;
        res.powerW += ch.powerW;
        res.throughput += ch.throughput;
        u -= ch.cost;
    }
    res.feasible = true;
    return res;
}

cpu::MultiCoreChip
makeChip(workload::WorkloadId id, int cores = 8)
{
    auto cfg = cpu::defaultChipConfig();
    cfg.numCores = cores;
    auto profiles = workload::workloadSet(id);
    profiles.resize(static_cast<std::size_t>(cores),
                    profiles.empty() ? cpu::BenchmarkProfile{} : profiles[0]);
    return cpu::MultiCoreChip(cfg, cpu::DvfsTable::paperDefault(),
                              cpu::EnergyParams{}, std::move(profiles), 42);
}

TEST(FixedPower, RespectsBudget)
{
    auto chip = makeChip(workload::WorkloadId::HM2);
    for (double budget : {10.0, 30.0, 60.0, 100.0, 150.0, 300.0}) {
        const auto alloc = optimizeAllocation(chip, budget);
        ASSERT_TRUE(alloc.feasible) << budget;
        EXPECT_LE(alloc.powerW, budget + 1e-9) << budget;
    }
}

TEST(FixedPower, ThroughputMonotoneInBudget)
{
    auto chip = makeChip(workload::WorkloadId::M2);
    double prev = -1.0;
    for (double budget : {10.0, 25.0, 50.0, 75.0, 100.0, 150.0, 250.0}) {
        const auto alloc = optimizeAllocation(chip, budget);
        ASSERT_TRUE(alloc.feasible);
        EXPECT_GE(alloc.throughput, prev - 1e-6) << budget;
        prev = alloc.throughput;
    }
}

TEST(FixedPower, HugeBudgetRunsEverythingFlatOut)
{
    auto chip = makeChip(workload::WorkloadId::L1);
    const auto alloc = optimizeAllocation(chip, 1000.0);
    ASSERT_TRUE(alloc.feasible);
    for (const auto &s : alloc.settings) {
        EXPECT_FALSE(s.gated);
        EXPECT_EQ(s.level, chip.dvfs().maxLevel());
    }
}

TEST(FixedPower, TinyBudgetGatesEverything)
{
    auto chip = makeChip(workload::WorkloadId::H1);
    const auto alloc = optimizeAllocation(chip, 1.0);
    ASSERT_TRUE(alloc.feasible);
    for (const auto &s : alloc.settings)
        EXPECT_TRUE(s.gated);
    EXPECT_DOUBLE_EQ(alloc.throughput, 0.0);
}

TEST(FixedPower, ZeroBudgetInfeasible)
{
    auto chip = makeChip(workload::WorkloadId::H1);
    EXPECT_FALSE(optimizeAllocation(chip, 0.0).feasible);
    EXPECT_FALSE(optimizeAllocation(chip, -5.0).feasible);
}

TEST(FixedPower, ApplyAllocationSetsChipState)
{
    auto chip = makeChip(workload::WorkloadId::HM1);
    const auto alloc = optimizeAllocation(chip, 70.0);
    ASSERT_TRUE(alloc.feasible);
    applyAllocation(chip, alloc);
    EXPECT_NEAR(chip.totalPower(), alloc.powerW, 1e-9);
    EXPECT_NEAR(chip.totalThroughput(), alloc.throughput,
                alloc.throughput * 1e-12);
}

TEST(FixedPower, DpMatchesBruteForceSmallChip)
{
    // 4 cores, 7 choices each: 2401 combinations -- exact comparison;
    // with PCPG off, 6 choices each.
    for (const bool pcpg : {true, false}) {
        auto chip = makeChip(workload::WorkloadId::ML2, 4);
        chip.setGatingAllowed(pcpg);
        for (double budget : {15.0, 30.0, 45.0, 70.0, 120.0}) {
            const auto dp = optimizeAllocation(chip, budget, 0.01);
            const auto bf = bruteForceAllocation(chip, budget);
            ASSERT_EQ(dp.feasible, bf.feasible) << budget << " " << pcpg;
            if (!dp.feasible)
                continue;
            // The DP rounds power up to its grid, so it may forgo a
            // combination the exact search finds; with a fine grid the
            // throughput gap is bounded by one notch.
            EXPECT_LE(dp.throughput, bf.throughput + 1e-6) << budget;
            EXPECT_GE(dp.throughput, bf.throughput * 0.98) << budget;
        }
    }
}

TEST(FixedPower, PcpgOffNeverGates)
{
    // Without PCPG every core runs at some level. The cheapest such
    // allocation rounds each core's power up to the grid, so it fits
    // from minUngatedPower() plus one quantum per core and the
    // budget's own rounding, and never below minUngatedPower().
    for (const auto id : {workload::WorkloadId::HM2, workload::WorkloadId::L1,
                          workload::WorkloadId::H1}) {
        auto chip = makeChip(id);
        chip.setGatingAllowed(false);
        const double res = 0.1;
        const double floor_w = chip.minUngatedPower();
        const double slack_w = (chip.numCores() + 1) * res;
        const auto check = [&](double b) {
            const auto alloc = optimizeAllocation(chip, b, res);
            if (b < floor_w) {
                EXPECT_FALSE(alloc.feasible) << b;
            }
            if (b >= floor_w + slack_w) {
                EXPECT_TRUE(alloc.feasible) << b;
            }
            for (const auto &s : alloc.settings)
                EXPECT_FALSE(s.gated) << b;
        };
        for (double b = floor_w - 2.0; b <= floor_w + slack_w + 1.0;
             b += 0.013)
            check(b);
        for (double b : {1.0, 10.0, 30.0, 60.0, 100.0, 300.0})
            check(b);
    }
}

TEST(FixedPower, FrontierDpMatchesDenseDpBitwise)
{
    // Random instances: every mix, 1-8 cores, advanced phases, per-core
    // die temperatures, budgets from below zero to past full power,
    // several grid resolutions and both PCPG settings. The frontier DP
    // must return the dense DP's answer bit for bit.
    std::mt19937_64 rng(20111);
    const auto mixes = workload::allWorkloads();
    const double resolutions[] = {0.01, 0.05, 0.1, 0.25, 1.0};
    const auto uniform = [&](double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(rng);
    };
    const auto pick = [&](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    int feasible = 0;
    int infeasible = 0;
    constexpr int kInstances = 2500;
    for (int n = 0; n < kInstances; ++n) {
        const auto id = mixes[static_cast<std::size_t>(n) % mixes.size()];
        const int cores = 1 + static_cast<int>(pick(8));
        auto chip = makeChip(id, cores);
        chip.setGatingAllowed(pick(4) != 0);
        chip.step(uniform(0.0, 600.0));
        for (int i = 0; i < cores; ++i)
            chip.core(i).setDieTempC(uniform(20.0, 100.0));
        const double budget = uniform(-2.0, 1.3 * chip.maxPower());
        const double res = resolutions[pick(std::size(resolutions))];

        const auto got = optimizeAllocation(chip, budget, res);
        const auto want = denseAllocation(chip, budget, res);
        const auto where = [&] {
            return ::testing::Message()
                << "instance " << n << ": " << cores << " cores, budget "
                << budget << " W, res " << res << " W, pcpg "
                << chip.gatingAllowed();
        };
        ASSERT_EQ(got.feasible, want.feasible) << where();
        ASSERT_EQ(got.settings.size(), want.settings.size()) << where();
        for (std::size_t i = 0; i < got.settings.size(); ++i) {
            EXPECT_EQ(got.settings[i].gated, want.settings[i].gated)
                << where() << " core " << i;
            EXPECT_EQ(got.settings[i].level, want.settings[i].level)
                << where() << " core " << i;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.powerW),
                  std::bit_cast<std::uint64_t>(want.powerW))
            << where();
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.throughput),
                  std::bit_cast<std::uint64_t>(want.throughput))
            << where();
        ++(got.feasible ? feasible : infeasible);
    }
    // Both outcomes are exercised.
    EXPECT_GT(feasible, kInstances / 2);
    EXPECT_GT(infeasible, 0);
}

TEST(FixedPower, DpMatchesBruteForceHeterogeneous)
{
    auto chip = makeChip(workload::WorkloadId::HM2, 4);
    const auto dp = optimizeAllocation(chip, 55.0, 0.01);
    const auto bf = bruteForceAllocation(chip, 55.0);
    ASSERT_TRUE(dp.feasible && bf.feasible);
    EXPECT_GE(dp.throughput, bf.throughput * 0.98);
}

TEST(FixedPower, PrefersEfficientCoresUnderTightBudget)
{
    // ML1 = 4x gcc (moderate EPI) + 4x mesa (low EPI). With a budget
    // that cannot raise everyone, the optimizer must give mesa cores
    // at least as much frequency as gcc cores on average.
    auto chip = makeChip(workload::WorkloadId::ML1);
    const auto alloc = optimizeAllocation(chip, 60.0);
    ASSERT_TRUE(alloc.feasible);
    double gcc_levels = 0.0;
    double mesa_levels = 0.0;
    for (int i = 0; i < 4; ++i) {
        gcc_levels += alloc.settings[static_cast<std::size_t>(i)].gated
            ? -1
            : alloc.settings[static_cast<std::size_t>(i)].level;
        mesa_levels += alloc.settings[static_cast<std::size_t>(i + 4)].gated
            ? -1
            : alloc.settings[static_cast<std::size_t>(i + 4)].level;
    }
    EXPECT_GE(mesa_levels, gcc_levels);
}

} // namespace
} // namespace solarcore::core
