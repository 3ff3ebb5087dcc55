/**
 * @file
 * Fixed-budget throughput maximization (the paper's Fixed-Power
 * baseline, Table 6, and the allocator inside the battery baselines).
 *
 * The paper solves this with linear programming; our per-core levels
 * are discrete (gate, or one of six V/F points), so we solve the
 * problem exactly as a multiple-choice knapsack over a discretized
 * power axis -- at least as strong a baseline as the LP relaxation.
 * Each choice costs ceil(powerW / res) grid units, so the budget is
 * never exceeded.
 *
 * The DP keeps, after each core, only its Pareto frontier: the costs
 * whose best throughput beats that of every cheaper cost. It expands
 * each frontier state by the next core's choices into a dense row,
 * in (state, choice) order with a strict '>', and sweeps the row for
 * the next frontier. This returns bit-for-bit what a dense DP over
 * every cost returns. Floating-point addition is monotone, so a
 * dominated state (a cheaper one has at least its throughput) never
 * supplies a frontier cost's value or its first argmax; and the dense
 * DP's pick, the first cost with the highest throughput, is the last
 * frontier entry. Buffers are thread-local and reused across calls.
 *
 * Gating is a choice only if the chip allows it (PCPG on); otherwise
 * every core runs at some DVFS level, and a budget below the cheapest
 * such allocation is infeasible. Tests cross-check the DP against a
 * dense reference DP on random instances and against brute force on
 * small chips.
 */

#ifndef SOLARCORE_CORE_FIXED_POWER_HPP
#define SOLARCORE_CORE_FIXED_POWER_HPP

#include <vector>

#include "cpu/chip.hpp"

namespace solarcore::core {

/** Result of a fixed-budget allocation. */
struct AllocationResult
{
    std::vector<cpu::MultiCoreChip::CoreSetting> settings;
    double powerW = 0.0;       //!< chip power of the allocation
    double throughput = 0.0;   //!< instruction rate of the allocation
    bool feasible = false;     //!< false if even the cheapest allocation
                               //!< exceeds the budget
};

/**
 * Choose per-core levels maximizing total throughput subject to total
 * power <= @p budget_w, using the cores' current phases. Cores are
 * gated only if @p chip allows gating.
 *
 * @param chip        chip whose cores/phases to optimize (not mutated)
 * @param budget_w    power budget [W]
 * @param power_res_w DP power resolution [W]; power values are rounded
 *                    up to the grid so the budget is never exceeded
 */
AllocationResult optimizeAllocation(const cpu::MultiCoreChip &chip,
                                    double budget_w,
                                    double power_res_w = 0.1);

/**
 * Exhaustive reference optimizer for testing; cost grows as
 * (levels+1)^cores, use only for small chips.
 */
AllocationResult bruteForceAllocation(const cpu::MultiCoreChip &chip,
                                      double budget_w);

/** Apply an allocation to the chip. */
void applyAllocation(cpu::MultiCoreChip &chip, const AllocationResult &alloc);

} // namespace solarcore::core

#endif // SOLARCORE_CORE_FIXED_POWER_HPP
