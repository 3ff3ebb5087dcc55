#include "fixed_power.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/profiler.hpp"
#include "util/logging.hpp"

namespace solarcore::core {

namespace {

/** One selectable state of a core: gated or a DVFS level. */
struct Choice
{
    cpu::MultiCoreChip::CoreSetting setting;
    double powerW = 0.0;
    double throughput = 0.0;
};

/** Choices per core: every DVFS level, plus gating if PCPG allows it. */
int
choicesPerCore(const cpu::MultiCoreChip &chip)
{
    return chip.dvfs().numLevels() + (chip.gatingAllowed() ? 1 : 0);
}

/** Append core @p index's choices: gated first (if allowed), then the
 *  DVFS levels in ascending order. */
void
appendCoreChoices(const cpu::MultiCoreChip &chip, int index,
                  std::vector<Choice> &out)
{
    const auto &table = chip.dvfs();
    const cpu::Core &c = chip.core(index);

    if (chip.gatingAllowed()) {
        Choice gated;
        gated.setting = {table.minLevel(), true};
        gated.powerW = chip.powerModel().gatedPower().totalW();
        gated.throughput = 0.0;
        out.push_back(gated);
    }

    for (int l = table.minLevel(); l <= table.maxLevel(); ++l) {
        Choice ch;
        ch.setting = {l, false};
        ch.powerW = c.powerAtLevel(l);
        ch.throughput = c.throughputAtLevel(l);
        out.push_back(ch);
    }
}

/**
 * A DP state: best throughput @c t at grid cost @c u, reached from
 * state @c parent of the previous core by choice @c choice.
 */
struct State
{
    int u = 0;
    int parent = -1;
    int choice = -1;
    double t = 0.0;
};

/** Buffers reused across calls; one set per thread. */
struct Scratch
{
    std::vector<Choice> choices; //!< numCores x choicesPerCore, by core
    std::vector<int> costs;      //!< grid cost of each choice
    std::vector<State> states;   //!< every core's frontier, in order
    std::vector<double> rowT;    //!< dense expansion row: best throughput
    std::vector<int> rowFrom;    //!< and its argmax, state * k + choice
};

} // namespace

AllocationResult
optimizeAllocation(const cpu::MultiCoreChip &chip, double budget_w,
                   double power_res_w)
{
    SC_ASSERT(power_res_w > 0.0, "optimizeAllocation: bad resolution");
    SC_PROFILE_SCOPE("alloc.optimize");
    AllocationResult res;
    if (budget_w <= 0.0)
        return res;

    const int n = chip.numCores();
    const int budget_units =
        static_cast<int>(std::floor(budget_w / power_res_w));
    if (budget_units <= 0)
        return res;

    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    thread_local Scratch s;

    const int k = choicesPerCore(chip);
    s.choices.clear();
    for (int i = 0; i < n; ++i)
        appendCoreChoices(chip, i, s.choices);
    s.costs.resize(s.choices.size());
    for (std::size_t j = 0; j < s.choices.size(); ++j)
        // Round power up so the grid never under-counts.
        s.costs[j] = static_cast<int>(
            std::ceil(s.choices[j].powerW / power_res_w - 1e-12));
    const auto cells = static_cast<std::size_t>(budget_units) + 1;
    if (s.rowT.size() < cells) {
        s.rowT.resize(cells);
        s.rowFrom.resize(cells);
    }

    // The frontier [lo, hi) of s.states holds the cores processed so
    // far: one state per cost whose throughput beats every cheaper one.
    s.states.clear();
    s.states.push_back(State{});
    std::size_t lo = 0;
    std::size_t hi = 1;
    for (int i = 0; i < n; ++i) {
        const std::size_t base = static_cast<std::size_t>(i * k);
        int min_cost = s.costs[base];
        int max_cost = s.costs[base];
        for (int c = 1; c < k; ++c) {
            min_cost = std::min(min_cost, s.costs[base + c]);
            max_cost = std::max(max_cost, s.costs[base + c]);
        }
        const int first = s.states[lo].u + min_cost;
        if (first > budget_units)
            return res; // even the cheapest choices do not fit
        const int last =
            std::min(budget_units, s.states[hi - 1].u + max_cost);
        std::fill(s.rowT.begin() + first, s.rowT.begin() + last + 1,
                  kNegInf);

        // Expand in (state, choice) order; the strict '>' keeps the
        // first of equal candidates, as a dense DP over every cost.
        for (std::size_t st = lo; st < hi; ++st) {
            const State from = s.states[st];
            for (int c = 0; c < k; ++c) {
                const int u2 = from.u + s.costs[base + c];
                if (u2 > budget_units)
                    continue;
                const double t = from.t + s.choices[base + c].throughput;
                if (t > s.rowT[static_cast<std::size_t>(u2)]) {
                    s.rowT[static_cast<std::size_t>(u2)] = t;
                    s.rowFrom[static_cast<std::size_t>(u2)] =
                        static_cast<int>(st) * k + c;
                }
            }
        }

        // Keep the costs whose throughput beats every cheaper cost.
        lo = s.states.size();
        double best = kNegInf;
        for (int u = first; u <= last; ++u) {
            const double t = s.rowT[static_cast<std::size_t>(u)];
            if (t > best) {
                best = t;
                const int from = s.rowFrom[static_cast<std::size_t>(u)];
                s.states.push_back(State{u, from / k, from % k, t});
            }
        }
        hi = s.states.size();
    }

    // The best end state is the cheapest with the highest throughput:
    // the frontier's last. Walk its parents back to the first core.
    res.settings.resize(static_cast<std::size_t>(n));
    std::size_t st = hi - 1;
    for (int i = n - 1; i >= 0; --i) {
        const State &state = s.states[st];
        const Choice &ch = s.choices[static_cast<std::size_t>(i * k +
                                                              state.choice)];
        res.settings[static_cast<std::size_t>(i)] = ch.setting;
        res.powerW += ch.powerW;
        res.throughput += ch.throughput;
        st = static_cast<std::size_t>(state.parent);
    }
    SC_ASSERT(st == 0, "optimizeAllocation: broken DP path");
    res.feasible = true;
    return res;
}

AllocationResult
bruteForceAllocation(const cpu::MultiCoreChip &chip, double budget_w)
{
    AllocationResult best;
    const int n = chip.numCores();
    const std::size_t k = static_cast<std::size_t>(choicesPerCore(chip));
    std::vector<Choice> choices;
    for (int i = 0; i < n; ++i)
        appendCoreChoices(chip, i, choices);

    std::vector<std::size_t> pick(static_cast<std::size_t>(n), 0);
    while (true) {
        double p = 0.0;
        double t = 0.0;
        for (std::size_t i = 0; i < pick.size(); ++i) {
            const auto &ch = choices[i * k + pick[i]];
            p += ch.powerW;
            t += ch.throughput;
        }
        if (p <= budget_w && (!best.feasible || t > best.throughput)) {
            best.feasible = true;
            best.powerW = p;
            best.throughput = t;
            best.settings.clear();
            for (std::size_t i = 0; i < pick.size(); ++i)
                best.settings.push_back(choices[i * k + pick[i]].setting);
        }
        // Odometer increment.
        std::size_t i = 0;
        for (; i < pick.size(); ++i) {
            if (++pick[i] < k)
                break;
            pick[i] = 0;
        }
        if (i == pick.size())
            break;
    }
    return best;
}

void
applyAllocation(cpu::MultiCoreChip &chip, const AllocationResult &alloc)
{
    SC_ASSERT(alloc.feasible, "applyAllocation: infeasible allocation");
    chip.applySettings(alloc.settings);
}

} // namespace solarcore::core
