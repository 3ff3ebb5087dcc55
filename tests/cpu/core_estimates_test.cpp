/**
 * @file
 * Oracle test for Core's per-level estimate cache: after any sequence
 * of state changes, every accessor at every level must equal, bit for
 * bit, a fresh PerfModel/PowerModel evaluation of the same inputs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "cpu/chip.hpp"
#include "util/random.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::cpu {
namespace {

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

void
expectPerfBitwise(const PerfEstimate &got, const PerfEstimate &want)
{
    EXPECT_EQ(bits(got.ipc), bits(want.ipc));
    EXPECT_EQ(bits(got.cpiBase), bits(want.cpiBase));
    EXPECT_EQ(bits(got.cpiBranch), bits(want.cpiBranch));
    EXPECT_EQ(bits(got.cpiL2), bits(want.cpiL2));
    EXPECT_EQ(bits(got.cpiMemory), bits(want.cpiMemory));
}

void
expectPowerBitwise(const PowerEstimate &got, const PowerEstimate &want)
{
    EXPECT_EQ(bits(got.dynamicW), bits(want.dynamicW));
    EXPECT_EQ(bits(got.leakageW), bits(want.leakageW));
    EXPECT_EQ(bits(got.epiNj), bits(want.epiNj));
    const PowerBreakdown &g = got.breakdown;
    const PowerBreakdown &w = want.breakdown;
    EXPECT_EQ(bits(g.frontendW), bits(w.frontendW));
    EXPECT_EQ(bits(g.windowW), bits(w.windowW));
    EXPECT_EQ(bits(g.regfileW), bits(w.regfileW));
    EXPECT_EQ(bits(g.aluW), bits(w.aluW));
    EXPECT_EQ(bits(g.lsqDcacheW), bits(w.lsqDcacheW));
    EXPECT_EQ(bits(g.l2W), bits(w.l2W));
    EXPECT_EQ(bits(g.clockW), bits(w.clockW));
}

/** Uncached models built independently of the chip's own. */
struct Oracle
{
    DvfsTable table = DvfsTable::paperDefault();
    PerfModel perf{defaultChipConfig().core};
    PowerModel power{EnergyParams{}};

    PerfEstimate
    perfAt(const Core &c, int level) const
    {
        return perf.evaluate(c.currentPhase(), table.frequency(level));
    }

    PowerEstimate
    powerAt(const Core &c, int level) const
    {
        return power.evaluate(c.currentPhase(), perfAt(c, level),
                              table.voltage(level), table.frequency(level),
                              c.dieTempC());
    }

    /** Every accessor of every core, at every level, against the
     *  uncached models. Reading also fills the cache, so the next
     *  operation must invalidate whatever it makes stale. */
    void
    check(const MultiCoreChip &chip) const
    {
        for (int i = 0; i < chip.numCores(); ++i) {
            const Core &c = chip.core(i);
            SCOPED_TRACE(testing::Message() << "core " << i);
            for (int l = 0; l < table.numLevels(); ++l) {
                EXPECT_EQ(bits(c.powerAtLevel(l)),
                          bits(powerAt(c, l).totalW()));
                EXPECT_EQ(bits(c.throughputAtLevel(l)),
                          bits(perfAt(c, l).throughput(
                              table.frequency(l))));
            }
            if (c.gated()) {
                expectPerfBitwise(c.perf(), PerfEstimate{});
                expectPowerBitwise(c.power(), power.gatedPower());
                EXPECT_EQ(bits(c.throughput()), bits(0.0));
            } else {
                const int l = c.level();
                expectPerfBitwise(c.perf(), perfAt(c, l));
                expectPowerBitwise(c.power(), powerAt(c, l));
                EXPECT_EQ(bits(c.throughput()),
                          bits(perfAt(c, l).throughput(
                              table.frequency(l))));
            }
        }
    }
};

TEST(CoreEstimates, MatchesUncachedBitwise)
{
    const Oracle oracle;
    const int max_level = oracle.table.maxLevel();
    for (auto id : {workload::WorkloadId::H1, workload::WorkloadId::HM2,
                    workload::WorkloadId::L1}) {
        SCOPED_TRACE(testing::Message() << "workload "
                                        << static_cast<int>(id));
        MultiCoreChip chip(defaultChipConfig(), oracle.table, EnergyParams{},
                           workload::workloadSet(id), 11);
        const int n = chip.numCores();
        Rng rng(0xe57ull + static_cast<std::uint64_t>(id));
        oracle.check(chip);
        for (int op = 0; op < 400; ++op) {
            const int i = static_cast<int>(rng.uniformInt(0, n - 1));
            Core &c = chip.core(i);
            switch (rng.uniformInt(0, 5)) {
            case 0:
                c.setLevel(static_cast<int>(rng.uniformInt(0, max_level)));
                break;
            case 1:
                c.setGated(rng.bernoulli(0.3));
                break;
            case 2: // an unchanged temperature keeps the cache
                c.setDieTempC(c.dieTempC());
                break;
            case 3:
                c.setDieTempC(rng.uniform(30.0, 95.0));
                break;
            case 4: // phases last 36-96 s: many steps cross a boundary
                chip.step(rng.uniform(0.0, 40.0));
                break;
            default:
                chip.swapWorkloads(
                    i, static_cast<int>(rng.uniformInt(0, n - 1)));
                break;
            }
            oracle.check(chip);
            if (testing::Test::HasFailure())
                return;
        }
    }
}

} // namespace
} // namespace solarcore::cpu
