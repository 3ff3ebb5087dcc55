/**
 * @file
 * Tests for the persistent unit-result cache: store/lookup round
 * trips bit-exactly, keys react to every simulation-relevant knob,
 * corrupt or mismatched entries read as misses (never wrong results),
 * the LRU cap evicts oldest-first, and entries persist across handles.
 */

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "campaign/unit_cache.hpp"

namespace solarcore::campaign {
namespace {

namespace fs = std::filesystem;

ScenarioGrid
cacheGrid()
{
    ScenarioGrid grid;
    grid.sites = {solar::SiteId::AZ};
    grid.months = {solar::Month::Jan};
    grid.policies = {CampaignPolicy::MpptOpt};
    grid.workloads = {workload::WorkloadId::HM2};
    grid.seeds = {1, 2, 3};
    grid.dtSeconds = 120.0;
    return grid;
}

/** Distinct, exactly-representable-in-text values per field. */
UnitMetrics
fakeMetrics(double base)
{
    UnitMetrics m;
    std::size_t i = 0;
    for (const auto &field : metricFields())
        m.*(field.member) = base + 0.125 * static_cast<double>(i++);
    // One value with no short decimal form: bit-exactness check.
    m.trackingError = 0.1 + 0.2;
    return m;
}

struct CacheDir
{
    std::string path;

    CacheDir()
        : path(::testing::TempDir() + "unit_cache_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name())
    {
        fs::remove_all(path);
    }
    ~CacheDir() { fs::remove_all(path); }
};

void
expectEqualMetrics(const UnitMetrics &a, const UnitMetrics &b)
{
    for (const auto &field : metricFields())
        EXPECT_EQ(a.*(field.member), b.*(field.member)) << field.name;
}

TEST(UnitCache, StoreThenLookupRoundTripsBitExactly)
{
    const auto grid = cacheGrid();
    const auto units = expandGrid(grid);
    CacheDir dir;
    UnitResultCache cache(dir.path, 0, "audit=off");
    ASSERT_TRUE(cache.ok());

    UnitMetrics out;
    EXPECT_FALSE(cache.lookup(grid, units[0], out));
    EXPECT_EQ(cache.counters().misses, 1u);

    const UnitMetrics stored = fakeMetrics(1.0);
    cache.store(grid, units[0], stored);
    EXPECT_EQ(cache.counters().stores, 1u);
    EXPECT_EQ(cache.size(), 1u);

    ASSERT_TRUE(cache.lookup(grid, units[0], out));
    EXPECT_EQ(cache.counters().hits, 1u);
    expectEqualMetrics(out, stored);
}

TEST(UnitCache, EntriesPersistAcrossHandles)
{
    const auto grid = cacheGrid();
    const auto units = expandGrid(grid);
    CacheDir dir;
    {
        UnitResultCache warm(dir.path, 0, "audit=off");
        warm.store(grid, units[0], fakeMetrics(2.0));
    }
    UnitResultCache reopened(dir.path, 0, "audit=off");
    ASSERT_TRUE(reopened.ok());
    EXPECT_EQ(reopened.size(), 1u);
    UnitMetrics out;
    ASSERT_TRUE(reopened.lookup(grid, units[0], out));
    expectEqualMetrics(out, fakeMetrics(2.0));
}

TEST(UnitCache, KeyReactsToEverySharedKnobButNotAxisLists)
{
    const auto grid = cacheGrid();
    const auto units = expandGrid(grid);
    CacheDir dir;
    UnitResultCache cache(dir.path, 0, "audit=off");
    const std::string base = cache.keyHash(grid, units[0]);

    // Unit axes and shared knobs all separate entries.
    EXPECT_NE(cache.keyHash(grid, units[1]), base);
    auto knob = grid;
    knob.dtSeconds = 60.0;
    EXPECT_NE(cache.keyHash(knob, units[0]), base);
    knob = grid;
    knob.fixedBudgetW = 42.0;
    EXPECT_NE(cache.keyHash(knob, units[0]), base);
    knob = grid;
    knob.pvKernel = "portable";
    EXPECT_NE(cache.keyHash(knob, units[0]), base);

    // A different salt (audit mode) is a different key space too.
    UnitResultCache salted(dir.path, 0, "audit=strict");
    EXPECT_NE(salted.keyHash(grid, units[0]), base);

    // But the grid's axis *lists* are not part of the key: a superset
    // sweep shares the entry for the unit it has in common.
    auto superset = grid;
    superset.seeds = {1, 2, 3, 4, 5};
    EXPECT_EQ(cache.keyHash(superset, units[0]), base);
    cache.store(grid, units[0], fakeMetrics(3.0));
    UnitMetrics out;
    EXPECT_TRUE(cache.lookup(superset, units[0], out));
}

TEST(UnitCache, CorruptEntriesReadAsMisses)
{
    const auto grid = cacheGrid();
    const auto units = expandGrid(grid);
    CacheDir dir;
    UnitResultCache cache(dir.path, 0, "audit=off");
    cache.store(grid, units[0], fakeMetrics(4.0));
    const std::string path =
        dir.path + "/" + cache.keyHash(grid, units[0]) + ".unit";
    ASSERT_TRUE(fs::exists(path));

    // Garbage body: miss, not a wrong result.
    {
        std::ofstream os(path, std::ios::trunc);
        os << "not a cache entry\n";
    }
    UnitMetrics out;
    EXPECT_FALSE(cache.lookup(grid, units[0], out));

    // Right magic, wrong key material (a hash collision in miniature):
    // the clear-text material check turns it into a miss as well.
    {
        std::ofstream os(path, std::ios::trunc);
        os << "# solarcore-unit-cache-v1\n"
           << cache.keyMaterial(grid, units[1]) << "\n1 2 3\n";
    }
    EXPECT_FALSE(cache.lookup(grid, units[0], out));

    // Truncated metrics row: miss.
    {
        std::ofstream os(path, std::ios::trunc);
        os << "# solarcore-unit-cache-v1\n"
           << cache.keyMaterial(grid, units[0]) << "\n1 2 3\n";
    }
    EXPECT_FALSE(cache.lookup(grid, units[0], out));
    EXPECT_EQ(cache.counters().hits, 0u);
    EXPECT_EQ(cache.counters().misses, 3u);
}

TEST(UnitCache, LruCapEvictsOldestFirst)
{
    const auto grid = cacheGrid();
    const auto units = expandGrid(grid);
    ASSERT_GE(units.size(), 3u);
    CacheDir dir;
    UnitResultCache cache(dir.path, 2, "audit=off");

    cache.store(grid, units[0], fakeMetrics(5.0));
    cache.store(grid, units[1], fakeMetrics(6.0));
    // Touch unit 0 so unit 1 is now the LRU entry.
    UnitMetrics out;
    ASSERT_TRUE(cache.lookup(grid, units[0], out));

    cache.store(grid, units[2], fakeMetrics(7.0));
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.counters().evictions, 1u);
    EXPECT_TRUE(cache.lookup(grid, units[0], out));
    EXPECT_FALSE(cache.lookup(grid, units[1], out));
    EXPECT_TRUE(cache.lookup(grid, units[2], out));
}

TEST(UnitCache, UnwritableDirectoryDegradesToAllMisses)
{
    const auto grid = cacheGrid();
    const auto units = expandGrid(grid);
    UnitResultCache cache("/proc/definitely/not/writable", 0, "x");
    EXPECT_FALSE(cache.ok());
    UnitMetrics out;
    EXPECT_FALSE(cache.lookup(grid, units[0], out));
    cache.store(grid, units[0], fakeMetrics(8.0));
    EXPECT_FALSE(cache.lookup(grid, units[0], out));
    EXPECT_EQ(cache.counters().stores, 0u);
}

} // namespace
} // namespace solarcore::campaign
