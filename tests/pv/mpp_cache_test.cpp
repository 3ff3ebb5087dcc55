/**
 * @file
 * Tests for the environment-keyed MPP memo and the bilinear (G, T)
 * grid with analytic refinement.
 */

#include <cmath>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pv/bp3180n.hpp"
#include "pv/mpp_cache.hpp"

namespace solarcore::pv {
namespace {

const PvModule &
testModule()
{
    static const PvModule m = buildBp3180n();
    return m;
}

TEST(MppCache, ExactModeIsBitIdenticalToDirectSolve)
{
    MppCache cache(testModule(), 1, 1);
    PvArray array(testModule(), 1, 1, kStc);
    for (double g : {150.0, 480.0, 725.0, 1000.0}) {
        for (double t : {-5.0, 22.0, 61.0}) {
            array.setEnvironment({g, t});
            const auto direct = findMpp(array);
            const auto cached = cache.mpp({g, t});
            EXPECT_EQ(cached.voltage, direct.voltage) << g << " " << t;
            EXPECT_EQ(cached.current, direct.current) << g << " " << t;
            EXPECT_EQ(cached.power, direct.power) << g << " " << t;
        }
    }
}

TEST(MppCache, RepeatedEnvironmentHitsTheMemo)
{
    MppCache cache(testModule(), 1, 1);
    const Environment env{800.0, 40.0};
    const auto first = cache.mpp(env);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    for (int i = 0; i < 5; ++i) {
        const auto again = cache.mpp(env);
        EXPECT_EQ(again.power, first.power);
    }
    EXPECT_EQ(cache.stats().hits, 5u);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(MppCache, EnvironmentChangeInvalidatesNothingButMissesCorrectly)
{
    // The memo is keyed, not stateful: after an environment change the
    // new condition resolves to its own fresh entry and going back to
    // the first one still returns the original result.
    MppCache cache(testModule(), 1, 1);
    const Environment a{900.0, 30.0};
    const Environment b{300.0, 10.0};

    const auto mpp_a = cache.mpp(a);
    const auto mpp_b = cache.mpp(b);
    EXPECT_NE(mpp_a.power, mpp_b.power);
    EXPECT_EQ(cache.stats().misses, 2u);

    PvArray oracle(testModule(), 1, 1, a);
    const auto direct_a = findMpp(oracle);
    oracle.setEnvironment(b);
    const auto direct_b = findMpp(oracle);
    EXPECT_EQ(cache.mpp(a).power, direct_a.power);
    EXPECT_EQ(cache.mpp(b).power, direct_b.power);
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(MppCache, DarkEnvironmentBypassesTheMemo)
{
    MppCache cache(testModule(), 1, 1);
    const auto mpp = cache.mpp({0.0, 25.0});
    EXPECT_EQ(mpp.power, 0.0);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(MppCache, QuantizedModeCollapsesNearbyEnvironments)
{
    MppCache cache(testModule(), 1, 1, /*g_quantum=*/1.0,
                   /*t_quantum=*/0.1);
    const auto a = cache.mpp({800.2, 40.02});
    const auto b = cache.mpp({799.9, 39.98});
    EXPECT_EQ(a.power, b.power);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().hits, 1u);

    // A full bucket away resolves separately.
    const auto c = cache.mpp({805.0, 40.0});
    EXPECT_NE(c.power, a.power);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(MppCache, CompatibilityChecksModuleAndArrangement)
{
    MppCache cache(testModule(), 2, 3);
    EXPECT_TRUE(cache.compatibleWith(testModule(), 2, 3));
    EXPECT_FALSE(cache.compatibleWith(testModule(), 1, 1));

    CellParams other;
    other.seriesRes = 0.02;
    const PvModule different(SolarCell(other), 36, 1);
    EXPECT_FALSE(cache.compatibleWith(different, 2, 3));
}

TEST(MppCache, ClearResetsEntriesAndCounters)
{
    MppCache cache(testModule(), 1, 1);
    cache.mpp({500.0, 25.0});
    cache.mpp({500.0, 25.0});
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(MppCache, LookupBatchStatsAreSequentialEquivalent)
{
    // A batch mixing fresh keys, repeats (within and across batches)
    // and dark environments must count exactly like the per-element
    // mpp() loop: first occurrence of a key is a miss, repeats are
    // hits, dark lookups bypass the counters.
    const std::vector<Environment> envs = {
        {800.0, 40.0}, {300.0, 10.0}, {800.0, 40.0}, {0.0, 25.0},
        {950.0, 55.0}, {300.0, 10.0}, {0.0, -5.0},   {800.0, 40.0},
    };

    MppCache sequential(testModule(), 1, 1);
    for (const auto &env : envs)
        sequential.mpp(env);

    MppCache batched(testModule(), 1, 1);
    std::vector<MppResult> got(envs.size());
    batched.lookupBatch(envs, got);

    EXPECT_EQ(batched.stats().hits, sequential.stats().hits);
    EXPECT_EQ(batched.stats().misses, sequential.stats().misses);
    EXPECT_EQ(batched.size(), sequential.size());

    // The batch solve routes misses through the selected lane kernel
    // (the per-element path uses the analytic scalar solve), so
    // results agree to solver tolerance, not necessarily to the bit.
    MppCache oracle(testModule(), 1, 1);
    for (std::size_t i = 0; i < envs.size(); ++i) {
        const auto direct = oracle.mpp(envs[i]);
        EXPECT_NEAR(got[i].power, direct.power,
                    1e-9 * (1.0 + direct.power))
            << i;
        EXPECT_NEAR(got[i].voltage, direct.voltage,
                    1e-9 * (1.0 + direct.voltage))
            << i;
    }

    // Within one cache the memo is authoritative: replaying the batch
    // is all hits and bit-identical to the first pass.
    std::vector<MppResult> replay(envs.size());
    batched.lookupBatch(envs, replay);
    for (std::size_t i = 0; i < envs.size(); ++i) {
        EXPECT_EQ(replay[i].power, got[i].power) << i;
        EXPECT_EQ(replay[i].voltage, got[i].voltage) << i;
    }
    for (const auto &env : envs)
        sequential.mpp(env);
    EXPECT_EQ(batched.stats().hits, sequential.stats().hits);
    EXPECT_EQ(batched.stats().misses, sequential.stats().misses);
}

TEST(MppCache, LookupBatchIsDeterministicAcrossBatchShapes)
{
    // Same kernel path, different batch boundaries: feeding the
    // sequence one element at a time must land on the same bits as
    // one big batch (the memo, not the batch shape, owns the result).
    const std::vector<Environment> envs = {
        {800.0, 40.0}, {300.0, 10.0}, {800.0, 40.0},
        {950.0, 55.0}, {120.0, -2.0}, {300.0, 10.0},
    };
    MppCache whole(testModule(), 1, 1);
    std::vector<MppResult> batch(envs.size());
    whole.lookupBatch(envs, batch);

    MppCache stepwise(testModule(), 1, 1);
    std::vector<MppResult> single(envs.size());
    for (std::size_t i = 0; i < envs.size(); ++i)
        stepwise.lookupBatch(
            std::span<const Environment>(envs).subspan(i, 1),
            std::span<MppResult>(single).subspan(i, 1));

    for (std::size_t i = 0; i < envs.size(); ++i) {
        EXPECT_EQ(batch[i].voltage, single[i].voltage) << i;
        EXPECT_EQ(batch[i].current, single[i].current) << i;
        EXPECT_EQ(batch[i].power, single[i].power) << i;
    }
    EXPECT_EQ(whole.stats().hits, stepwise.stats().hits);
    EXPECT_EQ(whole.stats().misses, stepwise.stats().misses);
}

TEST(MppCache, LookupBatchConcurrentShardsMatchSequentialStats)
{
    // The day drivers give every pool thread its own cache and batch
    // the timestep lookups. Model that: N shards, each a private cache
    // draining its slice concurrently, must each land on the same
    // results and counters as a sequential per-element replay of that
    // slice.
    std::vector<Environment> envs;
    for (int i = 0; i < 48; ++i) {
        const double phase = static_cast<double>(i % 12);
        envs.push_back({100.0 + 75.0 * phase, 15.0 + 2.0 * phase});
    }

    constexpr std::size_t kShards = 4;
    const std::size_t per = envs.size() / kShards;
    std::vector<std::vector<MppResult>> got(
        kShards, std::vector<MppResult>(per));
    std::vector<MppCache> caches;
    caches.reserve(kShards);
    for (std::size_t s = 0; s < kShards; ++s)
        caches.emplace_back(testModule(), 1, 1);

    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kShards; ++s)
        threads.emplace_back([&, s] {
            caches[s].lookupBatch(
                std::span<const Environment>(envs).subspan(s * per, per),
                got[s]);
        });
    for (auto &t : threads)
        t.join();

    for (std::size_t s = 0; s < kShards; ++s) {
        // Bit-exact reference: the same slice through the same batch
        // path, single-threaded on a fresh cache.
        MppCache replay(testModule(), 1, 1);
        std::vector<MppResult> expected(per);
        replay.lookupBatch(
            std::span<const Environment>(envs).subspan(s * per, per),
            expected);
        for (std::size_t i = 0; i < per; ++i) {
            EXPECT_EQ(got[s][i].power, expected[i].power)
                << s << "/" << i;
            EXPECT_EQ(got[s][i].voltage, expected[i].voltage)
                << s << "/" << i;
        }

        // Counters: sequential-equivalent to the per-element loop.
        MppCache oracle(testModule(), 1, 1);
        for (std::size_t i = 0; i < per; ++i)
            oracle.mpp(envs[s * per + i]);
        EXPECT_EQ(caches[s].stats().hits, oracle.stats().hits) << s;
        EXPECT_EQ(caches[s].stats().misses, oracle.stats().misses) << s;
    }
}

} // namespace
} // namespace solarcore::pv
