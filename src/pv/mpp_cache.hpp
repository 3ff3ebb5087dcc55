/**
 * @file
 * Environment-keyed memoization of maximum-power-point solves.
 *
 * The figure sweeps replay the same irradiance/temperature trace for
 * many workloads and budgets, so the per-timestep findMpp calls repeat
 * identical (G, T) environments tens of times. MppCache memoizes the
 * analytic MPP per (optionally quantized) environment key.
 */

#ifndef SOLARCORE_PV_MPP_CACHE_HPP
#define SOLARCORE_PV_MPP_CACHE_HPP

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "pv/mpp.hpp"

namespace solarcore::pv {

/**
 * Memoized MPP solver for one fixed array arrangement.
 *
 * Keys are the raw bit patterns of (G, T) by default (hits only on
 * exactly repeated environments -- no accuracy change whatsoever), or
 * quantized to (g_quantum, t_quantum) buckets when a controlled
 * accuracy/hit-rate trade is wanted. Not thread-safe; use one cache
 * per worker (the sweep driver does).
 */
class MppCache
{
  public:
    /** Hit/miss counters for tests, benchmarks and the stats registry. */
    struct Stats
    {
        std::size_t hits = 0;
        std::size_t misses = 0;

        std::size_t lookups() const { return hits + misses; }

        /** Hit fraction in [0, 1]; 0 before the first lookup. */
        double
        hitRate() const
        {
            const std::size_t n = lookups();
            return n ? static_cast<double>(hits) /
                    static_cast<double>(n)
                     : 0.0;
        }
    };

    MppCache(const PvModule &module, int modules_series,
             int modules_parallel, double g_quantum = 0.0,
             double t_quantum = 0.0);

    /** The MPP at @p env: memo lookup, analytic solve on miss. */
    MppResult mpp(const Environment &env);

    /**
     * Batched lookup: out[k] = the MPP at envs[k], with every miss in
     * the batch gathered and solved through one findMppBatch call on
     * the selected lane kernel. Hit/miss counters and memo keys are
     * sequential-equivalent to calling mpp() per element in order
     * (first occurrence of a new key counts a miss, repeats count
     * hits, dark environments bypass the memo and the counters); the
     * solved MPPs agree with mpp()'s per-call solve, the tests'
     * oracle, within the batch kernel's ~1e-12 relative tolerance.
     */
    void lookupBatch(std::span<const Environment> envs,
                     std::span<MppResult> out);

    /** True if the cache was built for this module and arrangement. */
    bool compatibleWith(const PvModule &module, int modules_series,
                        int modules_parallel) const;

    void clear();
    std::size_t size() const { return memo_.size(); }
    const Stats &stats() const { return stats_; }

  private:
    struct Key
    {
        std::int64_t g = 0;
        std::int64_t t = 0;

        bool operator==(const Key &) const = default;
    };
    struct KeyHash
    {
        std::size_t operator()(const Key &k) const
        {
            // splitmix-style mix of both halves; equality is exact, so
            // collisions only cost a probe, never a wrong result.
            std::uint64_t h = static_cast<std::uint64_t>(k.g);
            h ^= static_cast<std::uint64_t>(k.t) + 0x9e3779b97f4a7c15ULL +
                (h << 6) + (h >> 2);
            return static_cast<std::size_t>(h * 0xbf58476d1ce4e5b9ULL);
        }
    };

    Key keyFor(const Environment &env) const;

    PvArray array_;
    double gQuantum_;
    double tQuantum_;
    std::unordered_map<Key, MppResult, KeyHash> memo_;
    Stats stats_;
};

} // namespace solarcore::pv

#endif // SOLARCORE_PV_MPP_CACHE_HPP
