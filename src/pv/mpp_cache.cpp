#include "mpp_cache.hpp"

#include <cmath>
#include <cstring>

#include "obs/profiler.hpp"
#include "pv/pv_kernel.hpp"
#include "util/logging.hpp"

namespace solarcore::pv {

namespace {

std::int64_t
quantize(double value, double quantum)
{
    if (quantum > 0.0)
        return static_cast<std::int64_t>(std::llround(value / quantum));
    // Exact mode: key on the bit pattern, so only identical doubles
    // collapse to one entry and cached results are bit-identical to
    // the uncached solve.
    std::int64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

} // namespace

MppCache::MppCache(const PvModule &module, int modules_series,
                   int modules_parallel, double g_quantum, double t_quantum)
    : array_(module, modules_series, modules_parallel, kStc),
      gQuantum_(g_quantum), tQuantum_(t_quantum)
{
    SC_ASSERT(g_quantum >= 0.0 && t_quantum >= 0.0,
              "MppCache: negative quantum");
}

MppCache::Key
MppCache::keyFor(const Environment &env) const
{
    return {quantize(env.irradiance, gQuantum_),
            quantize(env.cellTempC, tQuantum_)};
}

MppResult
MppCache::mpp(const Environment &env)
{
    SC_PROFILE_SCOPE("mpp.lookup");
    if (env.irradiance <= 0.0)
        return MppResult{}; // dark: not worth an entry

    const Key key = keyFor(env);
    const auto it = memo_.find(key);
    if (it != memo_.end()) {
        ++stats_.hits;
        return it->second;
    }
    ++stats_.misses;
    SC_PROFILE_SCOPE("mpp.solve");
    // Quantized mode solves at the bucket center so every environment
    // in the bucket maps to one consistent result.
    Environment solved = env;
    if (gQuantum_ > 0.0)
        solved.irradiance = static_cast<double>(key.g) * gQuantum_;
    if (tQuantum_ > 0.0)
        solved.cellTempC = static_cast<double>(key.t) * tQuantum_;
    array_.setEnvironment(solved);
    const MppResult res = findMpp(array_);
    memo_.emplace(key, res);
    return res;
}

void
MppCache::lookupBatch(std::span<const Environment> envs,
                      std::span<MppResult> out)
{
    SC_ASSERT(envs.size() == out.size(),
              "lookupBatch: span lengths differ");
    SC_PROFILE_SCOPE("mpp.lookupBatch");

    // Pass 1: classify each environment against the memo. emplace()'s
    // "inserted" bit distinguishes a genuine miss (first occurrence of
    // a never-memoized key) from a hit (memoized earlier, or a repeat
    // within this batch -- sequentially the repeat would have hit the
    // entry the first occurrence inserted).
    std::vector<Environment> solve_envs;
    std::vector<Key> solve_keys;
    for (const Environment &env : envs) {
        if (env.irradiance <= 0.0)
            continue; // dark: not worth an entry (as in mpp())
        const Key key = keyFor(env);
        const auto [it, inserted] = memo_.emplace(key, MppResult{});
        if (!inserted) {
            ++stats_.hits;
            continue;
        }
        ++stats_.misses;
        // Quantized mode solves at the bucket center, exactly as
        // mpp() does.
        Environment solved = env;
        if (gQuantum_ > 0.0)
            solved.irradiance = static_cast<double>(key.g) * gQuantum_;
        if (tQuantum_ > 0.0)
            solved.cellTempC = static_cast<double>(key.t) * tQuantum_;
        solve_envs.push_back(solved);
        solve_keys.push_back(key);
    }

    if (!solve_envs.empty()) {
        SC_PROFILE_SCOPE("mpp.solveBatch");
        std::vector<MppResult> solved(solve_envs.size());
        findMppBatch(array_.module(), array_.modulesSeries(),
                     array_.modulesParallel(), solve_envs, solved);
        for (std::size_t j = 0; j < solve_keys.size(); ++j)
            memo_[solve_keys[j]] = solved[j];
    }

    for (std::size_t k = 0; k < envs.size(); ++k) {
        if (envs[k].irradiance <= 0.0)
            out[k] = MppResult{};
        else
            out[k] = memo_.find(keyFor(envs[k]))->second;
    }
}

bool
MppCache::compatibleWith(const PvModule &module, int modules_series,
                         int modules_parallel) const
{
    return array_.modulesSeries() == modules_series &&
        array_.modulesParallel() == modules_parallel &&
        array_.module().cellsSeries() == module.cellsSeries() &&
        array_.module().stringsParallel() == module.stringsParallel() &&
        array_.module().cell().params() == module.cell().params();
}

void
MppCache::clear()
{
    memo_.clear();
    stats_ = Stats{};
}

} // namespace solarcore::pv
