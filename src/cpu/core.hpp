/**
 * @file
 * One simulated core: a benchmark instance advancing through its
 * phases, an assigned DVFS level (or power-gated state), and accessors
 * the power-management policies use to evaluate "what would this core
 * consume / deliver at level L" (the throughput-power ratio inputs of
 * paper Section 4.3).
 *
 * Estimate cache. An estimate depends only on (phase, level, die
 * temperature), yet the controller asks for it many times per step:
 * every totalPower() of a sustainability check, every TPR candidate,
 * every allocator choice. So each core keeps a lazily filled per-level
 * table of (PerfEstimate, PowerEstimate, throughput) for its current
 * phase and die temperature; a level is evaluated on first use, with
 * one perf evaluation shared by its power and its throughput. The
 * table is sized once, at construction, and cleared only when an
 * input changes: a phase advance inside step(), setDieTempC() with a
 * different value, and swapWorkloads() (both cores). setLevel() and
 * setGated() leave it alone -- they only pick which entry the
 * current-state accessors read. Cached values come from the same pure
 * model calls, so every result is bit-identical to an uncached
 * evaluation.
 *
 * Thread safety: the const accessors fill the cache, so one Core (and
 * hence one MultiCoreChip) must not be read from two threads at once.
 * Each simulated day owns its chip; no caller shares one across
 * threads.
 */

#ifndef SOLARCORE_CPU_CORE_HPP
#define SOLARCORE_CPU_CORE_HPP

#include <cstdint>
#include <vector>

#include "cpu/dvfs.hpp"
#include "cpu/perf_model.hpp"
#include "cpu/power_model.hpp"
#include "cpu/profile.hpp"
#include "util/random.hpp"

namespace solarcore::cpu {

/** A single core with a running benchmark and a DVFS state. */
class Core
{
  public:
    /**
     * @param id      core index within the chip
     * @param table   shared DVFS table (must outlive the core)
     * @param perf    shared performance model
     * @param power   shared power model
     * @param profile benchmark to run (copied; phase playback is
     *                per-core, offset by @p seed so identical programs
     *                on different cores decorrelate)
     * @param seed    deterministic phase-jitter seed
     */
    Core(int id, const DvfsTable &table, const PerfModel &perf,
         const PowerModel &power, BenchmarkProfile profile,
         std::uint64_t seed);

    int id() const { return id_; }
    const std::string &benchmarkName() const { return profile_.name; }
    const BenchmarkProfile &profile() const { return profile_; }

    /** Current DVFS level (0 = slowest). Meaningless while gated. */
    int level() const { return level_; }
    void setLevel(int level);

    bool gated() const { return gated_; }

    void
    setGated(bool gated)
    {
        if (gated != gated_)
            ++gateTransitions_;
        gated_ = gated;
    }

    /**
     * Lifetime state-change ledgers (the observability layer surfaces
     * them as chip.core.dvfsTransitions / .gateTransitions): every
     * effective level change and every gate/ungate, including steps a
     * tracking event applies and then reverts -- on hardware those are
     * real VID transitions too.
     */
    std::uint64_t dvfsTransitions() const { return dvfsTransitions_; }
    std::uint64_t gateTransitions() const { return gateTransitions_; }

    void
    setDieTempC(double t)
    {
        if (t != dieTempC_)
            valid_ = 0;
        dieTempC_ = t;
    }
    double dieTempC() const { return dieTempC_; }

    /** The phase the core is currently executing. */
    const PhaseProfile &currentPhase() const;

    /** Performance estimate at the current level and phase. */
    PerfEstimate perf() const;

    /** Power estimate at the current level and phase. */
    PowerEstimate power() const;

    /** Committed instructions per second at the current state. */
    double throughput() const;

    /** What-if queries used by the load-adaptation policies. */
    double powerAtLevel(int level) const;
    double throughputAtLevel(int level) const;

    /**
     * Advance wall-clock time: move the phase playback forward and
     * accumulate retired instructions and consumed energy at the
     * current operating point.
     */
    void step(double seconds);

    /**
     * Exchange the running programs of two cores (thread motion,
     * paper reference [36]): benchmark identity and phase playback
     * move with the program; DVFS state and the retirement/energy
     * ledgers stay with the core.
     */
    static void swapWorkloads(Core &a, Core &b);

    double instructionsRetired() const { return instructions_; }
    double energyJoules() const { return energy_; }

  private:
    /** One level's cached model outputs. */
    struct LevelEstimate
    {
        PerfEstimate perf;
        PowerEstimate power;
        double throughput = 0.0; //!< perf.throughput(level's frequency)
    };

    /** The (filled on demand) cache entry for @p level. */
    const LevelEstimate &estimate(int level) const;

    int id_;
    const DvfsTable *table_;
    const PerfModel *perfModel_;
    const PowerModel *powerModel_;
    BenchmarkProfile profile_;

    int level_ = 0;
    bool gated_ = false;
    double dieTempC_ = 50.0;
    std::uint64_t dvfsTransitions_ = 0;
    std::uint64_t gateTransitions_ = 0;

    std::size_t phaseIndex_ = 0;
    double phaseElapsed_ = 0.0;      //!< seconds into the current phase
    std::vector<double> phaseDur_;   //!< jittered per-phase durations

    double instructions_ = 0.0;
    double energy_ = 0.0;

    mutable std::vector<LevelEstimate> estimates_; //!< one per DVFS level
    mutable std::uint64_t valid_ = 0; //!< bit l set: estimates_[l] filled
};

} // namespace solarcore::cpu

#endif // SOLARCORE_CPU_CORE_HPP
