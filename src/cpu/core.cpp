#include "core.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"

namespace solarcore::cpu {

Core::Core(int id, const DvfsTable &table, const PerfModel &perf,
           const PowerModel &power, BenchmarkProfile profile,
           std::uint64_t seed)
    : id_(id), table_(&table), perfModel_(&perf), powerModel_(&power),
      profile_(std::move(profile)), level_(table.maxLevel())
{
    SC_ASSERT(!profile_.phases.empty(), "Core: benchmark has no phases");
    SC_ASSERT(table.numLevels() <= 64,
              "Core: the estimate cache's valid mask holds 64 levels, got ",
              table.numLevels());
    estimates_.resize(static_cast<std::size_t>(table.numLevels()));

    // Jitter phase durations +-20% and start at a random point of the
    // playback so co-scheduled copies of one program decorrelate.
    Rng rng(seed);
    Rng jitter = rng.fork(static_cast<std::uint64_t>(id) + 17);
    phaseDur_.reserve(profile_.phases.size());
    double total = 0.0;
    for (const auto &ph : profile_.phases) {
        const double d = ph.durationSec * jitter.uniform(0.8, 1.2);
        phaseDur_.push_back(d);
        total += d;
    }
    double offset = jitter.uniform(0.0, total);
    while (offset > phaseDur_[phaseIndex_]) {
        offset -= phaseDur_[phaseIndex_];
        phaseIndex_ = (phaseIndex_ + 1) % phaseDur_.size();
    }
    phaseElapsed_ = offset;
}

void
Core::setLevel(int level)
{
    SC_ASSERT(level >= table_->minLevel() && level <= table_->maxLevel(),
              "Core::setLevel: level out of range: ", level);
    if (level != level_)
        ++dvfsTransitions_;
    level_ = level;
}

const PhaseProfile &
Core::currentPhase() const
{
    return profile_.phases[phaseIndex_];
}

const Core::LevelEstimate &
Core::estimate(int level) const
{
    SC_ASSERT(level >= 0 && level < table_->numLevels(),
              "Core: level out of range: ", level);
    LevelEstimate &e = estimates_[static_cast<std::size_t>(level)];
    const std::uint64_t bit = std::uint64_t{1} << level;
    if (!(valid_ & bit)) {
        const double f = table_->frequency(level);
        e.perf = perfModel_->evaluate(currentPhase(), f);
        e.power = powerModel_->evaluate(currentPhase(), e.perf,
                                        table_->voltage(level), f,
                                        dieTempC_);
        e.throughput = e.perf.throughput(f);
        valid_ |= bit;
    }
    return e;
}

PerfEstimate
Core::perf() const
{
    if (gated_)
        return PerfEstimate{};
    return estimate(level_).perf;
}

PowerEstimate
Core::power() const
{
    if (gated_)
        return powerModel_->gatedPower();
    return estimate(level_).power;
}

double
Core::throughput() const
{
    if (gated_)
        return 0.0;
    return estimate(level_).throughput;
}

double
Core::powerAtLevel(int level) const
{
    return estimate(level).power.totalW();
}

double
Core::throughputAtLevel(int level) const
{
    return estimate(level).throughput;
}

void
Core::step(double seconds)
{
    SC_ASSERT(seconds >= 0.0, "Core::step: negative time");
    double remaining = seconds;
    while (remaining > 0.0) {
        const double in_phase =
            std::min(remaining, phaseDur_[phaseIndex_] - phaseElapsed_);
        if (!gated_) {
            const LevelEstimate &e = estimate(level_);
            instructions_ += e.throughput * in_phase;
            energy_ += e.power.totalW() * in_phase;
        } else {
            energy_ += powerModel_->gatedPower().totalW() * in_phase;
        }
        phaseElapsed_ += in_phase;
        remaining -= in_phase;
        if (phaseElapsed_ >= phaseDur_[phaseIndex_] - 1e-12) {
            phaseElapsed_ = 0.0;
            phaseIndex_ = (phaseIndex_ + 1) % phaseDur_.size();
            valid_ = 0;
        }
    }
}

void
Core::swapWorkloads(Core &a, Core &b)
{
    std::swap(a.profile_, b.profile_);
    std::swap(a.phaseDur_, b.phaseDur_);
    std::swap(a.phaseIndex_, b.phaseIndex_);
    std::swap(a.phaseElapsed_, b.phaseElapsed_);
    a.valid_ = 0;
    b.valid_ = 0;
}

} // namespace solarcore::cpu
