/**
 * @file
 * google-benchmark microbenchmarks of the hot components: the PV I-V
 * solve, MPP search, network operating-point solve, the performance /
 * power model evaluations, the DP allocator and a full simulated day.
 * These guard the simulation's throughput (the Figure 16-21 sweeps run
 * thousands of simulated days).
 */

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/bench_common.hpp"
#include "pv/pv_kernel.hpp"
#include "obs/auditor.hpp"
#include "obs/profiler.hpp"
#include "obs/stats_registry.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

using namespace solarcore;

namespace {

void
BM_CellCurrentSolve(benchmark::State &state)
{
    const auto &module = bench::standardModule();
    const pv::Environment env{800.0, 40.0};
    double v = 20.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(module.currentAt(v, env));
        v = v < 40.0 ? v + 0.1 : 20.0;
    }
}
BENCHMARK(BM_CellCurrentSolve);

void
BM_CellCurrentSolveNewton(benchmark::State &state)
{
    // The seed's damped-Newton solve over the same module voltages.
    const auto &module = bench::standardModule();
    const auto &cell = module.cell();
    const double cells = static_cast<double>(module.cellsSeries());
    const pv::Environment env{800.0, 40.0};
    double v = 20.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cell.currentAtNewton(v / cells, env));
        v = v < 40.0 ? v + 0.1 : 20.0;
    }
}
BENCHMARK(BM_CellCurrentSolveNewton);

void
BM_FindMpp(benchmark::State &state)
{
    const auto &module = bench::standardModule();
    pv::PvArray array(module, 1, 1, {800.0, 40.0});
    for (auto _ : state)
        benchmark::DoNotOptimize(pv::findMpp(array));
}
BENCHMARK(BM_FindMpp);

void
BM_FindMppCached(benchmark::State &state)
{
    // Replayed trace: the fixed-budget sweep re-solves the same
    // environment sequence once per workload x budget combination.
    const auto &module = bench::standardModule();
    pv::MppCache cache(module, 1, 1);
    const pv::Environment envs[] = {
        {200.0, 28.0}, {450.0, 34.0}, {700.0, 41.0}, {850.0, 46.0},
        {920.0, 49.0}, {700.0, 44.0}, {400.0, 36.0},
    };
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.mpp(envs[i]));
        i = (i + 1) % std::size(envs);
    }
}
BENCHMARK(BM_FindMppCached);

void
BM_PinRailVoltage(benchmark::State &state)
{
    const auto &module = bench::standardModule();
    pv::PvArray array(module, 1, 1, {800.0, 40.0});
    power::DcDcConverter conv;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            power::pinRailVoltage(array, conv, 12.0, 60.0));
}
BENCHMARK(BM_PinRailVoltage);

// --- batched SoA kernels (portable vs AVX2) -------------------------

/** A varied light-lane trace for the batch benches. */
std::vector<pv::Environment>
batchEnvTrace(std::size_t n)
{
    std::vector<pv::Environment> envs(n);
    for (std::size_t k = 0; k < n; ++k) {
        const double frac =
            static_cast<double>(k % 97) / 96.0; // co-prime stride
        envs[k] = {120.0 + 880.0 * frac, 18.0 + 32.0 * frac};
    }
    return envs;
}

void
runFindMppBatch(benchmark::State &state, pv::PvKernel kernel)
{
    if (!pv::pvKernelSupported(kernel)) {
        state.SkipWithError("kernel not supported on this machine");
        return;
    }
    const auto &module = bench::standardModule();
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto envs = batchEnvTrace(n);
    std::vector<pv::MppResult> out(n);
    const pv::PvKernel prev = pv::selectedPvKernel();
    pv::setPvKernel(kernel);
    for (auto _ : state) {
        pv::findMppBatch(module, 1, 1, envs, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    pv::setPvKernel(prev);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

void
BM_FindMppBatchPortable(benchmark::State &state)
{
    runFindMppBatch(state, pv::PvKernel::Portable);
}
BENCHMARK(BM_FindMppBatchPortable)->Arg(1024);

void
BM_FindMppBatchAvx2(benchmark::State &state)
{
    runFindMppBatch(state, pv::PvKernel::Avx2);
}
BENCHMARK(BM_FindMppBatchAvx2)->Arg(1024);

void
runEvalIvBatch(benchmark::State &state, pv::PvKernel kernel)
{
    if (!pv::pvKernelSupported(kernel)) {
        state.SkipWithError("kernel not supported on this machine");
        return;
    }
    const auto &cell = bench::standardModule().cell();
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto envs = batchEnvTrace(n);
    std::vector<double> volts(n);
    for (std::size_t k = 0; k < n; ++k)
        volts[k] = 0.30 + 0.25 * static_cast<double>(k % 11) / 10.0;
    std::vector<pv::IvOut> out(n);
    const pv::PvKernel prev = pv::selectedPvKernel();
    pv::setPvKernel(kernel);
    for (auto _ : state) {
        pv::evalIv(cell, envs, volts, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    pv::setPvKernel(prev);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

void
BM_EvalIvBatchPortable(benchmark::State &state)
{
    runEvalIvBatch(state, pv::PvKernel::Portable);
}
BENCHMARK(BM_EvalIvBatchPortable)->Arg(1024);

void
BM_EvalIvBatchAvx2(benchmark::State &state)
{
    runEvalIvBatch(state, pv::PvKernel::Avx2);
}
BENCHMARK(BM_EvalIvBatchAvx2)->Arg(1024);

void
BM_MppCacheLookupBatch(benchmark::State &state)
{
    // Steady-state batched replay: 7 distinct conditions, as in the
    // per-call BM_FindMppCached, batched 64 at a time.
    const auto &module = bench::standardModule();
    pv::MppCache cache(module, 1, 1);
    std::vector<pv::Environment> envs(64);
    const auto trace = batchEnvTrace(7);
    for (std::size_t k = 0; k < envs.size(); ++k)
        envs[k] = trace[k % trace.size()];
    std::vector<pv::MppResult> out(envs.size());
    for (auto _ : state) {
        cache.lookupBatch(envs, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(envs.size()));
}
BENCHMARK(BM_MppCacheLookupBatch);

void
BM_PinRailVoltagePrepared(benchmark::State &state)
{
    // The controller fast path: warm Newton on a prepared environment
    // (compare against BM_PinRailVoltage, the findMpp + bisect path).
    const auto &module = bench::standardModule();
    pv::PreparedArray prepared(module, 1, 1);
    prepared.setEnvironment({800.0, 40.0});
    power::DcDcConverter conv;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            power::pinRailVoltage(prepared, conv, 12.0, 60.0));
}
BENCHMARK(BM_PinRailVoltagePrepared);

void
BM_PerfModelEvaluate(benchmark::State &state)
{
    const cpu::PerfModel model{cpu::CoreConfig{}};
    const auto profile = workload::benchmark("gcc");
    for (auto _ : state)
        benchmark::DoNotOptimize(
            model.evaluate(profile.phases.front(), 2.5e9));
}
BENCHMARK(BM_PerfModelEvaluate);

void
BM_PowerModelEvaluate(benchmark::State &state)
{
    const cpu::PerfModel perf{cpu::CoreConfig{}};
    const cpu::PowerModel power{cpu::EnergyParams{}};
    const auto profile = workload::benchmark("gcc");
    const auto pe = perf.evaluate(profile.phases.front(), 2.5e9);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            power.evaluate(profile.phases.front(), pe, 1.45, 2.5e9));
}
BENCHMARK(BM_PowerModelEvaluate);

/** The HM2 chip's maxPower() is 167.7 W, so every budget here binds;
 *  63 W is about the mean allocation budget of the `full` preset. */
void
BM_DpAllocator(benchmark::State &state)
{
    cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                            cpu::DvfsTable::paperDefault(),
                            cpu::EnergyParams{},
                            workload::workloadSet(workload::WorkloadId::HM2),
                            1);
    const double budget = static_cast<double>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(core::optimizeAllocation(chip, budget));
}
BENCHMARK(BM_DpAllocator)->Arg(25)->Arg(63)->Arg(100)->Arg(150);

void
BM_ControllerTrack(benchmark::State &state)
{
    const auto &module = bench::standardModule();
    pv::PvArray array(module, 1, 1, {800.0, 40.0});
    cpu::MultiCoreChip chip(cpu::defaultChipConfig(),
                            cpu::DvfsTable::paperDefault(),
                            cpu::EnergyParams{},
                            workload::workloadSet(workload::WorkloadId::HM2),
                            1);
    core::TprOptAdapter adapter;
    core::SolarCoreController ctl(array, chip, adapter);
    for (auto _ : state) {
        chip.gateAll();
        benchmark::DoNotOptimize(ctl.track());
    }
}
BENCHMARK(BM_ControllerTrack);

void
BM_SimulatedDay(benchmark::State &state)
{
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0))));
    }
}
BENCHMARK(BM_SimulatedDay)->Arg(60)->Arg(30)->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayCached(benchmark::State &state)
{
    // Cross-day memo shared across repetitions, as in the sweeps.
    pv::MppCache cache(bench::standardModule(), 1, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0)), &cache));
    }
}
BENCHMARK(BM_SimulatedDayCached)
    ->Arg(60)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

void
BM_StatScalarIncrement(benchmark::State &state)
{
    // The registry hot path: a double add on a reference obtained once
    // at registration time (the registry map is never touched again).
    obs::StatsRegistry reg;
    auto &counter = reg.scalar("chip.core0.dvfsTransitions");
    for (auto _ : state) {
        ++counter;
        benchmark::DoNotOptimize(&counter);
    }
}
BENCHMARK(BM_StatScalarIncrement);

void
BM_TraceAppendEnabled(benchmark::State &state)
{
    // One ring-buffer append: stamp, store, advance.
    obs::TraceBuffer buf(1 << 16);
    buf.setNow(720.0);
    obs::TraceEvent e;
    e.kind = obs::EventKind::DvfsChange;
    e.core = 3;
    e.i0 = 4;
    e.i1 = 5;
    e.v0 = 5.2;
    for (auto _ : state) {
        buf.emit(e);
        benchmark::DoNotOptimize(&buf);
    }
}
BENCHMARK(BM_TraceAppendEnabled);

void
BM_TraceAppendDisabled(benchmark::State &state)
{
    // The disabled-sink pattern every emitter uses: a null check and
    // nothing else. This is the cost tracing adds when off.
    obs::TraceBuffer *trace = nullptr;
    benchmark::DoNotOptimize(trace);
    obs::TraceEvent e;
    e.kind = obs::EventKind::DvfsChange;
    for (auto _ : state) {
        if (trace)
            trace->emit(e);
        benchmark::DoNotOptimize(&e);
    }
}
BENCHMARK(BM_TraceAppendDisabled);

void
BM_TelemetrySampleStep(benchmark::State &state)
{
    // One recorded waveform step of a representative channel set:
    // begin, ten sets, commit. The per-step cost of --telemetry-out.
    obs::TelemetryRecorder rec;
    obs::TelemetryRecorder::ChannelId ids[10];
    for (int c = 0; c < 10; ++c)
        ids[c] = rec.channel("ch" + std::to_string(c), "W");
    double minute = 0.0;
    for (auto _ : state) {
        rec.beginStep(minute);
        for (int c = 0; c < 10; ++c)
            rec.set(ids[c], minute + c);
        rec.endStep();
        minute += 0.25;
        if (rec.rowCount() >= (1u << 16))
            rec.clear(); // bound memory; channels stay registered
    }
}
BENCHMARK(BM_TelemetrySampleStep);

void
BM_ProfileScopeDetached(benchmark::State &state)
{
    // SC_PROFILE_SCOPE with no profiler attached: one thread-local
    // load and a branch. This is what the scopes embedded in the I-V
    // solve / MPP cache / TPR allocator cost in every normal run.
    for (auto _ : state) {
        SC_PROFILE_SCOPE("detached");
        benchmark::DoNotOptimize(&state);
    }
}
BENCHMARK(BM_ProfileScopeDetached);

void
BM_ProfileScopeAttached(benchmark::State &state)
{
    // The attached cost: two clock reads plus a map walk on the first
    // visit (amortized to a pointer chase afterwards).
    obs::Profiler profiler;
    obs::Profiler::Attach attach(&profiler);
    for (auto _ : state) {
        SC_PROFILE_SCOPE("attached");
        benchmark::DoNotOptimize(&state);
    }
}
BENCHMARK(BM_ProfileScopeAttached);

void
BM_AuditorCheckStep(benchmark::State &state)
{
    // One audited step's worth of passing checks in counting mode.
    obs::Auditor audit;
    double drawn = 60.0;
    for (auto _ : state) {
        audit.setNow(720.0);
        audit.countStep();
        audit.checkBudget(drawn, 75.0, "bench");
        audit.checkRailVoltage(12.0, 12.0, "bench");
        audit.checkSocRange(0.5, "bench");
        benchmark::DoNotOptimize(&audit);
        drawn = drawn > 70.0 ? 60.0 : drawn + 0.01;
    }
}
BENCHMARK(BM_AuditorCheckStep);

void
BM_SimulatedDayObsOff(benchmark::State &state)
{
    // Observability compiled in and constructed but not attached: the
    // simulation sees null sinks. run_microbench.sh asserts this stays
    // within 1% of BM_SimulatedDay (no obs objects at all).
    obs::StatsRegistry reg;
    obs::TraceBuffer buf(1 << 16);
    benchmark::DoNotOptimize(&reg);
    benchmark::DoNotOptimize(&buf);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0))));
    }
}
BENCHMARK(BM_SimulatedDayObsOff)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayTraced(benchmark::State &state)
{
    // Full observability: stats registry plus event trace attached.
    obs::StatsRegistry reg;
    obs::TraceBuffer buf(1 << 16);
    for (auto _ : state) {
        buf.clear();
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0)), nullptr,
                          &reg, &buf));
    }
}
BENCHMARK(BM_SimulatedDayTraced)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayTelemetry(benchmark::State &state)
{
    // Waveform recording attached: every step samples the full
    // channel superset (panel, converter, rail, chip, per-core).
    obs::TelemetryRecorder rec;
    for (auto _ : state) {
        rec.clear();
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0)), nullptr,
                          nullptr, nullptr, &rec));
    }
}
BENCHMARK(BM_SimulatedDayTelemetry)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayProfiled(benchmark::State &state)
{
    // Self-profiler attached: every embedded scope takes two clock
    // reads instead of the detached null-check.
    obs::Profiler profiler;
    obs::Profiler::Attach attach(&profiler);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0))));
    }
}
BENCHMARK(BM_SimulatedDayProfiled)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_SimulatedDayAudited(benchmark::State &state)
{
    // Invariant auditor in counting mode: the per-step physics checks
    // (budget, rail, panel point, per-core DVFS legality).
    for (auto _ : state) {
        obs::Auditor audit;
        benchmark::DoNotOptimize(
            bench::runDay(solar::SiteId::AZ, solar::Month::Apr,
                          workload::WorkloadId::HM2,
                          core::PolicyKind::MpptOpt, 75.0, false,
                          static_cast<double>(state.range(0)), nullptr,
                          nullptr, nullptr, nullptr, &audit));
    }
}
BENCHMARK(BM_SimulatedDayAudited)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);

void
BM_TrackingSweepParallel(benchmark::State &state)
{
    // The fig13/fig14 policy sweep body: three tracked days dispatched
    // through the worker pool (thread count = benchmark argument).
    const int threads = static_cast<int>(state.range(0));
    const auto policies = {core::PolicyKind::MpptOpt,
                           core::PolicyKind::MpptIc,
                           core::PolicyKind::MpptRr};
    for (auto _ : state) {
        ThreadPool pool(threads);
        std::vector<core::DayResult> results(policies.size());
        std::vector<pv::MppCache> caches;
        caches.reserve(policies.size());
        for (std::size_t i = 0; i < policies.size(); ++i)
            caches.emplace_back(bench::standardModule(), 1, 1);
        pool.parallelFor(policies.size(), [&](std::size_t i) {
            results[i] = bench::runDay(
                solar::SiteId::AZ, solar::Month::Jan,
                workload::WorkloadId::HM2, *(policies.begin() + i), 75.0,
                false, 60.0, &caches[i]);
        });
        benchmark::DoNotOptimize(results.data());
    }
}
BENCHMARK(BM_TrackingSweepParallel)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
