/**
 * @file
 * Parity, determinism and routing tests for the batched SoA PV kernels
 * (pv/pv_kernel.hpp). The oracles are direct calls to the per-call
 * path: SolarCell::currentAt / currentSlopeAt, findMpp(PvArray), a
 * MppCache::mpp() loop and the IvSource pinRailVoltage overload.
 *
 * The numeric contract: the batch kernels agree with the per-call
 * Lambert-W path to ~1e-12 relative (far inside the golden-baseline
 * tolerances), dark lanes and Rs = 0 cells route through the *exact*
 * per-call formulas (bitwise), and lane math is elementwise with fixed
 * iteration counts, so results are bitwise independent of batch size,
 * lane position and tail padding.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "pv/cell.hpp"
#include "power/operating_point.hpp"
#include "pv/bp3180n.hpp"
#include "pv/mpp.hpp"
#include "pv/mpp_cache.hpp"
#include "pv/pv_kernel.hpp"
#include "pv/shading.hpp"
#include "workload/multiprogram.hpp"

namespace solarcore::pv {
namespace {

/** Restore the process-wide kernel selection on scope exit. */
struct KernelGuard
{
    PvKernel saved = selectedPvKernel();
    ~KernelGuard() { setPvKernel(saved); }
};

/** Every batch kernel the running machine can execute. */
std::vector<PvKernel>
batchKernels()
{
    std::vector<PvKernel> kernels = {PvKernel::Portable};
    if (pvKernelSupported(PvKernel::Avx2))
        kernels.push_back(PvKernel::Avx2);
    return kernels;
}

const PvModule &
testModule()
{
    static const PvModule m = buildBp3180n();
    return m;
}

/** The full (G, T) test grid, dark lanes included. */
std::vector<Environment>
envGrid()
{
    std::vector<Environment> envs;
    for (double g : {-10.0, 0.0, 1.0, 25.0, 150.0, 480.0, 725.0, 1000.0,
                     1100.0})
        for (double t : {-10.0, 0.0, 25.0, 45.0, 70.0})
            envs.push_back({g, t});
    return envs;
}

double
relDiff(double a, double b)
{
    const double scale = std::max({std::abs(a), std::abs(b), 1e-12});
    return std::abs(a - b) / scale;
}

/** |a - b| <= rtol * max(|a|, |b|) + atol, with a useful message. */
::testing::AssertionResult
near(double a, double b, double rtol, double atol)
{
    const double bound =
        rtol * std::max(std::abs(a), std::abs(b)) + atol;
    if (std::abs(a - b) <= bound)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << a << " vs " << b << " (|diff| " << std::abs(a - b)
        << " > bound " << bound << ")";
}

TEST(PvKernel, TokensRoundTripAndDetectIsSupported)
{
    for (PvKernel k : {PvKernel::Portable, PvKernel::Avx2}) {
        PvKernel parsed;
        ASSERT_TRUE(pvKernelFromToken(pvKernelName(k), parsed));
        EXPECT_EQ(parsed, k);
    }
    PvKernel parsed;
    EXPECT_FALSE(pvKernelFromToken("auto", parsed));
    EXPECT_FALSE(pvKernelFromToken("scalar", parsed));
    EXPECT_FALSE(pvKernelFromToken("sse9", parsed));
    EXPECT_TRUE(pvKernelSupported(detectPvKernel()));
}

TEST(PvKernel, ResolveAcceptsAutoAndSupportedKernelsOnly)
{
    PvKernel k = PvKernel::Portable;
    ASSERT_TRUE(resolvePvKernel("auto", k));
    EXPECT_EQ(k, detectPvKernel());
    ASSERT_TRUE(resolvePvKernel("portable", k));
    EXPECT_EQ(k, PvKernel::Portable);
    EXPECT_EQ(resolvePvKernel("avx2", k),
              pvKernelSupported(PvKernel::Avx2));

    // A rejected token leaves the output untouched.
    k = PvKernel::Portable;
    EXPECT_FALSE(resolvePvKernel("scalar", k));
    EXPECT_FALSE(resolvePvKernel("", k));
    EXPECT_FALSE(resolvePvKernel("AUTO", k));
    EXPECT_EQ(k, PvKernel::Portable);
}

TEST(PvKernel, EvalIvMatchesScalarAcrossGrid)
{
    KernelGuard guard;
    const SolarCell &cell = testModule().cell();

    // The whole grid, dark lanes interleaved with lit ones, as one
    // batch.
    std::vector<Environment> envs;
    std::vector<double> volts;
    for (const auto &env : envGrid()) {
        const double voc = cell.openCircuitVoltage(env);
        for (double frac : {0.0, 0.3, 0.6, 0.85, 0.95, 1.0}) {
            envs.push_back(env);
            volts.push_back(frac * std::max(voc, 0.4));
        }
    }

    for (PvKernel kernel : batchKernels()) {
        setPvKernel(kernel);
        std::vector<IvOut> out(envs.size());
        evalIv(cell, envs, volts, out);
        for (std::size_t k = 0; k < envs.size(); ++k) {
            const Environment &env = envs[k];
            const double i_ref = cell.currentAt(volts[k], env);
            const double di_ref = cell.currentSlopeAt(volts[k], env);
            if (env.irradiance <= 0.0) {
                // Dark lanes take the exact per-call formula.
                EXPECT_EQ(out[k].current, i_ref);
                EXPECT_EQ(out[k].slope, di_ref);
            } else {
                EXPECT_TRUE(near(out[k].current, i_ref, 1e-9, 1e-12))
                    << pvKernelName(kernel) << " G=" << env.irradiance
                    << " T=" << env.cellTempC << " v=" << volts[k];
                EXPECT_TRUE(near(out[k].slope, di_ref, 1e-9, 1e-12))
                    << pvKernelName(kernel) << " G=" << env.irradiance
                    << " T=" << env.cellTempC << " v=" << volts[k];
            }
        }
    }
}

TEST(PvKernel, EvalIvRsZeroRoutesToExactScalarFormula)
{
    KernelGuard guard;
    CellParams p;
    p.seriesRes = 0.0;
    const SolarCell cell(p);
    const Environment env{850.0, 40.0};
    const double v = 0.4;

    for (PvKernel kernel : batchKernels()) {
        setPvKernel(kernel);
        const Environment es[1] = {env};
        const double vs[1] = {v};
        IvOut out[1];
        evalIv(cell, es, vs, out);
        EXPECT_EQ(out[0].current, cell.currentAt(v, env));
        EXPECT_EQ(out[0].slope, cell.currentSlopeAt(v, env));
    }
}

TEST(PvKernel, FindMppBatchMatchesScalarOracleAcrossGrid)
{
    KernelGuard guard;
    const auto envs = envGrid();

    PvArray array(testModule(), 2, 3, kStc);
    std::vector<MppResult> oracle;
    for (const auto &env : envs) {
        array.setEnvironment(env);
        oracle.push_back(findMpp(array));
    }

    for (PvKernel kernel : batchKernels()) {
        setPvKernel(kernel);
        std::vector<MppResult> got(envs.size());
        findMppBatch(testModule(), 2, 3, envs, got);
        for (std::size_t k = 0; k < envs.size(); ++k) {
            if (envs[k].irradiance <= 0.0) {
                EXPECT_EQ(got[k].power, 0.0);
                EXPECT_EQ(got[k].current, 0.0);
                continue;
            }
            EXPECT_TRUE(near(got[k].voltage, oracle[k].voltage, 1e-9,
                             1e-12))
                << pvKernelName(kernel) << " G=" << envs[k].irradiance
                << " T=" << envs[k].cellTempC;
            EXPECT_TRUE(
                near(got[k].current, oracle[k].current, 1e-9, 1e-12));
            EXPECT_TRUE(near(got[k].power, oracle[k].power, 1e-9, 1e-12));
        }
    }
}

TEST(PvKernel, BatchResultsIndependentOfBatchSize)
{
    KernelGuard guard;
    // 17 lanes: exercises every remainder class of the 4-wide AVX2
    // groups and the 128-lane chunking is untouched.
    std::vector<Environment> envs;
    for (int k = 0; k < 17; ++k)
        envs.push_back({40.0 + 60.0 * k, -5.0 + 4.5 * k});

    for (PvKernel kernel : batchKernels()) {
        setPvKernel(kernel);
        std::vector<MppResult> whole(envs.size());
        findMppBatch(testModule(), 1, 1, envs, whole);

        for (std::size_t chunk : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{5},
                                  std::size_t{8}, std::size_t{16}}) {
            std::vector<MppResult> pieces(envs.size());
            for (std::size_t base = 0; base < envs.size(); base += chunk) {
                const std::size_t m =
                    std::min(chunk, envs.size() - base);
                findMppBatch(testModule(), 1, 1,
                             std::span(envs).subspan(base, m),
                             std::span(pieces).subspan(base, m));
            }
            for (std::size_t k = 0; k < envs.size(); ++k) {
                EXPECT_EQ(pieces[k].voltage, whole[k].voltage)
                    << pvKernelName(kernel) << " chunk=" << chunk
                    << " lane=" << k;
                EXPECT_EQ(pieces[k].current, whole[k].current);
            }
        }

        // The same property for the I-V evaluation, odd tail included.
        std::vector<double> volts(envs.size(), 0.45);
        std::vector<IvOut> whole_iv(envs.size());
        evalIv(testModule().cell(), envs, volts, whole_iv);
        std::vector<IvOut> one(1);
        for (std::size_t k = 0; k < envs.size(); ++k) {
            evalIv(testModule().cell(),
                   std::span(envs).subspan(k, 1),
                   std::span(volts).subspan(k, 1), one);
            EXPECT_EQ(one[0].current, whole_iv[k].current)
                << pvKernelName(kernel) << " lane=" << k << " "
                << std::hexfloat << one[0].current << " vs "
                << whole_iv[k].current << std::defaultfloat;
            EXPECT_EQ(one[0].slope, whole_iv[k].slope)
                << pvKernelName(kernel) << " lane=" << k;
        }
    }
}

TEST(PvKernel, LookupBatchIsSequentialEquivalent)
{
    KernelGuard guard;
    // Repeats, a dark lane and an odd length, quantized and exact keys.
    std::vector<Environment> envs = {
        {800.0, 40.0}, {600.0, 30.0}, {800.0, 40.0}, {0.0, 20.0},
        {600.0, 30.0}, {801.0, 40.0}, {800.0, 40.0},
    };

    for (PvKernel kernel : batchKernels()) {
        setPvKernel(kernel);
        for (double quantum : {0.0, 5.0}) {
            MppCache seq(testModule(), 1, 1, quantum);
            MppCache bat(testModule(), 1, 1, quantum);

            std::vector<MppResult> want;
            for (const auto &env : envs)
                want.push_back(seq.mpp(env));
            std::vector<MppResult> got(envs.size());
            bat.lookupBatch(envs, got);

            EXPECT_EQ(bat.stats().hits, seq.stats().hits)
                << pvKernelName(kernel) << " q=" << quantum;
            EXPECT_EQ(bat.stats().misses, seq.stats().misses);
            EXPECT_EQ(bat.size(), seq.size());
            for (std::size_t k = 0; k < envs.size(); ++k) {
                EXPECT_TRUE(near(got[k].voltage, want[k].voltage, 1e-9,
                                 1e-12))
                    << pvKernelName(kernel) << " lane " << k;
                EXPECT_TRUE(near(got[k].power, want[k].power, 1e-9, 1e-12))
                    << pvKernelName(kernel) << " lane " << k;
            }

            // A second pass over the same batch must be pure hits.
            const auto misses_before = bat.stats().misses;
            bat.lookupBatch(envs, got);
            EXPECT_EQ(bat.stats().misses, misses_before);
        }
    }
}

TEST(PvKernel, PreparedArrayMatchesPvArray)
{
    KernelGuard guard;
    setPvKernel(PvKernel::Portable);
    PvArray array(testModule(), 2, 2, kStc);
    PreparedArray prepared(testModule(), 2, 2);

    for (const auto &env : envGrid()) {
        array.setEnvironment(env);
        prepared.setEnvironment(env);

        // The MPP and feasibility threshold are bitwise legacy.
        const MppResult want = findMpp(array);
        EXPECT_EQ(prepared.mpp().voltage, want.voltage);
        EXPECT_EQ(prepared.mpp().current, want.current);
        EXPECT_EQ(prepared.mpp().power, want.power);
        EXPECT_EQ(prepared.dark(), env.irradiance <= 0.0);

        const double voc = array.openCircuitVoltage();
        for (double frac : {0.0, 0.4, 0.8, 0.97}) {
            const double v = frac * std::max(voc, 1.0);
            EXPECT_TRUE(near(prepared.currentAt(v), array.currentAt(v),
                             1e-12, 1e-12))
                << "G=" << env.irradiance << " T=" << env.cellTempC
                << " v=" << v;
        }
    }
}

TEST(PvKernel, PinRailPreparedMatchesLegacyPin)
{
    KernelGuard guard;
    setPvKernel(PvKernel::Portable);
    PvArray array(testModule(), 1, 1, kStc);
    PreparedArray prepared(testModule(), 1, 1);

    for (const auto &env : envGrid()) {
        array.setEnvironment(env);
        prepared.setEnvironment(env);
        const double pmpp = findMpp(array).power;
        for (double frac : {0.15, 0.5, 0.9, 0.99, 1.01, 2.0}) {
            const double demand = frac * std::max(pmpp, 1.0);
            power::DcDcConverter conv_a(0.5, 8.0, 0.95);
            power::DcDcConverter conv_b(0.5, 8.0, 0.95);
            const auto legacy =
                power::pinRailVoltage(array, conv_a, 12.0, demand);
            const auto fast =
                power::pinRailVoltage(prepared, conv_b, 12.0, demand);

            ASSERT_EQ(fast.valid, legacy.valid)
                << "G=" << env.irradiance << " T=" << env.cellTempC
                << " demand=" << demand;
            if (!legacy.valid)
                continue;
            EXPECT_LT(relDiff(fast.panel.voltage, legacy.panel.voltage),
                      1e-6);
            EXPECT_LT(relDiff(fast.panel.current, legacy.panel.current),
                      1e-6);
            EXPECT_LT(relDiff(conv_b.ratio(), conv_a.ratio()), 1e-6);
            EXPECT_EQ(fast.load.voltage, legacy.load.voltage);
            EXPECT_EQ(fast.load.current, legacy.load.current);
        }
    }
}

TEST(PvKernel, ShadedStringKeepsTheLegacyControllerPath)
{
    // A non-uniform source can never take the PreparedArray fast path
    // (partial shading breaks the single-diode closed form), so a
    // controller driving a ShadedString must settle on exactly the
    // state the generic IvSource pin computes for its final demand,
    // under every kernel selection.
    KernelGuard guard;
    const std::vector<Environment> conditions = {{900.0, 45.0},
                                                 {250.0, 38.0}};
    const ShadedString panel(testModule(), conditions);
    for (PvKernel kernel : batchKernels()) {
        setPvKernel(kernel);
        cpu::MultiCoreChip chip{
            cpu::defaultChipConfig(), cpu::DvfsTable::paperDefault(),
            cpu::EnergyParams{},
            workload::workloadSet(workload::WorkloadId::HM2), 42};
        core::TprOptAdapter adapter;
        core::SolarCoreController ctl(panel, chip, adapter);
        const auto res = ctl.track();
        ASSERT_TRUE(res.solarViable) << pvKernelName(kernel);

        const core::ControllerConfig &cfg = ctl.config();
        power::DcDcConverter conv(0.5, 8.0, cfg.converterEfficiency);
        const auto want = power::pinRailVoltage(
            panel, conv, cfg.railNominalV, chip.totalPower());
        ASSERT_TRUE(want.valid);
        EXPECT_EQ(res.net.panel.voltage, want.panel.voltage)
            << pvKernelName(kernel);
        EXPECT_EQ(res.net.panel.current, want.panel.current);
        EXPECT_EQ(res.net.load.voltage, want.load.voltage);
        EXPECT_EQ(res.net.load.current, want.load.current);
        EXPECT_EQ(ctl.converter().ratio(), conv.ratio());
    }
}

} // namespace
} // namespace solarcore::pv
