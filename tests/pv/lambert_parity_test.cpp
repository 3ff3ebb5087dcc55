/**
 * @file
 * Parity of the closed-form Lambert-W I-V fast path against the
 * retained damped-Newton oracle, across the full environmental grid
 * the figure sweeps exercise: G in [0, 1000] W/m^2 (plus an
 * over-irradiance point), T in [-10, 75] C.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "pv/bp3180n.hpp"
#include "pv/mpp.hpp"

namespace solarcore::pv {
namespace {

double
relDiff(double a, double b)
{
    return std::abs(a - b) / std::max({1.0, std::abs(a), std::abs(b)});
}

const PvModule &
testModule()
{
    static const PvModule m = buildBp3180n();
    return m;
}

/**
 * The seed panel: a 1 x 1 array of @p module whose cell current comes
 * from the damped-Newton solve instead of the closed form, scaled
 * exactly as PvArray -> PvModule scale SolarCell::currentAt.
 */
class NewtonArray : public IvSource
{
  public:
    NewtonArray(const PvModule &module, const Environment &env)
        : module_(module), env_(env)
    {
    }

    double
    currentAt(double v) const override
    {
        const double v_cell = v / module_.cellsSeries();
        const double i_cell = module_.cell().currentAtNewton(v_cell, env_);
        return std::max(0.0, i_cell) * module_.stringsParallel();
    }

    double
    openCircuitVoltage() const override
    {
        return module_.openCircuitVoltage(env_);
    }

  private:
    const PvModule &module_;
    Environment env_;
};

class LambertParityGrid
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
  protected:
    static const PvModule &module() { return testModule(); }
};

TEST_P(LambertParityGrid, CurrentMatchesNewtonOracle)
{
    const auto [g, t] = GetParam();
    const Environment env{g, t};
    const SolarCell &cell = module().cell();
    const double voc = cell.openCircuitVoltage(env);

    // Sample the curve from short circuit past the knee to Voc.
    for (double frac : {0.0, 0.2, 0.5, 0.7, 0.85, 0.95, 1.0}) {
        const double v = voc > 0.0 ? frac * voc : frac * 0.1;
        const double fast = cell.currentAt(v, env);
        const double oracle = cell.currentAtNewton(v, env);
        EXPECT_LE(relDiff(fast, oracle), 1e-9)
            << "G=" << g << " T=" << t << " v=" << v << " fast=" << fast
            << " oracle=" << oracle;
    }

    // Past Voc the Newton oracle saturates at its bracket floor
    // (~-1 A) while the closed form follows the true diode current, so
    // only the ordering is comparable: both negative, the closed form
    // at least as negative as the clamped oracle.
    if (voc > 0.0) {
        const double v = 1.05 * voc;
        const double fast = cell.currentAt(v, env);
        const double oracle = cell.currentAtNewton(v, env);
        EXPECT_LT(fast, 0.0) << "G=" << g << " T=" << t;
        EXPECT_LE(fast, oracle + 1e-9) << "G=" << g << " T=" << t;
    }
}

TEST_P(LambertParityGrid, AnalyticMppMatchesGoldenNewtonOracle)
{
    const auto [g, t] = GetParam();
    PvArray array(module(), 1, 1, {g, t});
    const MppResult fast = findMpp(array); // analytic overload

    // Oracle: tight golden-section search over the Newton-solved curve
    // (the seed implementation, via the generic IvSource overload).
    const MppResult oracle = findMpp(NewtonArray(module(), {g, t}), 1e-9);

    if (g <= 0.0) {
        EXPECT_EQ(fast.power, 0.0);
        EXPECT_EQ(fast.voltage, 0.0);
        EXPECT_EQ(fast.current, 0.0);
        return;
    }
    EXPECT_LE(relDiff(fast.power, oracle.power), 1e-9)
        << "G=" << g << " T=" << t;
    EXPECT_LE(relDiff(fast.voltage, oracle.voltage), 1e-6)
        << "G=" << g << " T=" << t;
    EXPECT_LE(relDiff(fast.current, oracle.current), 1e-6)
        << "G=" << g << " T=" << t;
    // The analytic point is the true stationary point: it must not be
    // beaten by the oracle's probe grid.
    EXPECT_GE(fast.power, oracle.power - 1e-9 * (1.0 + oracle.power));
}

INSTANTIATE_TEST_SUITE_P(
    FullGrid, LambertParityGrid,
    ::testing::Combine(::testing::Values(0.0, 50.0, 100.0, 250.0, 400.0,
                                         550.0, 700.0, 850.0, 1000.0,
                                         1100.0),
                       ::testing::Values(-10.0, 0.0, 10.0, 25.0, 40.0,
                                         55.0, 75.0)));

TEST(LambertParity, DarkPanelMppIsExplicitZero)
{
    PvArray array(testModule(), 1, 1, {0.0, 25.0});
    for (const auto &mpp :
         {findMpp(array), findMpp(static_cast<const IvSource &>(array))}) {
        EXPECT_EQ(mpp.voltage, 0.0);
        EXPECT_EQ(mpp.current, 0.0);
        EXPECT_EQ(mpp.power, 0.0);
    }
}

TEST(LambertParity, DarkIvCurveIsASingleZeroSample)
{
    PvArray array(testModule(), 1, 1, {0.0, 25.0});
    const auto samples = sampleIvCurve(array, 50);
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].voltage, 0.0);
    EXPECT_EQ(samples[0].current, 0.0);
    EXPECT_EQ(samples[0].power, 0.0);
}

} // namespace
} // namespace solarcore::pv
