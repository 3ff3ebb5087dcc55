#include "cell.hpp"

#include <cmath>

#include "util/logging.hpp"
#include "util/math.hpp"

namespace solarcore::pv {

namespace {

constexpr double kBoltzmann = 1.380649e-23; // [J/K]
constexpr double kElectron = 1.602176634e-19; // [C]

} // namespace

SolarCell::SolarCell(const CellParams &params) : params_(params)
{
    SC_ASSERT(params_.iscRef > 0 && params_.vocRef > 0,
              "SolarCell: datasheet reference values must be positive");
    SC_ASSERT(params_.idealityN >= 1.0 && params_.idealityN <= 2.0,
              "SolarCell: diode ideality out of physical range");
    // Calibrate the dark saturation current so that the open-circuit
    // condition at STC reproduces vocRef exactly:
    //   Iph = I0 * (exp(Voc / Vt) - 1)   (I = 0, Rs drops out)
    const double vt = thermalVoltage(kStc.cellTempC);
    i0Ref_ = params_.iscRef / std::expm1(params_.vocRef / vt);
    SC_ASSERT(i0Ref_ > 0, "SolarCell: saturation current calibration failed");
}

double
SolarCell::thermalVoltage(double cell_temp_c) const
{
    return params_.idealityN * kBoltzmann * kelvin(cell_temp_c) / kElectron;
}

double
SolarCell::photoCurrent(const Environment &env) const
{
    const double temp_term =
        1.0 + params_.alphaIsc * (env.cellTempC - kStc.cellTempC);
    return params_.iscRef * (env.irradiance / kStc.irradiance) * temp_term;
}

double
SolarCell::saturationCurrent(double cell_temp_c) const
{
    // I0(T) = I0_ref (T/Tref)^3 exp( (Eg/(n k/q)) (1/Tref - 1/T) )
    const double t = kelvin(cell_temp_c);
    const double t_ref = kelvin(kStc.cellTempC);
    const double eg_over_nk =
        params_.bandgapEv * kElectron / (params_.idealityN * kBoltzmann);
    return i0Ref_ * std::pow(t / t_ref, 3.0) *
        std::exp(eg_over_nk * (1.0 / t_ref - 1.0 / t));
}

double
SolarCell::currentAt(double v, const Environment &env) const
{
    if (env.irradiance <= 0.0) {
        // Dark cell: pure diode characteristic, I = -Id(v).
        const double vt = thermalVoltage(env.cellTempC);
        return -saturationCurrent(env.cellTempC) * std::expm1(v / vt);
    }
    const double iph = photoCurrent(env);
    const double i0 = saturationCurrent(env.cellTempC);
    const double vt = thermalVoltage(env.cellTempC);
    const double rs = params_.seriesRes;
    if (rs <= 0.0)
        return iph - i0 * std::expm1(v / vt); // explicit without Rs

    // Closed form: with A = Iph + I0 and
    //   theta = (I0 Rs / Vt) exp((V + A Rs) / Vt),
    // the implicit equation collapses to I = A - (Vt/Rs) W(theta).
    // theta overflows double for large forward bias, so W is evaluated
    // from log(theta) directly.
    const double a = iph + i0;
    const double log_theta =
        std::log(i0 * rs / vt) + (v + a * rs) / vt;
    const double w = lambertW0exp(log_theta);
    return a - w * vt / rs;
}

double
SolarCell::currentAtNewton(double v, const Environment &env) const
{
    if (env.irradiance <= 0.0) {
        const double vt = thermalVoltage(env.cellTempC);
        return -saturationCurrent(env.cellTempC) * std::expm1(v / vt);
    }

    const double iph = photoCurrent(env);
    const double i0 = saturationCurrent(env.cellTempC);
    const double vt = thermalVoltage(env.cellTempC);
    const double rs = params_.seriesRes;

    auto f = [&](double i) {
        return iph - i0 * std::expm1((v + i * rs) / vt) - i;
    };
    auto df = [&](double i) {
        return -i0 * (rs / vt) * std::exp((v + i * rs) / vt) - 1.0;
    };

    // I is bracketed by the reverse-bias diode floor and Iph.
    const double lo = -i0 * 10.0 - 1.0;
    const double hi = iph;
    const auto res = newton(f, df, iph * 0.9, lo, hi, 1e-12, 100);
    return res.x;
}

double
SolarCell::currentSlopeAt(double v, const Environment &env) const
{
    const double vt = thermalVoltage(env.cellTempC);
    const double i0 = saturationCurrent(env.cellTempC);
    const double rs = params_.seriesRes;
    if (env.irradiance <= 0.0 || rs <= 0.0) {
        // dI/dV = -(I0/Vt) exp(V/Vt), the bare diode slope.
        return -i0 / vt * std::exp(v / vt);
    }
    const double a = photoCurrent(env) + i0;
    const double log_theta =
        std::log(i0 * rs / vt) + (v + a * rs) / vt;
    const double w = lambertW0exp(log_theta);
    return -w / (rs * (1.0 + w));
}

double
SolarCell::mppVoltage(const Environment &env) const
{
    if (env.irradiance <= 0.0)
        return 0.0;

    const double iph = photoCurrent(env);
    const double i0 = saturationCurrent(env.cellTempC);
    const double vt = thermalVoltage(env.cellTempC);

    // Exact for Rs = 0: dP/dV = 0 gives (1 + V/Vt) e^(1 + V/Vt)
    // = e (1 + Iph/I0), i.e. Vmp = Vt (W(e (1 + Iph/I0)) - 1).
    const double v0 = vt * (lambertW0exp(1.0 + std::log1p(iph / i0)) - 1.0);
    if (params_.seriesRes <= 0.0)
        return v0;

    // Rs > 0 shifts the terminal-voltage optimum left by roughly
    // Imp * Rs; the seed lands close enough that a handful of
    // safeguarded Newton steps on dP/dV reach machine precision.
    return refineMppVoltage(v0 - iph * params_.seriesRes, env, 20);
}

double
SolarCell::refineMppVoltage(double v_seed, const Environment &env,
                            int iters) const
{
    if (env.irradiance <= 0.0)
        return 0.0;

    double lo = 0.0;
    double hi = openCircuitVoltage(env);
    double v = clamp(v_seed, lo, hi);
    const double vt = thermalVoltage(env.cellTempC);
    const double i0 = saturationCurrent(env.cellTempC);
    const double rs = params_.seriesRes;
    const double a = photoCurrent(env) + i0;

    for (int it = 0; it < iters; ++it) {
        // g(V) = dP/dV = I + V I' and g'(V) = 2 I' + V I'', all in
        // closed form; g is strictly decreasing on [0, Voc].
        double i, di, d2i;
        if (rs <= 0.0) {
            const double e = i0 * std::exp(v / vt);
            i = a - e; // == Iph - I0 expm1(v/vt)
            di = -e / vt;
            d2i = -e / (vt * vt);
        } else {
            const double log_theta =
                std::log(i0 * rs / vt) + (v + a * rs) / vt;
            const double w = lambertW0exp(log_theta);
            i = a - w * vt / rs;
            di = -w / (rs * (1.0 + w));
            const double opw = 1.0 + w;
            d2i = -w / (rs * vt * opw * opw * opw);
        }
        const double g = i + v * di;
        const double dg = 2.0 * di + v * d2i;

        // Maintain the bracket: g > 0 left of the MPP, < 0 right of it.
        if (g > 0.0)
            lo = v;
        else
            hi = v;

        double next = dg != 0.0 ? v - g / dg : 0.5 * (lo + hi);
        // Converged: a vanishing Newton step means v is the root. Check
        // before the bracket rejection below, which would otherwise
        // mistake the on-the-boundary step for an escape and bisect
        // away from the already-converged point.
        if (std::abs(next - v) <= 1e-15 * (1.0 + std::abs(v)))
            return v;
        if (next <= lo || next >= hi)
            next = 0.5 * (lo + hi);
        v = next;
    }
    return v;
}

double
SolarCell::openCircuitVoltage(const Environment &env) const
{
    if (env.irradiance <= 0.0)
        return 0.0;
    const double iph = photoCurrent(env);
    const double i0 = saturationCurrent(env.cellTempC);
    const double vt = thermalVoltage(env.cellTempC);
    // I = 0 => Voc = Vt * ln(1 + Iph / I0); Rs drops out at zero current.
    return vt * std::log1p(iph / i0);
}

double
SolarCell::shortCircuitCurrent(const Environment &env) const
{
    return currentAt(0.0, env);
}

} // namespace solarcore::pv
