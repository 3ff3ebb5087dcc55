#include "mpp.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/math.hpp"

namespace solarcore::pv {

MppResult
findMpp(const IvSource &source, double v_tol)
{
    const double voc = source.openCircuitVoltage();
    if (voc <= 0.0)
        return MppResult{}; // dark panel: explicitly all-zero MPP

    MppResult res;
    auto power = [&](double v) { return v * source.currentAt(v); };
    const auto opt = goldenMax(power, 0.0, voc, v_tol);
    res.voltage = opt.x;
    res.current = source.currentAt(opt.x);
    res.power = opt.fx;
    return res;
}

MppResult
findMpp(const PvArray &array)
{
    const Environment &env = array.environment();
    if (env.irradiance <= 0.0)
        return MppResult{};

    const PvModule &module = array.module();
    const SolarCell &cell = module.cell();
    const double v_cell = cell.mppVoltage(env);
    const double i_cell = std::max(0.0, cell.currentAt(v_cell, env));

    MppResult res;
    res.voltage = v_cell *
        static_cast<double>(module.cellsSeries() * array.modulesSeries());
    res.current = i_cell *
        static_cast<double>(module.stringsParallel() *
                            array.modulesParallel());
    res.power = res.voltage * res.current;
    return res;
}

std::vector<IvSample>
sampleIvCurve(const IvSource &source, int points)
{
    SC_ASSERT(points >= 2, "sampleIvCurve: need at least two points");
    std::vector<IvSample> samples;
    const double voc = source.openCircuitVoltage();
    if (voc <= 0.0) {
        // Dark source: the whole curve degenerates to the origin; one
        // zero sample instead of `points` duplicates of it.
        samples.push_back({0.0, 0.0, 0.0});
        return samples;
    }
    samples.reserve(static_cast<std::size_t>(points));
    for (int i = 0; i < points; ++i) {
        const double v = voc * static_cast<double>(i) /
            static_cast<double>(points - 1);
        const double c = source.currentAt(v);
        samples.push_back({v, c, v * c});
    }
    return samples;
}

OperatingPoint
resistiveOperatingPoint(const IvSource &source, double load_ohm)
{
    SC_ASSERT(load_ohm > 0.0, "resistiveOperatingPoint: non-positive load");
    const double voc = source.openCircuitVoltage();
    if (voc <= 0.0)
        return {0.0, 0.0};

    // Source current falls with V while load current rises, so the
    // difference is monotone and bisection is exact.
    auto mismatch = [&](double v) {
        return source.currentAt(v) - v / load_ohm;
    };
    const auto root = bisect(mismatch, 0.0, voc, 1e-9 * voc + 1e-12);
    const double v = root.x;
    return {v, v / load_ohm};
}

} // namespace solarcore::pv
