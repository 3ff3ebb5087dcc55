/**
 * @file
 * Quasi-static solver for the PV-panel / DC-DC-converter / processor
 * network (paper Figure 5 and Table 1).
 *
 * The multi-core chip behind its VRMs is modelled as the load line
 * I = V / R_load with R_load = V_nom^2 / P_demand: raising the chip's
 * DVFS levels lowers R_load, moving the operating point exactly as the
 * paper's Table 1 describes. The solver finds the intersection of that
 * load line (reflected through the converter) with the panel's I-V
 * characteristic, and can also solve for the transfer ratio that pins
 * the rail at its nominal voltage.
 */

#ifndef SOLARCORE_POWER_OPERATING_POINT_HPP
#define SOLARCORE_POWER_OPERATING_POINT_HPP

#include "power/converter.hpp"
#include "pv/module.hpp"
#include "pv/pv_kernel.hpp"

namespace solarcore::power {

/** The solved electrical state of the whole network. */
struct NetworkState
{
    pv::OperatingPoint panel; //!< PV-side voltage/current
    pv::OperatingPoint load;  //!< rail-side voltage/current
    bool valid = false;       //!< false if the network has no solution

    double panelPower() const { return panel.power(); }
    double loadPower() const { return load.power(); }
};

/**
 * Solve the network for a given converter ratio and load resistance.
 *
 * Monotonicity of the panel I-V curve makes the intersection unique;
 * bisection on the rail voltage is globally convergent.
 *
 * @param source   panel characteristic at the current environment
 * @param conv     converter (its current ratio is used)
 * @param load_ohm chip load-line resistance at the rail
 */
NetworkState solveNetwork(const pv::IvSource &source,
                          const DcDcConverter &conv, double load_ohm);

/**
 * Find the transfer ratio that holds the rail at @p v_rail while the
 * chip demands @p demand_w, staying on the stable (right-of-MPP) branch
 * of the panel curve.
 *
 * Returns a NetworkState with valid=false when the demand exceeds what
 * the panel can deliver (the rail would collapse); the caller then
 * must shed load or fail over to the grid. On success the converter's
 * ratio is updated in place.
 */
NetworkState pinRailVoltage(const pv::IvSource &source, DcDcConverter &conv,
                            double v_rail, double demand_w);

/**
 * Fast-path overload for a PreparedArray whose environment has already
 * been set: the MPP feasibility check reads the cached (bitwise
 * legacy-identical) MPP and the stable-branch solve runs a warm
 * analytic Newton instead of findMpp + a 40-step bisect per call. The
 * controller routes every uniform PvArray here; the IvSource overload
 * above serves non-uniform sources and is the tests' parity oracle.
 */
NetworkState pinRailVoltage(const pv::PreparedArray &array,
                            DcDcConverter &conv, double v_rail,
                            double demand_w);

/** Load-line resistance presented by a chip demanding @p demand_w. */
double loadResistance(double v_rail, double demand_w);

} // namespace solarcore::power

#endif // SOLARCORE_POWER_OPERATING_POINT_HPP
