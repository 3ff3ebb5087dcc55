/**
 * @file
 * Single-diode equivalent-circuit model of a photovoltaic cell
 * (paper Section 2.1, Figure 3).
 *
 * The cell is a photocurrent source in parallel with one diode plus a
 * series resistance Rs; shunt resistance is omitted as negligible,
 * exactly as the paper's "model of moderate complexity". The output
 * current at terminal voltage V solves the implicit equation
 *
 *   I = Iph(G,T) - I0(T) * (exp(q (V + I Rs) / (n k T)) - 1)
 *
 * with irradiance-proportional, temperature-corrected photocurrent and
 * the standard T^3 * exp(-Eg/kT) dark-saturation-current scaling.
 *
 * The implicit equation has a closed-form solution via the Lambert W
 * function,
 *
 *   I = Iph + I0 - (Vt / Rs) * W( (I0 Rs / Vt) exp((V + (Iph+I0) Rs)/Vt) )
 *
 * which is the only production evaluation path. The original
 * damped-Newton solve survives as currentAtNewton(), an oracle the
 * parity tests and the seed-baseline microbenchmark call directly.
 */

#ifndef SOLARCORE_PV_CELL_HPP
#define SOLARCORE_PV_CELL_HPP

namespace solarcore::pv {

/** Atmospheric operating condition of a panel. */
struct Environment
{
    double irradiance = 1000.0; //!< plane-of-array irradiance G [W/m^2]
    double cellTempC = 25.0;    //!< cell temperature [degrees Celsius]
};

/** Standard test conditions (STC) used for datasheet calibration. */
inline constexpr Environment kStc{1000.0, 25.0};

/** Electrical parameters of one cell, referenced to STC. */
struct CellParams
{
    double iscRef = 5.4;        //!< short-circuit current at STC [A]
    double vocRef = 0.6139;     //!< open-circuit voltage at STC [V]
    double alphaIsc = 0.00065;  //!< relative Isc temperature coeff [1/K]
    double idealityN = 1.30;    //!< diode ideality factor
    double seriesRes = 0.0;     //!< series resistance Rs [ohm]
    double bandgapEv = 1.12;    //!< silicon bandgap [eV]

    bool operator==(const CellParams &) const = default;
};

/**
 * A single PV cell with the physics above.
 *
 * All voltages/currents are per cell; PvModule scales to the
 * series-parallel arrangement.
 */
class SolarCell
{
  public:
    explicit SolarCell(const CellParams &params);

    const CellParams &params() const { return params_; }

    /** Light-generated current Iph at the given condition [A]. */
    double photoCurrent(const Environment &env) const;

    /** Diode dark saturation current I0 at cell temperature [A]. */
    double saturationCurrent(double cell_temp_c) const;

    /**
     * Output current at terminal voltage @p v [V].
     *
     * Evaluated in closed form via the Lambert W function (one
     * transcendental solve, no inner iteration); monotone decreasing
     * in v. Negative results (v beyond Voc) are returned as-is so
     * callers can detect reverse bias; clamp at the call site when
     * modelling a blocking diode.
     */
    double currentAt(double v, const Environment &env) const;

    /**
     * The original damped-Newton solve of the implicit diode equation,
     * kept as a cross-check oracle for the closed-form path (parity is
     * asserted to <= 1e-9 relative across the environmental grid).
     */
    double currentAtNewton(double v, const Environment &env) const;

    /** dI/dV at terminal voltage @p v [A/V]; analytic, always <= 0. */
    double currentSlopeAt(double v, const Environment &env) const;

    /**
     * Cell voltage of the maximum power point [V], solved analytically:
     * the exact Rs = 0 closed form Vmp = Vt (W(e (1 + Iph/I0)) - 1)
     * seeds a safeguarded Newton on dP/dV = I + V dI/dV with both terms
     * from the Lambert-W evaluation. Returns 0 for a dark cell.
     */
    double mppVoltage(const Environment &env) const;

    /**
     * Polish an MPP voltage estimate @p v_seed with @p iters Newton
     * steps on dP/dV (bracketed in [0, Voc]). Used by the (G, T) grid
     * cache to turn a bilinear interpolant into a near-exact MPP.
     */
    double refineMppVoltage(double v_seed, const Environment &env,
                            int iters = 2) const;

    /** Open-circuit voltage at the given condition [V]. */
    double openCircuitVoltage(const Environment &env) const;

    /** Short-circuit current at the given condition [A]. */
    double shortCircuitCurrent(const Environment &env) const;

    /** Thermal voltage n*k*T/q at the given cell temperature [V]. */
    double thermalVoltage(double cell_temp_c) const;

    /** Calibrated dark saturation current at STC [A] (I0 reference). */
    double saturationCurrentRef() const { return i0Ref_; }

  private:
    CellParams params_;
    double i0Ref_; //!< saturation current at STC, from Voc/Isc calibration
};

/** Convert Celsius to Kelvin. */
constexpr double
kelvin(double celsius)
{
    return celsius + 273.15;
}

} // namespace solarcore::pv

#endif // SOLARCORE_PV_CELL_HPP
