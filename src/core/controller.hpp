/**
 * @file
 * The SolarCore MPPT controller (paper Section 4.2, Figure 9).
 *
 * Each tracking event executes the paper's three-step strategy in our
 * quasi-static electrical model:
 *
 *  step 1  restore the rail to its nominal voltage: if the present
 *          demand exceeds what the panel can source, shed load one
 *          notch at a time (the policy picks the notch);
 *  step 2  determine the climb direction by perturbing the transfer
 *          ratio and observing the output current (in the quasi-static
 *          solver this is the feasibility probe of pinRailVoltage,
 *          which settles on the stable right-of-MPP branch);
 *  step 3  climb: add load one notch at a time, retuning the transfer
 *          ratio after each notch to hold the rail at nominal, until
 *          the next notch (plus the safety margin) would no longer be
 *          sustainable -- the paper's inflection point with a one-notch
 *          power margin.
 *
 * Between tracking events enforceRail() guards against supply drops:
 * if clouds cut the panel below the current demand, load is shed
 * immediately (the paper's "detects a change in PV power supply").
 */

#ifndef SOLARCORE_CORE_CONTROLLER_HPP
#define SOLARCORE_CORE_CONTROLLER_HPP

#include <optional>

#include "core/load_adapter.hpp"
#include "cpu/chip.hpp"
#include "power/converter.hpp"
#include "power/operating_point.hpp"
#include "power/sensors.hpp"
#include "pv/module.hpp"

namespace solarcore::obs {
class TraceBuffer;
} // namespace solarcore::obs

namespace solarcore::core {

/** Tuning knobs of the controller. */
struct ControllerConfig
{
    double railNominalV = 12.0;  //!< nominal converter output voltage
    double marginFraction = 0.02;//!< headroom kept below the MPP
    int maxTuneSteps = 96;       //!< notch cap per tracking event
    double deltaK = 0.02;        //!< transfer-ratio perturbation step
    double converterEfficiency = 1.0; //!< DC/DC conversion efficiency;
                                      //!< panel supplies demand/eff
};

/** Outcome of one tracking event. */
struct TrackResult
{
    bool solarViable = false;    //!< panel can carry the (possibly
                                 //!< reduced) load at nominal rail
    int stepsUp = 0;             //!< notches added this event
    int stepsDown = 0;           //!< notches shed this event
    power::NetworkState net;     //!< final electrical state
};

/** The SolarCore power-management controller. */
class SolarCoreController
{
  public:
    /**
     * @param panel   PV source; the caller rebinds its environment
     * @param chip    the multi-core load
     * @param adapter load-adaptation policy
     * @param config  controller knobs
     */
    SolarCoreController(const pv::IvSource &panel, cpu::MultiCoreChip &chip,
                        LoadAdapter &adapter,
                        ControllerConfig config = ControllerConfig());

    const ControllerConfig &config() const { return config_; }
    const power::DcDcConverter &converter() const { return converter_; }

    /** Which side of the MPP the panel operating point sits on. */
    enum class MppSide { Left, Right, AtMpp };

    /**
     * The paper's Step 2, literally: hold the chip load fixed, perturb
     * the transfer ratio by +deltaK and observe the output current
     * through the sensors. Rising current means the perturbation moved
     * the panel toward the MPP, i.e. the operating point was on the
     * left of the MPP (Figure 5-b); falling current means it was on the
     * right (Figure 5-a). The converter ratio is restored afterwards.
     */
    MppSide probeMppSide();

    /** Run one full tracking event (periodic or event-triggered). */
    TrackResult track();

    /**
     * Cheap inter-event guard: verify the panel still sustains the
     * demand with margin; shed load until it does.
     * @return the resulting state (solarViable=false when even the
     *         minimum load cannot be carried)
     */
    TrackResult enforceRail();

    /** Total notches moved since construction (controller activity). */
    long totalSteps() const { return totalSteps_; }

    /**
     * Attach a trace sink (nullptr detaches; also attaches the policy).
     * Every applied notch emits a DvfsChange event carrying the step's
     * TPR rank among the candidates the policy chose from (1 = best),
     * or a Pcpg event when the notch gates/ungates a core; each
     * tracking event additionally emits an MpptTrack summary. Rank
     * computation only runs while a sink is attached, so detached
     * tracing leaves the controller's hot loops untouched.
     */
    void
    setTrace(obs::TraceBuffer *trace)
    {
        trace_ = trace;
        adapter_->setTrace(trace);
    }

  private:
    /** Can the panel carry @p demand_w with the configured margin? */
    bool sustainable(double demand_w);

    /**
     * Pin the rail at nominal for @p demand_w. A uniform PvArray
     * routes through the PreparedArray fast path -- the
     * per-environment constants and the MPP are derived once per
     * environment change instead of once per probe. Any other panel
     * takes the generic IvSource pinRailVoltage.
     */
    power::NetworkState pinRail(double demand_w);

    /** Shed load until sustainable; fills @p result. */
    void shedUntilSustainable(TrackResult &result);

    /**
     * TPR rank of @p step among @p candidates (1 = best): descending
     * TPR for upward steps, ascending for downward ones, matching the
     * preference order of the Section 4.3 heuristic.
     */
    static int rankOf(const StepCandidate &step,
                      const std::vector<StepCandidate> &candidates,
                      bool upward);

    /** Emit a DvfsChange (or Pcpg) event for an applied step. */
    void traceStep(const StepCandidate &step, int rank);

    const pv::IvSource *panel_;
    const pv::PvArray *arrayPanel_; //!< non-null when panel_ is uniform
    std::optional<pv::PreparedArray> prepared_;
    cpu::MultiCoreChip *chip_;
    LoadAdapter *adapter_;
    ControllerConfig config_;
    power::DcDcConverter converter_;
    obs::TraceBuffer *trace_ = nullptr;
    long totalSteps_ = 0;
};

} // namespace solarcore::core

#endif // SOLARCORE_CORE_CONTROLLER_HPP
