/**
 * @file
 * Per-timestep waveform telemetry for the simulation stack.
 *
 * A TelemetryRecorder holds a set of named, typed, pre-registered
 * channels (panel power/voltage/current, MPP reference, converter
 * ratio, rail voltage, per-core frequency/voltage/power/IPC/TPR, chip
 * power vs. budget, battery state of charge). The day loop samples
 * every channel once per simulation step:
 *
 *   rec.beginStep(minute);
 *   rec.set(chanPanelPower, p);
 *   ...
 *   rec.endStep();
 *
 * Channels not set during a step stay NaN (rendered as empty CSV
 * cells). Registration is only allowed before the first step so the
 * column schema is fixed for the whole run -- this is what lets a
 * campaign concatenate per-unit recorders into one columnar file.
 *
 * Decimation keeps long campaigns tractable:
 *  - EveryN commits one of every N steps (N=1 keeps everything);
 *  - MinMax buckets N steps and commits two rows per bucket carrying
 *    each channel's in-bucket minimum and maximum, so extremes (cloud
 *    transients, DVFS spikes) survive arbitrary decimation even
 *    though the two rows are per-channel envelopes rather than one
 *    consistent operating point.
 *
 * Export targets: columnar CSV (one time column plus one column per
 * channel) and Perfetto counter tracks woven into the Chrome trace
 * exporter (see trace.hpp).
 */

#ifndef SOLARCORE_OBS_TELEMETRY_HPP
#define SOLARCORE_OBS_TELEMETRY_HPP

#include <cstddef>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

namespace solarcore::obs {

/** How a recorder thins the per-step sample stream. */
enum class TelemetryMode {
    EveryN, //!< keep one of every N steps
    MinMax, //!< keep per-channel min and max of every N-step bucket
};

/** Parse "every"/"minmax" (case-sensitive). @return false on junk. */
bool parseTelemetryMode(const std::string &token, TelemetryMode &out);

/** A per-step waveform recorder with pre-registered channels. */
class TelemetryRecorder
{
  public:
    using ChannelId = std::size_t;

    /**
     * @param every decimation factor N (>= 1)
     * @param mode  how the N-step window collapses to committed rows
     */
    explicit TelemetryRecorder(std::size_t every = 1,
                               TelemetryMode mode = TelemetryMode::EveryN);

    /**
     * Register (find-or-create) a channel. Must happen before the
     * first beginStep(); re-registering an existing name returns the
     * same id, which is how repeated days in one run share a schema.
     */
    ChannelId channel(const std::string &name,
                      const std::string &unit = "");

    std::size_t channelCount() const { return channels_.size(); }
    const std::string &channelName(ChannelId id) const;
    const std::string &channelUnit(ChannelId id) const;

    /** Begin a sample at @p time_min simulated minutes. */
    void beginStep(double time_min);

    /** Record @p value for @p id within the current step. */
    void
    set(ChannelId id, double value)
    {
        current_[id] = value;
    }

    /** Commit the current step into the decimation window. */
    void endStep();

    /**
     * Flush a partially filled decimation bucket (MinMax mode). The
     * exporters call this; day drivers may call it at day end so the
     * dusk tail is never dropped.
     */
    void flush();

    /** Committed rows so far (flush() to include a partial bucket). */
    std::size_t rowCount() const { return times_.size(); }

    /** Steps observed (before decimation). */
    std::size_t stepCount() const { return steps_; }

    std::size_t every() const { return every_; }
    TelemetryMode mode() const { return mode_; }

    /** Time of committed row @p row [simulated minutes]. */
    double rowTime(std::size_t row) const;

    /** Value of channel @p id in committed row @p row (may be NaN). */
    double value(std::size_t row, ChannelId id) const;

    /**
     * Columnar CSV: "time_min,<chan>[unit],..." header then one row
     * per committed sample; NaN cells render empty. Flushes first.
     */
    void writeCsv(std::ostream &os);

    /**
     * Concatenate @p recorders (task-index order) into one CSV with a
     * leading "unit" column. All recorders must share the schema of
     * the first; a campaign guarantees this because the day loop
     * registers the same channel superset for every supply.
     */
    static void
    writeCsvConcat(const std::vector<TelemetryRecorder *> &recorders,
                   std::ostream &os);

    /** Drop all committed rows and pending state (keeps channels). */
    void clear();

  private:
    struct Channel
    {
        std::string name;
        std::string unit;
    };

    void commitRow(double time_min, const std::vector<double> &row);
    void writeHeader(std::ostream &os, bool unit_column) const;
    void writeRow(std::ostream &os, std::size_t row) const;

    std::vector<Channel> channels_;
    std::vector<double> current_;   //!< the in-progress step
    std::vector<double> bucketMin_; //!< MinMax accumulators
    std::vector<double> bucketMax_;
    double bucketStartMin_ = 0.0;
    double bucketEndMin_ = 0.0;
    std::size_t bucketFill_ = 0;    //!< steps in the open bucket
    std::size_t steps_ = 0;
    std::size_t every_;
    TelemetryMode mode_;
    bool inStep_ = false;
    bool frozen_ = false;           //!< schema locked by first step

    std::vector<double> times_;     //!< committed row times
    std::vector<double> data_;      //!< rows * channels, row-major
};

} // namespace solarcore::obs

#endif // SOLARCORE_OBS_TELEMETRY_HPP
