/**
 * @file
 * Shared pieces of the perfbench driver: the workload definitions,
 * timing helpers, the driver's own span log, the metric report, and
 * the two measurement phases (campaign batches and the open-loop
 * serve load). See ../README.md for what each workload and metric
 * means.
 */

#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/golden.hpp"
#include "campaign/scenario.hpp"
#include "campaign/unit_metrics.hpp"
#include "core/simulation.hpp"
#include "obs/profiler.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds from @p t0 to now. */
double secondsSince(Clock::time_point t0);

/** CLOCK_MONOTONIC now [ns] (the timebase of the program's spans). */
std::int64_t nowNs();

/** Linear-interpolated quantile (q in [0,1]) of @p values; 0 if empty. */
double quantile(std::vector<double> values, double q);

/** CPUs this process may run on (what `nproc` prints). */
int cpuCount();

/** Peak resident set size of this process [MiB]. */
double peakRssMb();

/**
 * Spawn this binary with @p args, a set-up probe that prints nowNs()
 * on its stdout once its set-up is done, and wait for it.
 * @return seconds from just before the spawn to that stamp, or a
 * negative value when the probe could not run or failed.
 */
double timeSetupProbe(const std::vector<std::string> &args);

/**
 * Read a span export (solarcore-span-v1 JSONL) written by the program,
 * one flattened object per line ("name", "start_ns", "attrs.<key>").
 * @return false when the file is missing or a line is malformed.
 */
bool readSpanExport(const std::string &path,
                    std::vector<solarcore::campaign::FlatJson> &out);

/** Number field @p key of @p span, or 0. */
double spanNumber(const solarcore::campaign::FlatJson &span,
                  const std::string &key);

/** String field @p key of @p span, or "". */
std::string spanText(const solarcore::campaign::FlatJson &span,
                     const std::string &key);

/** The benchmark's workloads. */
enum class Workload
{
    CampaignTracked,
    CampaignBudgeted,
};

/** @return false for an unknown workload name. */
bool parseWorkload(const std::string &name, Workload &out);

/** Day seeds per benchmark seed (see workloadGrid). */
inline constexpr std::uint64_t kDaySeedsPerRun = 2;

/**
 * The unit grid of @p workload at benchmark seed @p seed: the `full`
 * preset axes (4 sites x 4 months x 3 workload mixes) with the
 * workload's policies, over day seeds seed*2 and seed*2+1, at the
 * preset's dt = 30 s.
 */
solarcore::campaign::ScenarioGrid workloadGrid(Workload workload,
                                               std::uint64_t seed);

/**
 * Spans the driver records around each call it makes into a layer.
 * Kept in memory; written as JSONL when the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0; //!< 0 = top level
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    /** Open a span starting now under @p parent; @return its id. */
    std::uint64_t open(const char *name, std::uint64_t parent = 0);

    /** Close span @p id now. */
    void close(std::uint64_t id);

    /** Record a finished span; @return its id. */
    std::uint64_t add(const char *name, std::int64_t start_ns,
                      std::int64_t end_ns, std::uint64_t parent = 0);

    /** Durations [ms] of every span named @p name. */
    std::vector<double> durationsMs(const std::string &name) const;

    /** Write one JSON object per span to @p path. */
    bool writeJsonl(const std::string &path) const;

  private:
    std::vector<Span> spans_;
};

/** Everything a run reports: metrics plus the operation tallies. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    std::vector<Metric> metrics;
    std::uint64_t attempted = 0; //!< operations attempted
    std::uint64_t failed = 0;    //!< failed, shed or mismatching
    bool correct = true;         //!< every output check passed
    std::vector<std::string> notes; //!< human-readable context lines

    void add(const std::string &name, double value,
             const std::string &unit);

    /** fail_frac of the run. */
    double failFrac() const;

    /**
     * Print every metric as "name value unit", the notes, then the
     * one-line JSON result restricted to @p keys (in that order).
     */
    void print(const std::vector<std::string> &keys) const;
};

/** Options of one campaign batch phase. */
struct BatchConfig
{
    Workload workload = Workload::CampaignTracked;
    solarcore::campaign::ScenarioGrid grid;
    int cpus = 1;           //!< threads / forked workers of the pool runs
    bool trace = false;     //!< profiler + span exports (per-layer run)
    std::string workDir;    //!< span export files go here
};

/**
 * The campaign phase: repeated cycles of (1-thread runUnit loop,
 * runCampaign at `cpus` threads, runCampaign at `cpus` workers), every
 * result checked against the warm-up pass, bit for bit, and
 * every summary checked byte for byte. In a traced run the 1-thread
 * loop runs each unit twice back to back, once plain and once with the
 * profiler attached.
 */
class BatchPhase
{
  public:
    explicit BatchPhase(BatchConfig config);

    /**
     * Warm-up: one untimed 1-thread pass over the grid. It fills the
     * program's caches and gives the reference results.
     */
    void warm();

    /** One cycle: the 1-thread pass, then the threads and workers pass. */
    void runCycle();

    /** The reference per-unit results (after warm()). */
    const std::vector<solarcore::campaign::ScenarioUnit> &units() const
    {
        return units_;
    }
    const std::vector<solarcore::campaign::UnitMetrics> &results() const
    {
        return reference_;
    }

    /** Add units_per_s, units_per_s_threads and units_per_s_workers. */
    void reportEndToEnd(Report &report) const;

    /**
     * Add p50_ms / p99_ms (one unit's latency at 1 thread) and
     * goodput_rps (the better of the threads and workers
     * throughput): the latency and goodput of a workload whose
     * operation is a unit.
     */
    void reportUnitLatency(Report &report) const;

    /**
     * Add the campaign/core/cpu/power/pv/obs per-layer metrics, and
     * fail the run when the profiler tree is inconsistent or the layer
     * split the workload was chosen for does not hold.
     */
    void reportLayers(Report &report) const;

    /** Fold this phase's tallies and failures into @p report. */
    void tally(Report &report) const;

    /** Driver spans (per-layer run). */
    const SpanLog &spans() const { return spans_; }

  private:
    double runOneThread();
    void runPaired();
    double runPool(int threads, int workers);
    void check(const std::vector<solarcore::campaign::UnitMetrics> &got,
               const char *what);
    std::string summaryOf(
        const std::vector<solarcore::campaign::UnitMetrics> &results) const;

    BatchConfig config_;
    std::vector<solarcore::campaign::ScenarioUnit> units_;
    solarcore::core::SimWorkspace workspace_;
    std::vector<solarcore::campaign::UnitMetrics> reference_;
    std::string referenceSummary_;

    std::vector<double> onePerS_;       //!< untraced 1-thread passes
    std::vector<double> pairRatios_;    //!< profiled / plain unit time
    std::vector<double> threadsPerS_;
    std::vector<double> workersPerS_;
    std::vector<std::vector<double>> unitMs_; //!< per unit, per pass [ms]
    std::vector<double> poolIdle_;
    std::vector<double> workerIdle_;
    solarcore::obs::Profiler profiler_; //!< summed over traced passes
    int tracedPasses_ = 0;
    SpanLog spans_;

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t auditViolations_ = 0;
    bool bytesOk_ = true;
    std::vector<std::string> notes_;
};

/** Options of the open-loop serve phase. */
struct ServeLoadConfig
{
    std::uint64_t seed = 1;
    solarcore::campaign::ScenarioGrid universe; //!< queries draw units here
    int serverWorkers = 1;
    std::string workDir; //!< socket and span exports go here
};

/**
 * The serve phase of the traced campaign-budgeted run: an in-process
 * serve::Server answering an open-loop Poisson schedule of planning
 * queries over the workload's grid, sent over one AF_UNIX connection.
 * Answers are checked afterwards against a reference computed from the
 * grid's unit results.
 */
class ServeLoad
{
  public:
    explicit ServeLoad(ServeLoadConfig config);
    ~ServeLoad();

    ServeLoad(const ServeLoad &) = delete;
    ServeLoad &operator=(const ServeLoad &) = delete;

    /**
     * Set-up: start the server, connect, and answer the working set
     * once so it sits in the answer cache. @return false on failure.
     */
    bool start();

    /** Stop the server (joins its threads). Idempotent. */
    void stop();

    /**
     * Drive the schedule for @p seconds and wait for every reply.
     * @return false when the generator fell behind its own schedule
     * (the run is invalid).
     */
    bool run(double seconds);

    /** Check every Ok answer against @p units / @p results. */
    void verify(
        const std::vector<solarcore::campaign::ScenarioUnit> &units,
        const std::vector<solarcore::campaign::UnitMetrics> &results);

    /** Add the serve.* and bench.* per-layer metrics. */
    void reportLayers(Report &report) const;
    void tally(Report &report) const;

    const SpanLog &spans() const { return spans_; }

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
    SpanLog spans_;
};

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HPP
