/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--work-dir DIR] [--setup-probe 1]
 *
 * Runs one workload in this process and prints every metric as
 * "name value unit", then one JSON result line. --trace 0 measures the
 * end-to-end metrics with every profiler and span export off;
 * --trace 1 attaches the self-profiler, turns on the campaign and serve
 * span exports, records the driver's own spans, and reports the
 * per-layer metrics. Exits 1 when an output check fails and 3 when the
 * open-loop generator fell behind its schedule (an invalid run).
 * --setup-probe 1 only does the workload's set-up, prints the
 * CLOCK_MONOTONIC time [ns] at which it was done, and exits; the
 * driver spawns itself that way to time set-up from process start.
 * See ../README.md.
 */

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench.hpp"

using namespace perfbench;

namespace {

/** Set-up probes before each cycle; setup_s is the median of all. */
constexpr int kSetupProbesPerCycle = 5;

const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"units_per_s", "1/s"},      {"units_per_s_threads", "1/s"},
    {"units_per_s_workers", "1/s"}, {"p50_ms", "ms"},
    {"p99_ms", "ms"},            {"goodput_rps", "1/s"},
    {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
};

/** Per-layer metrics; a layer a workload never enters reports 0. */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"campaign.unit_ms_p50", "ms"},
    {"campaign.unit_ms_p99", "ms"},
    {"campaign.pool_idle_frac", "1"},
    {"campaign.worker_idle_frac", "1"},
    {"core.steps", "count"},
    {"core.day.self_ms", "ms"},
    {"core.alloc.calls", "count"},
    {"core.alloc.ms", "ms"},
    {"core.alloc.us_per_call", "us"},
    {"core.controller.enforce.self_ms", "ms"},
    {"core.controller.enforce.unattributed_frac", "1"},
    {"core.controller.track.ms", "ms"},
    {"core.tpr.ms", "ms"},
    {"cpu.chip.step.ms", "ms"},
    {"power.pin.calls", "count"},
    {"power.pin.ms", "ms"},
    {"pv.mpp.lookup.ms", "ms"},
    {"pv.find_mpp.ms", "ms"},
    {"obs.audit.ms", "ms"},
    {"obs.trace_overhead_frac", "1"},
    {"serve.hit_ms_p50", "ms"},
    {"serve.hit_ms_p99", "ms"},
    {"serve.miss_ms_p50", "ms"},
    {"serve.miss_ms_p99", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.service_ms_p99", "ms"},
    {"serve.result_cache.hit_ratio", "1"},
    {"serve.shed_frac", "1"},
    {"serve.units_simulated", "count"},
    {"bench.gen_lag_ms_p99", "ms"},
};

int
usage(const char *error)
{
    std::cerr << "perfbench: " << error
              << "\nusage: perfbench --workload campaign-tracked|"
                 "campaign-budgeted --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--setup-probe 1]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name, work_dir = ".";
    std::uint64_t seed = 1;
    double seconds = 50.0;
    bool trace = false, setup_probe = false;
    if (argc % 2 == 0)
        return usage("every option takes a value");
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            workload_name = value;
        else if (key == "--seed")
            seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (key == "--seconds")
            seconds = std::strtod(value.c_str(), nullptr);
        else if (key == "--trace")
            trace = value == "1";
        else if (key == "--work-dir")
            work_dir = value;
        else if (key == "--setup-probe")
            setup_probe = value == "1";
        else
            return usage(("unknown option " + key).c_str());
    }
    Workload workload;
    if (!parseWorkload(workload_name, workload))
        return usage("unknown or missing --workload");
    if (!(seconds > 0.0))
        return usage("--seconds must be positive");

    const int cpus = cpuCount();
    const BatchConfig batch_cfg{workload, workloadGrid(workload, seed), cpus,
                                trace, work_dir};
    // Set-up: kernel dispatch, grid expansion, workspace allocation.
    BatchPhase batch(batch_cfg);
    if (setup_probe) {
        std::cout << nowNs() << std::endl;
        return 0;
    }

    // setup_s: the median over fresh processes of the time from spawn
    // to the end of set-up. The probes run between the timed cycles,
    // so their samples spread over the run like every other metric's.
    // The warm-up pass below is not set-up; p50_ms measures unit time.
    std::vector<double> setup;
    const std::vector<std::string> probe_args = {
        "--workload", workload_name, "--seed", std::to_string(seed),
        "--seconds", "1", "--trace", "0", "--work-dir", work_dir,
        "--setup-probe", "1"};
    const auto probe_setup = [&] {
        for (int i = 0; i < kSetupProbesPerCycle; ++i) {
            setup.push_back(timeSetupProbe(probe_args));
            if (setup.back() < 0.0)
                return false;
        }
        return true;
    };
    Report report;
    batch.warm();

    // The traced budgeted run also serves the grid as planning queries,
    // so the serve layer is measured where the DP allocator sits on its
    // miss path. One generator thread plus one reply reader share the
    // CPUs with the server's workers.
    std::unique_ptr<ServeLoad> load;
    const Clock::time_point t0 = Clock::now();
    if (trace && workload == Workload::CampaignBudgeted) {
        load = std::make_unique<ServeLoad>(ServeLoadConfig{
            seed, batch_cfg.grid, std::max(1, cpus - 2), work_dir});
        if (!load->start()) {
            std::cerr << "perfbench: serve set-up failed\n";
            return 1;
        }
        const bool valid = load->run(0.4 * seconds);
        // The server's threads must be gone before runCampaign forks.
        load->stop();
        if (!valid)
            return 3;
    }
    double last_cycle = 0.0;
    do {
        if (!trace && !probe_setup()) {
            std::cerr << "perfbench: set-up probe failed\n";
            return 1;
        }
        const Clock::time_point c0 = Clock::now();
        batch.runCycle();
        last_cycle = secondsSince(c0);
    } while (secondsSince(t0) + last_cycle <= seconds);
    if (trace) {
        batch.reportLayers(report);
    } else {
        batch.reportEndToEnd(report);
        batch.reportUnitLatency(report);
    }
    batch.tally(report);
    if (load) {
        load->verify(batch.units(), batch.results());
        load->reportLayers(report);
        load->tally(report);
    }
    if (!trace) {
        report.add("setup_s", quantile(setup, 0.5), "s");
        report.notes.push_back("set-up probes: " +
                               std::to_string(setup.size()));
    }
    report.add("peak_rss_mb", peakRssMb(), "MiB");

    const auto &wanted = trace ? kPerLayer : kEndToEnd;
    std::vector<std::string> keys;
    for (const auto &[name, unit] : wanted) {
        keys.push_back(name);
        bool present = false;
        for (const auto &m : report.metrics)
            present = present || m.name == name;
        if (!present)
            report.add(name, 0.0, unit);
    }
    if (trace) {
        const bool ok =
            batch.spans().writeJsonl(work_dir + "/perfbench-spans.jsonl") &&
            (!load || load->spans().writeJsonl(work_dir +
                                               "/perfbench-serve-spans.jsonl"));
        report.notes.push_back(std::string("driver spans written: ") +
                               (ok ? "yes" : "no"));
    }
    report.print(keys);
    return report.correct ? 0 : 1;
}
