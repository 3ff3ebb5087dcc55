#include "perfbench.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

#include "obs/auditor.hpp"
#include "pv/pv_kernel.hpp"

namespace perfbench {

using namespace solarcore;

namespace {

/** Flattened profiler numbers of one scope name, summed over its sites. */
struct ScopeTotals
{
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
};

/**
 * Sum every node of @p node's subtree by scope name. A node's self time
 * is its total minus its children's totals; @return false when any
 * self time is negative, i.e. the tree's totals are inconsistent.
 */
bool
flatten(const obs::Profiler::Node &node,
        std::map<std::string, ScopeTotals> &out)
{
    bool ok = true;
    std::int64_t children_ns = 0;
    for (const auto &[name, child] : node.children) {
        children_ns += child->totalNs;
        ok = flatten(*child, out) && ok;
    }
    if (node.name.empty())
        return ok; // the synthetic root
    ScopeTotals &t = out[node.name];
    t.count += node.count;
    t.totalNs += node.totalNs;
    t.selfNs += node.totalNs - children_ns;
    return ok && node.totalNs >= children_ns;
}

bool
sameBits(const campaign::UnitMetrics &a, const campaign::UnitMetrics &b)
{
    for (const auto &field : campaign::metricFields())
        if (std::memcmp(&(a.*field.member), &(b.*field.member),
                        sizeof(double)) != 0)
            return false;
    return true;
}

/** Sum of "unit" span durations in a campaign span export [ns]. */
double
unitBusyNs(const std::string &path, bool &ok)
{
    std::vector<campaign::FlatJson> spans;
    ok = readSpanExport(path, spans);
    double busy = 0.0;
    for (const auto &s : spans)
        if (spanText(s, "name") == "unit")
            busy += spanNumber(s, "end_ns") - spanNumber(s, "start_ns");
    return busy;
}

} // namespace

BatchPhase::BatchPhase(BatchConfig config) : config_(std::move(config))
{
    pv::setPvKernel(pv::detectPvKernel());
    units_ = campaign::expandGrid(config_.grid);
}

void
BatchPhase::warm()
{
    std::vector<campaign::UnitMetrics> got(units_.size());
    for (std::size_t i = 0; i < units_.size(); ++i) {
        obs::Auditor audit;
        got[i] = campaign::runUnit(units_[i], config_.grid, nullptr, nullptr,
                                   nullptr, &audit, &workspace_);
    }
    check(got, "warm-up");
}

std::string
BatchPhase::summaryOf(const std::vector<campaign::UnitMetrics> &results) const
{
    campaign::CampaignOutcome outcome;
    outcome.units = units_;
    outcome.results = results;
    std::ostringstream os;
    campaign::writeSummaryJson(os, config_.grid, outcome);
    return os.str();
}

void
BatchPhase::check(const std::vector<campaign::UnitMetrics> &got,
                  const char *what)
{
    if (reference_.empty()) {
        reference_ = got;
        referenceSummary_ = summaryOf(got);
    }
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        auditViolations_ +=
            static_cast<std::uint64_t>(got[i].auditViolations);
        if (got[i].auditViolations != 0.0 || i >= reference_.size() ||
            !sameBits(got[i], reference_[i]))
            ++bad;
    }
    attempted_ += got.size();
    failed_ += bad;
    if (summaryOf(got) != referenceSummary_) {
        bytesOk_ = false;
        notes_.push_back(std::string("summary bytes differ: ") + what);
    }
}

double
BatchPhase::runOneThread()
{
    std::vector<campaign::UnitMetrics> got(units_.size());
    unitMs_.resize(units_.size());
    const std::int64_t t0 = nowNs();
    for (std::size_t i = 0; i < units_.size(); ++i) {
        obs::Auditor audit; // count mode, as the campaign CLI runs
        const std::int64_t s = nowNs();
        got[i] = campaign::runUnit(units_[i], config_.grid, nullptr, nullptr,
                                   nullptr, &audit, &workspace_);
        unitMs_[i].push_back(static_cast<double>(nowNs() - s) * 1e-6);
    }
    const double wall = static_cast<double>(nowNs() - t0) * 1e-9;
    check(got, "1 thread");
    return wall;
}

void
BatchPhase::runPaired()
{
    std::vector<campaign::UnitMetrics> plain(units_.size()),
        profiled(units_.size());
    const std::uint64_t pass = spans_.open("campaign.pass.1thread");
    for (std::size_t i = 0; i < units_.size(); ++i) {
        std::int64_t plain_ns = 0, profiled_ns = 0;
        // Alternate which run goes first, so neither gets the other's
        // warm caches on every unit.
        for (int k = 0; k < 2; ++k) {
            const bool with_profiler = (k == 0) == (i % 2 == 0);
            std::optional<obs::Profiler::Attach> attach;
            if (with_profiler)
                attach.emplace(&profiler_);
            obs::Auditor audit;
            const std::int64_t s = nowNs();
            (with_profiler ? profiled : plain)[i] =
                campaign::runUnit(units_[i], config_.grid, nullptr, nullptr,
                                  nullptr, &audit, &workspace_);
            const std::int64_t e = nowNs();
            if (with_profiler) {
                spans_.add("campaign.runUnit", s, e, pass);
                profiled_ns = e - s;
            } else {
                plain_ns = e - s;
            }
        }
        pairRatios_.push_back(static_cast<double>(profiled_ns) /
                              static_cast<double>(plain_ns));
    }
    spans_.close(pass);
    ++tracedPasses_;
    check(plain, "1 thread");
    check(profiled, "1 thread, profiled");
}

double
BatchPhase::runPool(int threads, int workers)
{
    campaign::CampaignOptions options;
    options.threads = threads;
    options.workers = workers;
    options.obs.audit = obs::AuditMode::Count;
    const std::string span_path = config_.workDir + "/campaign-spans.jsonl";
    if (config_.trace)
        options.spanOut = span_path;

    const std::uint64_t span = config_.trace
        ? spans_.open(workers > 1 ? "campaign.runCampaign.workers"
                                  : "campaign.runCampaign.threads")
        : 0;
    const std::int64_t t0 = nowNs();
    const campaign::CampaignOutcome outcome =
        campaign::runCampaign(config_.grid, options);
    const double wall_ns = static_cast<double>(nowNs() - t0);
    if (config_.trace)
        spans_.close(span);
    check(outcome.results, workers > 1 ? "workers" : "threads");

    if (config_.trace) {
        bool ok = false;
        const double busy = unitBusyNs(span_path, ok);
        if (!ok)
            notes_.push_back("campaign span export unreadable");
        const int lanes = workers > 1 ? workers : threads;
        (workers > 1 ? workerIdle_ : poolIdle_)
            .push_back(1.0 - busy / (lanes * wall_ns));
    }
    return wall_ns * 1e-9;
}

void
BatchPhase::runCycle()
{
    const double n = static_cast<double>(units_.size());
    if (config_.trace)
        runPaired();
    else
        onePerS_.push_back(n / runOneThread());
    threadsPerS_.push_back(n / runPool(config_.cpus, 1));
    workersPerS_.push_back(n / runPool(1, config_.cpus));
}

void
BatchPhase::reportEndToEnd(Report &report) const
{
    report.add("units_per_s", quantile(onePerS_, 0.5), "1/s");
    report.add("units_per_s_threads", quantile(threadsPerS_, 0.5), "1/s");
    report.add("units_per_s_workers", quantile(workersPerS_, 0.5), "1/s");
    std::string passes = "units/s per pass (1 thread | threads | workers):";
    for (const auto *series : {&onePerS_, &threadsPerS_, &workersPerS_}) {
        for (const double v : *series) {
            passes += ' ';
            passes += std::to_string(static_cast<int>(v));
        }
        passes += series == &workersPerS_ ? "" : " |";
    }
    report.notes.push_back(passes);
}

void
BatchPhase::reportUnitLatency(Report &report) const
{
    // A unit's latency is its median over passes, so a stall that hits
    // one pass does not land in the tail; the quantiles run over units.
    std::vector<double> unit_ms;
    for (const std::vector<double> &samples : unitMs_)
        unit_ms.push_back(quantile(samples, 0.5));
    report.add("p50_ms", quantile(unit_ms, 0.5), "ms");
    report.add("p99_ms", quantile(unit_ms, 0.99), "ms");
    report.add("goodput_rps",
               std::max(quantile(threadsPerS_, 0.5),
                        quantile(workersPerS_, 0.5)),
               "1/s");
    report.notes.push_back("unit latency: " + std::to_string(unit_ms.size()) +
                           " units x " + std::to_string(onePerS_.size()) +
                           " passes");
}

void
BatchPhase::reportLayers(Report &report) const
{
    const std::vector<double> unit_ms = spans_.durationsMs("campaign.runUnit");
    report.add("campaign.unit_ms_p50", quantile(unit_ms, 0.5), "ms");
    report.add("campaign.unit_ms_p99", quantile(unit_ms, 0.99), "ms");
    report.add("campaign.pool_idle_frac", quantile(poolIdle_, 0.5), "1");
    report.add("campaign.worker_idle_frac", quantile(workerIdle_, 0.5), "1");

    // Profiler totals are summed over the traced passes; report one pass.
    std::map<std::string, ScopeTotals> scopes;
    const bool tree_ok = flatten(profiler_.root(), scopes);
    const double passes = std::max(1, tracedPasses_);
    const auto get = [&](const char *name) {
        const auto it = scopes.find(name);
        return it == scopes.end() ? ScopeTotals() : it->second;
    };
    const auto ms = [&](std::int64_t ns) {
        return static_cast<double>(ns) * 1e-6 / passes;
    };
    const auto count = [&](std::uint64_t c) {
        return static_cast<double>(c) / passes;
    };

    const ScopeTotals day = get("day"), step = get("step");
    const ScopeTotals alloc = get("alloc.optimize");
    const ScopeTotals enforce = get("controller.enforce");
    const ScopeTotals pin = get("network.pin"), pinp = get("network.pinPrepared");
    const ScopeTotals lookup = get("mpp.lookup"),
                      lookup_batch = get("mpp.lookupBatch");

    report.add("core.steps", count(step.count), "count");
    report.add("core.day.self_ms", ms(day.selfNs + step.selfNs), "ms");
    report.add("core.alloc.calls", count(alloc.count), "count");
    report.add("core.alloc.ms", ms(alloc.totalNs), "ms");
    report.add("core.alloc.us_per_call",
               alloc.count == 0 ? 0.0
                                : static_cast<double>(alloc.totalNs) * 1e-3 /
                       static_cast<double>(alloc.count),
               "us");
    report.add("core.controller.enforce.self_ms", ms(enforce.selfNs), "ms");
    report.add("core.controller.enforce.unattributed_frac",
               enforce.totalNs == 0 ? 0.0
                                    : static_cast<double>(enforce.selfNs) /
                       static_cast<double>(enforce.totalNs),
               "1");
    report.add("core.controller.track.ms", ms(get("controller.track").totalNs),
               "ms");
    report.add("core.tpr.ms", ms(get("tpr.step").totalNs), "ms");
    report.add("cpu.chip.step.ms", ms(get("chip.step").totalNs), "ms");
    report.add("power.pin.calls", count(pin.count + pinp.count), "count");
    report.add("power.pin.ms", ms(pin.totalNs + pinp.totalNs), "ms");
    report.add("pv.mpp.lookup.ms", ms(lookup.totalNs + lookup_batch.totalNs),
               "ms");
    report.add("pv.find_mpp.ms", ms(get("pv.findMppBatch").totalNs), "ms");
    report.add("obs.audit.ms", ms(get("audit").totalNs), "ms");
    report.add("obs.trace_overhead_frac", quantile(pairRatios_, 0.5) - 1.0,
               "1");

    // Self-time shares, largest first: the layer split a workload was
    // chosen for should show at the top.
    std::int64_t all_self = 0;
    std::vector<std::pair<std::int64_t, std::string>> shares;
    for (const auto &[name, t] : scopes) {
        all_self += t.selfNs;
        shares.emplace_back(t.selfNs, name);
    }
    std::sort(shares.rbegin(), shares.rend());
    std::string line = "self-time share per pass:";
    for (const auto &[self_ns, name] : shares) {
        char buf[96];
        std::snprintf(buf, sizeof buf, " %s %.1f%%", name.c_str(),
                      100.0 * static_cast<double>(self_ns) /
                          static_cast<double>(std::max<std::int64_t>(all_self, 1)));
        line += buf;
    }
    report.notes.push_back(line);

    // Checks: each fails the run.
    bool checks_ok = true;
    const auto fail = [&](const std::string &what) {
        report.notes.push_back("CHECK FAILED: " + what);
        checks_ok = false;
        report.correct = false;
    };
    if (!tree_ok)
        fail("profiler tree has a node with negative self time");
    for (const auto &[name, t] : scopes)
        if (t.count % static_cast<std::uint64_t>(passes) != 0)
            fail("scope " + name + " count differs across traced passes");
    switch (config_.workload) {
    case Workload::CampaignTracked:
        if (alloc.count != 0)
            fail("alloc.optimize called on campaign-tracked");
        break;
    case Workload::CampaignBudgeted:
        if (shares.empty() || shares.front().second != "alloc.optimize")
            fail("alloc.optimize is not the largest self-time share on "
                 "campaign-budgeted");
        break;
    }
    if (checks_ok)
        report.notes.push_back("profiler checks passed: no negative self "
                               "time, counts equal across passes, layer "
                               "split holds");
}

void
BatchPhase::tally(Report &report) const
{
    report.attempted += attempted_;
    report.failed += failed_;
    if (failed_ != 0 || !bytesOk_ || auditViolations_ != 0)
        report.correct = false;
    report.notes.push_back("campaign audit violations: " +
                           std::to_string(auditViolations_));
    report.notes.push_back(std::string("campaign summary bytes: ") +
                           (bytesOk_ ? "identical" : "DIFFER"));
    report.notes.insert(report.notes.end(), notes_.begin(), notes_.end());
}

} // namespace perfbench
