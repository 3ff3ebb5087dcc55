#include "perfbench.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <iostream>

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "obs/json.hpp"
#include "obs/span.hpp"

extern char **environ;

namespace perfbench {

using namespace solarcore;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t
nowNs()
{
    return obs::spanNowNs();
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

int
cpuCount()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

double
peakRssMb()
{
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
timeSetupProbe(const std::vector<std::string> &args)
{
    char exe[4096];
    const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (len <= 0)
        return -1.0;
    exe[len] = '\0';
    std::vector<char *> argv{exe};
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        return -1.0;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    const std::int64_t t0 = nowNs();
    pid_t pid = -1;
    const int rc =
        ::posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string out;
    char buf[64];
    ssize_t n;
    while (rc == 0 && (n = ::read(fds[0], buf, sizeof buf)) != 0) {
        if (n > 0)
            out.append(buf, static_cast<std::size_t>(n));
        else if (errno != EINTR)
            break;
    }
    ::close(fds[0]);
    int status = 0;
    if (rc != 0 || ::waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0 || out.empty())
        return -1.0;
    return static_cast<double>(std::strtoll(out.c_str(), nullptr, 10) - t0) *
        1e-9;
}

bool
parseWorkload(const std::string &name, Workload &out)
{
    if (name == "campaign-tracked")
        out = Workload::CampaignTracked;
    else if (name == "campaign-budgeted")
        out = Workload::CampaignBudgeted;
    else
        return false;
    return true;
}

campaign::ScenarioGrid
workloadGrid(Workload workload, std::uint64_t seed)
{
    using campaign::CampaignPolicy;
    campaign::ScenarioGrid grid;
    campaign::applyPreset("full", grid);
    // Each run simulates kDaySeedsPerRun day seeds, disjoint between
    // benchmark seeds: one day seed's weather moves a grid's cost by
    // several percent, which would otherwise swamp run-to-run spread.
    grid.seeds.clear();
    for (std::uint64_t k = 0; k < kDaySeedsPerRun; ++k)
        grid.seeds.push_back(seed * kDaySeedsPerRun + k);
    switch (workload) {
    case Workload::CampaignTracked:
        grid.policies = {CampaignPolicy::MpptOpt, CampaignPolicy::MpptRr,
                         CampaignPolicy::MpptIc};
        break;
    case Workload::CampaignBudgeted:
        grid.policies = {CampaignPolicy::FixedPower,
                         CampaignPolicy::Battery};
        break;
    }
    return grid;
}

bool
readSpanExport(const std::string &path, std::vector<campaign::FlatJson> &out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string line, error;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        campaign::FlatJson flat;
        if (!campaign::parseJsonFlat(line, flat, error)) {
            std::cerr << "perfbench: " << path << ": " << error << "\n";
            return false;
        }
        out.push_back(std::move(flat));
    }
    return true;
}

double
spanNumber(const campaign::FlatJson &span, const std::string &key)
{
    const auto it = span.find(key);
    return it == span.end() ? 0.0 : it->second.number;
}

std::string
spanText(const campaign::FlatJson &span, const std::string &key)
{
    const auto it = span.find(key);
    return it == span.end() ? std::string() : it->second.text;
}

std::uint64_t
SpanLog::open(const char *name, std::uint64_t parent)
{
    return add(name, nowNs(), 0, parent);
}

void
SpanLog::close(std::uint64_t id)
{
    spans_[id - 1].endNs = nowNs();
}

std::uint64_t
SpanLog::add(const char *name, std::int64_t start_ns, std::int64_t end_ns,
             std::uint64_t parent)
{
    Span s;
    s.name = name;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.startNs = start_ns;
    s.endNs = end_ns;
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

std::vector<double>
SpanLog::durationsMs(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (s.name == name)
            out.push_back(static_cast<double>(s.endNs - s.startNs) * 1e-6);
    return out;
}

bool
SpanLog::writeJsonl(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    for (const Span &s : spans_)
        os << "{\"name\":" << obs::jsonString(s.name) << ",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.startNs
           << ",\"end_ns\":" << s.endNs << "}\n";
    return static_cast<bool>(os);
}

void
Report::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back({name, value, unit});
}

double
Report::failFrac() const
{
    return attempted == 0
        ? 1.0
        : static_cast<double>(failed) / static_cast<double>(attempted);
}

namespace {

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

void
Report::print(const std::vector<std::string> &keys) const
{
    for (const std::string &note : notes)
        std::cout << "# " << note << "\n";
    for (const Metric &m : metrics)
        std::cout << m.name << " " << number(m.value) << " " << m.unit
                  << "\n";
    std::cout << "fail_frac " << number(failFrac()) << " 1\n";

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const std::string &key : keys) {
        const auto it =
            std::find_if(metrics.begin(), metrics.end(),
                         [&](const Metric &m) { return m.name == key; });
        if (it == metrics.end())
            continue;
        json += first ? "" : ", ";
        first = false;
        json += obs::jsonString(it->name) + ": {\"value\": " +
            number(it->value) + ", \"unit\": " + obs::jsonString(it->unit) +
            "}";
    }
    json += "}}";
    std::cout << json << std::endl;
}

} // namespace perfbench
