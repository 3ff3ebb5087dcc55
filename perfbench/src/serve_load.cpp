#include "perfbench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <random>
#include <thread>

#include <unistd.h>

#include "core/carbon.hpp"
#include "core/fleet.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace solarcore;

namespace {

/**
 * The query mix. The repository holds no record of real planning
 * traffic, so the mix is synthetic; every serve.* figure holds only for
 * it. The working set and the repeat share follow
 * bench/microbench_serve, the repository's serve load: 4 clients x 8
 * requests make a 32-query set, answered once cold and then re-sent 25
 * times warm, so 25 of 26 requests hit the answer cache (1024 entries).
 */
constexpr std::size_t kWorkingSet = 4 * 8;
constexpr double kRepeatShare = 25.0 / 26.0;
/**
 * Offered rate [requests/s]. Not grounded in any measurement: it keeps
 * the server's workers about a quarter busy with the fresh queries of
 * the campaign-budgeted grid, a low-load operating point.
 */
constexpr double kRate = 250.0;
/**
 * Latency counted for a failed or shed request [ms], and a tenth of it
 * is the generator lag p99 beyond which the run is invalid, so the
 * generator's own delays stay small against any latency it reports.
 */
constexpr double kFailedLatencyMs = 250.0;
constexpr double kMaxGenLagMs = 0.1 * kFailedLatencyMs;
/** How long the generator waits for the last replies [s]. */
constexpr double kDrainTimeoutS = 30.0;

/** One scheduled request. */
struct Slot
{
    std::uint32_t query = 0; //!< index into Impl::queries
    bool repeat = false;     //!< drawn from the working set
    std::int64_t dueNs = 0;
    std::int64_t sendNs = 0;
    std::int64_t recvNs = 0;
    bool replied = false;
    serve::ReplyStatus status = serve::ReplyStatus::ServerError;
    std::string body; //!< encoded answer of an Ok reply
};

/** The open-loop schedule and what came back for each request. */
struct Schedule
{
    std::uint64_t baseId = 0; //!< request id of slots[0]
    std::vector<Slot> slots;
    std::vector<std::string> payloads;
    std::atomic<std::size_t> received{0};
};

/** Latency of a slot from when it was due [ms]. */
double
latencyMs(const Slot &s)
{
    if (!s.replied || s.status != serve::ReplyStatus::Ok)
        return kFailedLatencyMs;
    return static_cast<double>(s.recvNs - s.dueNs) * 1e-6;
}

} // namespace

struct ServeLoad::Impl
{
    ServeLoadConfig config;
    std::mt19937_64 rng;
    std::vector<serve::PlanQuery> queries; //!< working set, then fresh
    std::uint32_t nextFreshNodes = 1000;
    std::uint64_t nextId = 1;

    std::unique_ptr<serve::Server> server;
    /** Sends on the generator thread, receives on the reply reader;
     *  the two touch disjoint Client state. */
    serve::Client client;
    std::mutex replyMutex;
    Schedule *current = nullptr; //!< guarded by replyMutex
    std::atomic<bool> stopReceiver{false};
    std::atomic<std::uint64_t> strayReplies{0};
    Schedule schedule;
    serve::ServeSnapshot before; //!< around the schedule
    serve::ServeSnapshot after;
    std::vector<campaign::FlatJson> serverSpans;
    std::uint64_t mismatches = 0;
    std::uint64_t distinctChecked = 0;
    std::vector<std::string> notes;
    std::thread receiver; //!< last: uses the members above

    explicit Impl(ServeLoadConfig cfg)
        : config(std::move(cfg)), rng(config.seed * 0x9e3779b97f4a7c15ull + 1)
    {
        for (std::size_t i = 0; i < kWorkingSet; ++i)
            queries.push_back(
                makeQuery(static_cast<std::uint32_t>(i + 1)));
    }

    double uniform() { return static_cast<double>(rng() >> 11) * 0x1.0p-53; }
    std::size_t pick(std::size_t n) { return rng() % n; }

    /**
     * A planning query over 1-4 units of the universe: one site, month
     * and day seed, distinct policies x distinct workload mixes. The
     * size brackets the repository's example queries (1 unit in
     * microbench_serve, 2 in the CI serve smoke batches).
     * @p nodes (the fleet multiplier) makes each query's key distinct.
     */
    serve::PlanQuery makeQuery(std::uint32_t nodes)
    {
        const campaign::ScenarioGrid &u = config.universe;
        serve::PlanQuery q;
        q.grid = u;
        q.grid.sites = {u.sites[pick(u.sites.size())]};
        q.grid.months = {u.months[pick(u.months.size())]};
        q.grid.seeds = {u.seeds[pick(u.seeds.size())]};
        // np policies x nw mixes = 1-4 units, among the shapes the
        // universe's axes allow.
        const std::size_t units = 1 + pick(4);
        std::vector<std::pair<std::size_t, std::size_t>> shapes;
        for (std::size_t np = 1; np <= u.policies.size(); ++np)
            if (units % np == 0 && units / np <= u.workloads.size())
                shapes.emplace_back(np, units / np);
        const auto [np, nw] = shapes[pick(shapes.size())];
        const auto choose = [&](auto all, std::size_t k) {
            for (std::size_t i = 0; i < k; ++i)
                std::swap(all[i], all[i + pick(all.size() - i)]);
            all.resize(k);
            return all;
        };
        q.grid.policies = choose(u.policies, np);
        q.grid.workloads = choose(u.workloads, nw);
        q.nodesPerUnit = nodes;
        return q;
    }

    /** Draw @p seconds of Poisson arrivals at kRate into schedule. */
    void plan(double seconds)
    {
        schedule.baseId = nextId;
        double t = 0.0;
        for (;;) {
            t += -std::log(1.0 - uniform()) / kRate;
            if (t >= seconds)
                break;
            Slot s;
            s.dueNs = static_cast<std::int64_t>(t * 1e9);
            s.repeat = uniform() < kRepeatShare;
            if (s.repeat) {
                s.query = static_cast<std::uint32_t>(pick(kWorkingSet));
            } else {
                s.query = static_cast<std::uint32_t>(queries.size());
                queries.push_back(makeQuery(nextFreshNodes++));
            }
            serve::PlanQuery q = queries[s.query];
            q.requestId = nextId++;
            schedule.payloads.push_back(serve::encodeQuery(q));
            schedule.slots.push_back(std::move(s));
        }
    }

    void receiveLoop()
    {
        std::string frame, error;
        while (!stopReceiver.load()) {
            if (!client.receiveFrame(frame, 20))
                continue;
            const std::int64_t t = nowNs();
            serve::PlanReply reply;
            std::lock_guard<std::mutex> lock(replyMutex);
            Schedule *sched = current;
            if (!serve::decodeReply(frame, reply, error) || !sched ||
                reply.requestId < sched->baseId ||
                reply.requestId - sched->baseId >= sched->slots.size()) {
                strayReplies.fetch_add(1);
                continue;
            }
            Slot &s = sched->slots[reply.requestId - sched->baseId];
            s.recvNs = t;
            s.status = reply.status;
            if (reply.status == serve::ReplyStatus::Ok)
                s.body = serve::encodeAnswerBody(reply.answer);
            s.replied = true;
            sched->received.fetch_add(1);
        }
    }

    /** Send every request when it is due and wait for every reply. */
    void drive()
    {
        {
            std::lock_guard<std::mutex> lock(replyMutex);
            current = &schedule;
        }
        const std::int64_t start = nowNs() + 5'000'000;
        for (std::size_t i = 0; i < schedule.slots.size(); ++i) {
            Slot &s = schedule.slots[i];
            s.dueNs += start;
            // Sleep to just short of the due time, then spin: the
            // kernel's timer slack would otherwise make every send late.
            std::this_thread::sleep_until(Clock::time_point(
                std::chrono::nanoseconds(s.dueNs - 200'000)));
            while (nowNs() < s.dueNs) {
            }
            s.sendNs = nowNs();
            if (!client.sendFramePayload(schedule.payloads[i]))
                notes.push_back("send failed");
        }
        const Clock::time_point t0 = Clock::now();
        while (schedule.received.load() < schedule.slots.size() &&
               secondsSince(t0) < kDrainTimeoutS)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        // After this no reply touches the slots.
        std::lock_guard<std::mutex> lock(replyMutex);
        current = nullptr;
    }
};

ServeLoad::ServeLoad(ServeLoadConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
}

ServeLoad::~ServeLoad() { stop(); }

bool
ServeLoad::start()
{
    Impl &m = *impl_;
    serve::ServeConfig sc;
    sc.socketPath =
        m.config.workDir + "/serve-" + std::to_string(::getpid()) + ".sock";
    sc.workers = m.config.serverWorkers;
    // Deep enough that a stall of the host (not of the server) cannot
    // fill it and shed requests.
    sc.maxQueueDepth = 1024;
    sc.traceOut = m.config.workDir + "/serve-spans.jsonl";
    sc.traceSample = 1; // every request
    const std::uint64_t span = spans_.open("serve.Server.start");
    m.server = std::make_unique<serve::Server>(sc);
    const bool started = m.server->start();
    spans_.close(span);
    if (!started || !m.client.connect(sc.socketPath))
        return false;

    // Answer the working set once, one query at a time (no queueing),
    // so every later repeat is an answer-cache hit.
    for (std::size_t i = 0; i < kWorkingSet; ++i) {
        serve::PlanQuery q = m.queries[i];
        q.requestId = m.nextId++;
        serve::PlanReply reply;
        std::string error;
        const std::uint64_t call = spans_.open("serve.Client.call");
        const bool ok = m.client.call(q, reply, 30'000, error);
        spans_.close(call);
        if (!ok || reply.status != serve::ReplyStatus::Ok) {
            std::cerr << "perfbench: working-set query failed: " << error
                      << "\n";
            return false;
        }
    }
    m.receiver = std::thread([&m] { m.receiveLoop(); });
    return true;
}

void
ServeLoad::stop()
{
    Impl &m = *impl_;
    m.stopReceiver.store(true);
    if (m.receiver.joinable())
        m.receiver.join();
    m.client.close();
    if (m.server) {
        m.server->stop();
        m.server.reset();
        if (!readSpanExport(m.config.workDir + "/serve-spans.jsonl",
                            m.serverSpans))
            m.notes.push_back("serve span export unreadable");
    }
}

bool
ServeLoad::run(double seconds)
{
    Impl &m = *impl_;
    m.before = m.server->snapshot();
    m.plan(seconds);
    const std::uint64_t span = spans_.open("serve.schedule");
    m.drive();
    spans_.close(span);
    for (const Slot &s : m.schedule.slots)
        spans_.add(s.repeat ? "serve.request.hit" : "serve.request.miss",
                   s.dueNs, s.replied ? s.recvNs : nowNs(), span);
    m.after = m.server->snapshot();

    std::vector<double> lag;
    for (const Slot &s : m.schedule.slots)
        lag.push_back(static_cast<double>(s.sendNs - s.dueNs) * 1e-6);
    const double lag_p99 = quantile(lag, 0.99);
    if (lag_p99 > kMaxGenLagMs) {
        std::cerr << "perfbench: generator lag p99 " << lag_p99
                  << " ms exceeds " << kMaxGenLagMs
                  << " ms; the run is invalid\n";
        return false;
    }
    return true;
}

void
ServeLoad::verify(const std::vector<campaign::ScenarioUnit> &units,
                  const std::vector<campaign::UnitMetrics> &results)
{
    Impl &m = *impl_;
    std::map<std::string, std::size_t> index;
    for (std::size_t i = 0; i < units.size(); ++i)
        index[campaign::unitKey(units[i])] = i;

    // The reference answer: the universe's unit results aggregated the
    // way the planner does, through core::aggregateFleet/assessEnergy.
    std::map<std::uint32_t, std::string> expected;
    const auto answer = [&](std::uint32_t qi) -> const std::string & {
        auto it = expected.find(qi);
        if (it != expected.end())
            return it->second;
        const serve::PlanQuery &q = m.queries[qi];
        std::vector<core::FleetGroupEnergy> groups;
        for (const campaign::ScenarioUnit &u : campaign::expandGrid(q.grid)) {
            const auto found = index.find(campaign::unitKey(u));
            if (found == index.end())
                return expected[qi]; // empty: no reference, mismatch
            const campaign::UnitMetrics &r = results[found->second];
            core::FleetGroupEnergy g;
            g.nodeCount = static_cast<double>(q.nodesPerUnit);
            g.mppEnergyWh = r.mppEnergyWh;
            g.solarEnergyWh = r.solarEnergyWh;
            g.gridEnergyWh = r.gridEnergyWh;
            g.chipEnergyWh = r.chipEnergyWh;
            g.solarInstructions = r.solarInstructions;
            g.totalInstructions = r.totalInstructions;
            groups.push_back(g);
        }
        const core::FleetTotals t = core::aggregateFleet(groups);
        const core::CarbonReport c =
            core::assessEnergy(t.solarEnergyWh, t.gridEnergyWh, q.econ);
        serve::PlanAnswer a;
        a.unitCount = static_cast<std::uint32_t>(groups.size());
        a.nodesPerUnit = q.nodesPerUnit;
        a.nodes = t.nodes;
        a.mppEnergyWh = t.mppEnergyWh;
        a.solarEnergyWh = t.solarEnergyWh;
        a.gridEnergyWh = t.gridEnergyWh;
        a.chipEnergyWh = t.chipEnergyWh;
        a.solarInstructions = t.solarInstructions;
        a.totalInstructions = t.totalInstructions;
        a.fleetUtilization = t.fleetUtilization;
        a.greenFraction = t.greenFraction;
        a.solarKwhPerDay = c.solarKwhPerDay;
        a.gridKwhPerDay = c.gridKwhPerDay;
        a.co2AvoidedKgPerYear = c.co2AvoidedKgPerYear;
        a.savingsUsdPerYear = c.savingsUsdPerYear;
        a.panelPaybackYears = c.panelPaybackYears;
        a.batteryAvoidedUsdPerYear = c.batteryAvoidedUsdPerYear;
        return expected[qi] = serve::encodeAnswerBody(a);
    };

    for (const Slot &s : m.schedule.slots)
        if (s.replied && s.status == serve::ReplyStatus::Ok &&
            s.body != answer(s.query))
            ++m.mismatches;
    m.distinctChecked = expected.size();
}

void
ServeLoad::reportLayers(Report &report) const
{
    const Impl &m = *impl_;
    const Schedule &sched = m.schedule;
    std::vector<double> hit, miss, lag;
    std::uint64_t repeats = 0;
    for (const Slot &s : sched.slots) {
        (s.repeat ? hit : miss).push_back(latencyMs(s));
        repeats += s.repeat;
        lag.push_back(static_cast<double>(s.sendNs - s.dueNs) * 1e-6);
    }
    report.add("serve.hit_ms_p50", quantile(hit, 0.5), "ms");
    report.add("serve.hit_ms_p99", quantile(hit, 0.99), "ms");
    report.add("serve.miss_ms_p50", quantile(miss, 0.5), "ms");
    report.add("serve.miss_ms_p99", quantile(miss, 0.99), "ms");
    report.add("serve.queue_ms_p99", m.after.queueP99Ms, "ms");
    report.add("serve.service_ms_p99", m.after.serviceP99Ms, "ms");

    const double hits =
        static_cast<double>(m.after.resultCacheHits - m.before.resultCacheHits);
    const double lookups = hits +
        static_cast<double>(m.after.resultCacheMisses -
                            m.before.resultCacheMisses);
    report.add("serve.result_cache.hit_ratio",
               lookups > 0 ? hits / lookups : 0.0, "1");
    const std::uint64_t shed =
        (m.after.shedCapacity - m.before.shedCapacity) +
        (m.after.shedDeadline - m.before.shedDeadline) +
        (m.after.expired - m.before.expired);
    report.add("serve.shed_frac",
               static_cast<double>(shed) /
                   static_cast<double>(sched.slots.size()),
               "1");
    report.add("serve.units_simulated",
               static_cast<double>(m.after.unitsSimulated -
                                   m.before.unitsSimulated),
               "count");
    report.add("bench.gen_lag_ms_p99", quantile(lag, 0.99), "ms");

    report.notes.push_back(
        "answer-cache hits " + std::to_string(static_cast<long>(hits)) +
        " for " + std::to_string(repeats) + " working-set requests (share " +
        std::to_string(static_cast<double>(repeats) /
                       static_cast<double>(sched.slots.size())) +
        ", configured " + std::to_string(kRepeatShare) + ")");
}

void
ServeLoad::tally(Report &report) const
{
    const Impl &m = *impl_;
    std::uint64_t sent = 0, failed = 0, repeats = 0;
    for (const Slot &s : m.schedule.slots) {
        ++sent;
        failed += !s.replied || s.status != serve::ReplyStatus::Ok;
        repeats += s.repeat;
    }
    report.attempted += sent;
    report.failed += failed + m.mismatches;
    report.notes.push_back(
        "serve answers checked: " + std::to_string(m.distinctChecked) +
        " distinct queries, " + std::to_string(m.mismatches) +
        " mismatching replies, " + std::to_string(failed) +
        " failed or shed, " + std::to_string(m.strayReplies.load()) +
        " stray replies");
    report.notes.insert(report.notes.end(), m.notes.begin(), m.notes.end());

    // Checks: each fails the run. Nothing is shed by design (no
    // deadline, a deep queue), and every repeat must hit.
    const auto fail = [&](const std::string &what) {
        report.notes.push_back("CHECK FAILED: " + what);
        report.correct = false;
    };
    if (m.distinctChecked == 0)
        fail("no serve answer was checked");
    if (m.mismatches != 0)
        fail("serve answers differ from the reference");
    if (failed != 0)
        fail("serve requests failed, were shed or went unanswered");
    const std::uint64_t hits =
        m.after.resultCacheHits - m.before.resultCacheHits;
    if (hits != repeats)
        fail("answer-cache hits " + std::to_string(hits) +
             " differ from working-set requests " + std::to_string(repeats));
    std::uint64_t span_hits = 0;
    for (const auto &s : m.serverSpans)
        span_hits += spanText(s, "name") == "service" &&
            spanText(s, "attrs.result_cache") == "hit";
    if (m.after.trace.droppedSpans != 0 ||
        span_hits != m.after.resultCacheHits)
        fail("server span export (" + std::to_string(span_hits) +
             " cache-hit services, " +
             std::to_string(m.after.trace.droppedSpans) +
             " dropped spans) disagrees with its hit counter " +
             std::to_string(m.after.resultCacheHits));
}

} // namespace perfbench
