#include "server.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "campaign/campaign.hpp"
#include "core/carbon.hpp"
#include "core/fleet.hpp"
#include "core/simulation.hpp"
#include "obs/json.hpp"
#include "pv/pv_kernel.hpp"
#include "util/logging.hpp"

#if !defined(_WIN32)
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace solarcore::serve {

bool
serveSupported()
{
#if defined(_WIN32)
    return false;
#else
    return true;
#endif
}

/** One accepted client connection. The IO thread owns the reader;
 *  workers only write (under writeMutex) through their shared_ptr, so
 *  the fd stays open until the last in-flight reply is done. */
struct Server::Conn
{
    int fd = -1;
    std::mutex writeMutex;
    std::atomic<bool> open{true};
    util::FrameReader reader;

    ~Conn()
    {
#if !defined(_WIN32)
        if (fd >= 0)
            ::close(fd);
#endif
    }
};

/** One admitted request waiting for (or on) a worker. */
struct Server::Request
{
    std::shared_ptr<Conn> conn;
    PlanQuery query;
    std::chrono::steady_clock::time_point arrival;
    bool hasDeadline = false;
    std::chrono::steady_clock::time_point deadline;
    // Tracing: the staged span buffer travels with the request from
    // the IO thread to its worker (null when tracing is off).
    std::unique_ptr<obs::RequestTrace> trace;
    std::size_t rootSpan = obs::RequestTrace::kNoSpan;
    std::size_t queueSpan = obs::RequestTrace::kNoSpan;
    std::size_t serviceSpan = obs::RequestTrace::kNoSpan;
    bool clientTraced = false;
    bool headSampled = false;
};

namespace {

/** Latency histogram bucket upper edges [ms] (+Inf is implicit). */
const std::vector<double> &
latencyBoundsMs()
{
    static const std::vector<double> bounds = {1.0,  2.0,   5.0,
                                               10.0, 25.0,  50.0,
                                               100.0, 250.0, 1000.0};
    return bounds;
}

} // namespace

/** Count @p ms into @p hist; a non-zero @p trace_id pins an exemplar
 *  on the bucket it lands in (only ids of committed traces, so every
 *  exemplar resolves in the span export). */
void
Server::addLatency(LatencyHist &hist, double ms, std::uint64_t trace_id)
{
    const auto &bounds = latencyBoundsMs();
    if (hist.counts.empty()) {
        hist.counts.assign(bounds.size(), 0);
        hist.exemplars.assign(bounds.size() + 1, obs::MetricExemplar{});
    }
    std::size_t bin = bounds.size(); // +Inf
    for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (ms <= bounds[i]) {
            bin = i;
            break;
        }
    }
    if (bin < hist.counts.size())
        hist.counts[bin] += 1;
    hist.total += 1;
    hist.sumMs += ms;
    if (trace_id != 0) {
        obs::MetricExemplar &ex = hist.exemplars[bin];
        ex.valid = true;
        ex.labels = {{"trace_id", obs::spanIdHex(trace_id)}};
        ex.value = ms;
        ex.timestampSeconds =
            std::chrono::duration<double>(
                std::chrono::system_clock::now().time_since_epoch())
                .count();
    }
}

Server::Server(ServeConfig config)
    : config_(std::move(config)), resultCache_(config_.resultCacheCap),
      unitMicrosEwma_(config_.estimateInitUnitMicros),
      spanSink_(std::max<std::size_t>(1, config_.traceBufferSpans)),
      start_(std::chrono::steady_clock::now()), lastPublish_(start_)
{
    tracingEnabled_ =
        !config_.traceOut.empty() || !config_.tracePerfettoOut.empty();
}

Server::~Server()
{
    stop();
}

bool
Server::start()
{
#if defined(_WIN32)
    SC_WARN("serve: AF_UNIX sockets unavailable on this platform");
    return false;
#else
    if (started_)
        return true;
    if (config_.socketPath.empty()) {
        SC_WARN("serve: empty socket path");
        return false;
    }

    // Resolve the PV kernel exactly like runCampaign: "auto" picks the
    // best supported kernel, and the *resolved* name feeds every cache
    // key so answers are never mixed across kernels.
    pv::PvKernel kernel = pv::PvKernel::Portable;
    if (!pv::resolvePvKernel(config_.pvKernel, kernel)) {
        SC_WARN("serve: pv kernel '", config_.pvKernel,
                "' unknown or not supported on this cpu");
        return false;
    }
    pv::setPvKernel(kernel);
    resolvedKernel_ = pv::pvKernelName(kernel);

    if (!config_.unitCacheDir.empty()) {
        // Same salt as a campaign run with --audit=off, so the two
        // tools share warm entries.
        unitCache_ = std::make_unique<campaign::UnitResultCache>(
            config_.unitCacheDir, config_.unitCacheCap, "audit=off");
        if (!unitCache_->ok()) {
            SC_WARN("serve: unit cache directory '", config_.unitCacheDir,
                    "' unusable; continuing without");
            unitCache_.reset();
        }
    }

    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sun_family = AF_UNIX;
    if (config_.socketPath.size() >= sizeof addr.sun_path) {
        SC_WARN("serve: socket path too long: ", config_.socketPath);
        return false;
    }
    std::memcpy(addr.sun_path, config_.socketPath.c_str(),
                config_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        SC_WARN("serve: socket() failed: ", std::strerror(errno));
        return false;
    }
    // A stale socket file from a dead server would make bind fail;
    // the daemon owns its path.
    ::unlink(config_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listenFd_, 64) != 0) {
        SC_WARN("serve: cannot bind '", config_.socketPath,
                "': ", std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }
    ::fcntl(listenFd_, F_SETFL, O_NONBLOCK);

    if (config_.metricsPort >= 0)
        endpoint_.start(config_.metricsPort);

    start_ = std::chrono::steady_clock::now();
    lastPublish_ = start_;
    running_.store(true);
    started_ = true;

    const int n_workers = std::max(1, config_.workers);
    workers_.reserve(static_cast<std::size_t>(n_workers));
    for (int i = 0; i < n_workers; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
    ioThread_ = std::thread([this] { ioLoop(); });

    publish(/*force=*/true);
    return true;
#endif
}

void
Server::stop()
{
#if !defined(_WIN32)
    if (!started_)
        return;
    running_.store(false);
    queueCv_.notify_all();
    // Workers drain the queue (answering ShuttingDown) before they
    // exit; in-flight replies hold their Conn alive via shared_ptr.
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
    if (ioThread_.joinable())
        ioThread_.join();
    conns_.clear();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(config_.socketPath.c_str());
    publish(/*force=*/true);
    if (tracingEnabled_) {
        std::string error;
        if (!obs::writeSpanExports(spanSink_.snapshot(),
                                   config_.traceOut,
                                   config_.tracePerfettoOut, error))
            SC_WARN("serve: span export failed: ", error);
    }
    endpoint_.stop();
    started_ = false;
#endif
}

#if !defined(_WIN32)

void
Server::ioLoop()
{
    std::vector<struct pollfd> pfds;
    while (running_.load()) {
        pfds.clear();
        pfds.push_back({listenFd_, POLLIN, 0});
        for (const auto &conn : conns_)
            pfds.push_back({conn->fd, POLLIN, 0});
        const int rc =
            ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 100);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            SC_WARN_ONCE("serve: poll failed: ", std::strerror(errno));
            break;
        }
        // acceptClients() appends to conns_, so remember how many
        // connections the pollfd array actually covers before it
        // runs; freshly accepted fds get polled next iteration.
        const std::size_t polled = conns_.size();
        if (pfds[0].revents & POLLIN)
            acceptClients();
        // Walk the polled prefix: drainConn can reply inline (shed
        // paths) but never mutates conns_.
        std::vector<std::shared_ptr<Conn>> dead;
        for (std::size_t i = 0; i < polled; ++i) {
            const auto &conn = conns_[i];
            if (!(pfds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            if (!drainConn(conn))
                dead.push_back(conn);
        }
        for (const auto &conn : dead) {
            conn->open.store(false);
            conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                         conns_.end());
        }
    }
    // Leaving: new reads stop; open fds close once the last worker
    // reply drops its reference.
    for (const auto &conn : conns_)
        conn->open.store(false);
}

void
Server::acceptClients()
{
    for (;;) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN: accepted everything pending
        }
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conn->reader.setMaxFrameBytes(kMaxFrameBytes);
        conns_.push_back(std::move(conn));
        connections_.fetch_add(1);
    }
}

bool
Server::drainConn(const std::shared_ptr<Conn> &conn)
{
    std::vector<std::string> frames;
    const auto status = conn->reader.drain(conn->fd, frames);
    for (const std::string &frame : frames)
        handleFrame(conn, frame);
    switch (status) {
    case util::FrameReader::Status::Open:
        return true;
    case util::FrameReader::Status::Closed:
        // A torn trailing frame on a clean close is a protocol error
        // (the client died mid-frame); a bare close is just a client
        // going away.
        if (conn->reader.pendingBytes() != 0)
            protocolErrors_.fetch_add(1);
        disconnects_.fetch_add(1);
        return false;
    case util::FrameReader::Status::Error:
    default:
        // Read error or an over-cap declared frame length.
        protocolErrors_.fetch_add(1);
        disconnects_.fetch_add(1);
        return false;
    }
}

void
Server::handleFrame(const std::shared_ptr<Conn> &conn,
                    const std::string &frame)
{
    requests_.fetch_add(1);
    const std::int64_t arrival_ns = obs::spanNowNs();
    Request req;
    req.conn = conn;
    req.arrival = std::chrono::steady_clock::now();

    std::string error;
    if (!decodeQuery(frame, req.query, error)) {
        // No trace for undecodable frames: the trace id (if any) is
        // part of what failed to parse.
        badRequest_.fetch_add(1);
        replyError(conn, req.query.requestId, ReplyStatus::BadRequest,
                   error);
        publish(/*force=*/false);
        return;
    }
    const std::size_t units = req.query.grid.unitCount();

    if (tracingEnabled_) {
        // Stage spans speculatively for every request; the commit /
        // discard decision happens in finishRequest() when the
        // outcome (slow? shed? expired?) is known. Backdate the root
        // and io.read spans to frame arrival so decode time is
        // covered.
        req.clientTraced = req.query.traceId != 0;
        const std::uint64_t seq = traceSeq_.fetch_add(1) + 1;
        req.headSampled = config_.traceSample > 0 &&
            seq % config_.traceSample == 0;
        req.trace = std::make_unique<obs::RequestTrace>();
        req.trace->begin(req.clientTraced ? req.query.traceId
                                          : obs::newTraceId());
        req.rootSpan = req.trace->openSpan("request");
        const std::uint64_t root_id = req.trace->spanId(req.rootSpan);
        if (obs::SpanRecord *root = req.trace->span(req.rootSpan)) {
            root->startNs = arrival_ns;
            root->attr("request_id",
                       static_cast<std::int64_t>(req.query.requestId));
            root->attr("client_traced", req.clientTraced);
            root->attr("units", static_cast<std::int64_t>(units));
        }
        const std::size_t io_span =
            req.trace->openSpan("io.read", root_id);
        if (obs::SpanRecord *io = req.trace->span(io_span))
            io->startNs = arrival_ns;
        req.trace->closeSpan(io_span);
    }
    const std::uint64_t root_id =
        req.trace ? req.trace->spanId(req.rootSpan) : 0;
    const std::size_t admit_span =
        req.trace ? req.trace->openSpan("admit", root_id)
                  : obs::RequestTrace::kNoSpan;
    auto admitted = [&](const char *decision) {
        if (req.trace) {
            if (obs::SpanRecord *s = req.trace->span(admit_span))
                s->attr("decision", decision);
            req.trace->closeSpan(admit_span);
        }
    };

    if (units > config_.maxUnitsPerQuery) {
        badRequest_.fetch_add(1);
        admitted("unit-cap");
        // As in the worker loop: bookkeeping lands before the reply
        // frame so a serial client never observes a reply whose
        // request is missing from the slow log or histograms.
        finishRequest(req, ReplyStatus::BadRequest, -1.0, -1.0,
                      static_cast<std::uint32_t>(units));
        replyError(conn, req.query.requestId, ReplyStatus::BadRequest,
                   "grid exceeds the server's unit cap");
        publish(/*force=*/false);
        return;
    }
    if (!running_.load()) {
        shuttingDown_.fetch_add(1);
        admitted("shutting-down");
        finishRequest(req, ReplyStatus::ShuttingDown, -1.0, -1.0,
                      static_cast<std::uint32_t>(units));
        replyError(conn, req.query.requestId, ReplyStatus::ShuttingDown,
                   "server is shutting down");
        return;
    }
    if (req.query.deadlineMillis > 0) {
        req.hasDeadline = true;
        req.deadline = req.arrival +
            std::chrono::milliseconds(req.query.deadlineMillis);
        // Predictive shed: simulating this grid at the current
        // estimate would blow the deadline, so say no *now* instead
        // of wasting a worker on an answer nobody can use.
        const double est = estimateUnitMicros();
        if (est > 0.0 &&
            est * static_cast<double>(units) >
                1000.0 * static_cast<double>(req.query.deadlineMillis)) {
            shedDeadline_.fetch_add(1);
            admitted("shed-deadline");
            finishRequest(req, ReplyStatus::ShedDeadline, -1.0, -1.0,
                          static_cast<std::uint32_t>(units));
            replyError(conn, req.query.requestId,
                       ReplyStatus::ShedDeadline,
                       "deadline shorter than the predicted service time");
            publish(/*force=*/false);
            return;
        }
    }
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        if (queue_.size() >= config_.maxQueueDepth) {
            shedCapacity_.fetch_add(1);
            admitted("shed-capacity");
            finishRequest(req, ReplyStatus::ShedCapacity, -1.0, -1.0,
                          static_cast<std::uint32_t>(units));
            replyError(conn, req.query.requestId,
                       ReplyStatus::ShedCapacity, "request queue full");
            publish(/*force=*/false);
            return;
        }
        admitted("ok");
        if (req.trace)
            req.queueSpan = req.trace->openSpan("queue.wait", root_id);
        queue_.push_back(std::move(req));
    }
    queueCv_.notify_one();
}

void
Server::replyError(const std::shared_ptr<Conn> &conn,
                   std::uint64_t request_id, ReplyStatus status,
                   const std::string &message)
{
    PlanReply reply;
    reply.requestId = request_id;
    reply.status = status;
    reply.message = message;
    const std::string payload = encodeReply(reply);
    std::lock_guard<std::mutex> lock(conn->writeMutex);
    if (!conn->open.load())
        return;
    if (!sendFrame(conn->fd, payload))
        conn->open.store(false);
}

void
Server::workerLoop(int worker_index)
{
    (void)worker_index;
    // One reusable simulation workspace per worker: steady-state unit
    // execution is allocation-free, same as the campaign pool.
    core::SimWorkspace workspace;
    for (;;) {
        Request req;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return !queue_.empty() || !running_.load();
            });
            if (queue_.empty()) {
                if (!running_.load())
                    return;
                continue;
            }
            req = std::move(queue_.front());
            queue_.pop_front();
        }
        inflight_.fetch_add(1);
        const auto dequeued = std::chrono::steady_clock::now();
        const double queue_ms =
            std::chrono::duration<double, std::milli>(dequeued -
                                                      req.arrival)
                .count();
        recordLatency("queue", std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(
                                   dequeued - req.arrival)
                                   .count());
        const std::uint32_t units =
            static_cast<std::uint32_t>(req.query.grid.unitCount());
        obs::RequestTrace *trace = req.trace.get();
        const std::uint64_t root_id =
            trace ? trace->spanId(req.rootSpan) : 0;
        if (trace) {
            trace->closeSpan(req.queueSpan);
            // Spans opened from here render on this worker's lane.
            trace->setLane(static_cast<std::uint32_t>(worker_index) + 1);
        }

        if (!running_.load()) {
            shuttingDown_.fetch_add(1);
            finishRequest(req, ReplyStatus::ShuttingDown, queue_ms, -1.0,
                          units);
            replyError(req.conn, req.query.requestId,
                       ReplyStatus::ShuttingDown,
                       "server is shutting down");
            inflight_.fetch_sub(1);
            continue;
        }
        if (req.hasDeadline && dequeued > req.deadline) {
            expired_.fetch_add(1);
            finishRequest(req, ReplyStatus::Expired, queue_ms, -1.0,
                          units);
            replyError(req.conn, req.query.requestId, ReplyStatus::Expired,
                       "deadline passed while queued");
            inflight_.fetch_sub(1);
            publish(/*force=*/false);
            continue;
        }

        std::string body;
        bool expired = false;
        bool ok = false;
        double service_ms = 0.0;
        {
            // The workspace travels via the profiler-less fast path;
            // latency is recorded manually under the shared profiler.
            if (trace) {
                req.serviceSpan = trace->openSpan("service", root_id);
                if (obs::SpanRecord *s = trace->span(req.serviceSpan)) {
                    s->attr("kernel", resolvedKernel_.c_str());
                    s->attr("worker",
                            static_cast<std::int64_t>(worker_index));
                }
            }
            const auto t0 = std::chrono::steady_clock::now();
            ok = executeQueryWith(req, body, expired, workspace);
            const auto t1 = std::chrono::steady_clock::now();
            if (trace)
                trace->closeSpan(req.serviceSpan);
            service_ms =
                std::chrono::duration<double, std::milli>(t1 - t0)
                    .count();
            recordLatency("service",
                          std::chrono::duration_cast<
                              std::chrono::nanoseconds>(t1 - t0)
                              .count());
        }
        ReplyStatus status = ReplyStatus::Ok;
        std::string payload;
        if (expired) {
            status = ReplyStatus::Expired;
            expired_.fetch_add(1);
        } else if (!ok) {
            status = ReplyStatus::ServerError;
            serverError_.fetch_add(1);
        } else {
            ok_.fetch_add(1);
            obs::SpanScope reply_span(trace, "reply", root_id);
            payload = encodeReplyFromBody(req.query.requestId, body);
            reply_span.attr("bytes",
                            static_cast<std::int64_t>(payload.size()));
        }
        // Bookkeeping must land before the reply frame leaves: a
        // client that has read reply N and then issues N+1 is
        // guaranteed to find N already in the slow-query log and
        // histograms, so the log order matches a serial client's
        // issue order.
        finishRequest(req, status, queue_ms, service_ms, units);
        if (status == ReplyStatus::Expired) {
            replyError(req.conn, req.query.requestId, ReplyStatus::Expired,
                       "deadline passed during simulation");
        } else if (status == ReplyStatus::ServerError) {
            replyError(req.conn, req.query.requestId,
                       ReplyStatus::ServerError, "internal error");
        } else {
            std::lock_guard<std::mutex> lock(req.conn->writeMutex);
            if (req.conn->open.load() &&
                !sendFrame(req.conn->fd, payload))
                req.conn->open.store(false);
        }
        if (config_.verbose) {
            std::string line = "serve: request ";
            line += std::to_string(req.query.requestId);
            line += expired ? " expired\n" : (ok ? " ok\n" : " error\n");
            std::cerr << line;
        }
        inflight_.fetch_sub(1);
        publish(/*force=*/false);
    }
}

bool
Server::executeQueryWith(const Request &req, std::string &body,
                         bool &expired, core::SimWorkspace &workspace)
{
    obs::RequestTrace *trace = req.trace.get();
    const std::uint64_t service_id =
        trace ? trace->spanId(req.serviceSpan) : 0;
    const std::string material =
        queryKeyMaterial(req.query, resolvedKernel_);
    {
        std::lock_guard<std::mutex> lock(resultCacheMutex_);
        if (resultCache_.lookup(material, body)) {
            if (obs::SpanRecord *s =
                    trace ? trace->span(req.serviceSpan) : nullptr)
                s->attr("result_cache", "hit");
            return true;
        }
    }
    if (obs::SpanRecord *s =
            trace ? trace->span(req.serviceSpan) : nullptr)
        s->attr("result_cache", "miss");

    campaign::ScenarioGrid grid = req.query.grid;
    grid.pvKernel = resolvedKernel_;
    const std::vector<campaign::ScenarioUnit> units =
        campaign::expandGrid(grid);

    std::vector<core::FleetGroupEnergy> groups;
    groups.reserve(units.size());
    std::uint64_t simulated = 0;
    const auto service_start = std::chrono::steady_clock::now();
    std::size_t unit_index = 0;
    for (const campaign::ScenarioUnit &unit : units) {
        if (req.hasDeadline &&
            std::chrono::steady_clock::now() > req.deadline) {
            expired = true;
            return false;
        }
        obs::SpanScope unit_span(trace, "unit", service_id);
        unit_span.attr("unit",
                       static_cast<std::int64_t>(unit_index++));
        campaign::UnitMetrics m;
        bool cached = false;
        if (unitCache_ && unitCache_->lookup(grid, unit, m)) {
            cached = true;
            unitsFromUnitCache_.fetch_add(1);
        }
        if (!cached) {
            m = campaign::runUnit(unit, grid, nullptr, nullptr, nullptr,
                                  nullptr, &workspace);
            unitsSimulated_.fetch_add(1);
            ++simulated;
            if (unitCache_)
                unitCache_->store(grid, unit, m);
        }
        unit_span.attr("cache", cached ? "hit" : "miss");
        unit_span.attr("kernel", resolvedKernel_.c_str());
        unit_span.close();
        core::FleetGroupEnergy g;
        g.nodeCount = static_cast<double>(req.query.nodesPerUnit);
        g.mppEnergyWh = m.mppEnergyWh;
        g.solarEnergyWh = m.solarEnergyWh;
        g.gridEnergyWh = m.gridEnergyWh;
        g.chipEnergyWh = m.chipEnergyWh;
        g.solarInstructions = m.solarInstructions;
        g.totalInstructions = m.totalInstructions;
        groups.push_back(g);
    }

    obs::SpanScope agg_span(trace, "aggregate", service_id);
    agg_span.attr("groups", static_cast<std::int64_t>(groups.size()));
    const core::FleetTotals totals = core::aggregateFleet(groups);
    const core::CarbonReport carbon = core::assessEnergy(
        totals.solarEnergyWh, totals.gridEnergyWh, req.query.econ);

    PlanAnswer answer;
    answer.unitCount = static_cast<std::uint32_t>(units.size());
    answer.nodesPerUnit = req.query.nodesPerUnit;
    answer.nodes = totals.nodes;
    answer.mppEnergyWh = totals.mppEnergyWh;
    answer.solarEnergyWh = totals.solarEnergyWh;
    answer.gridEnergyWh = totals.gridEnergyWh;
    answer.chipEnergyWh = totals.chipEnergyWh;
    answer.solarInstructions = totals.solarInstructions;
    answer.totalInstructions = totals.totalInstructions;
    answer.fleetUtilization = totals.fleetUtilization;
    answer.greenFraction = totals.greenFraction;
    answer.solarKwhPerDay = carbon.solarKwhPerDay;
    answer.gridKwhPerDay = carbon.gridKwhPerDay;
    answer.co2AvoidedKgPerYear = carbon.co2AvoidedKgPerYear;
    answer.savingsUsdPerYear = carbon.savingsUsdPerYear;
    answer.panelPaybackYears = carbon.panelPaybackYears;
    answer.batteryAvoidedUsdPerYear = carbon.batteryAvoidedUsdPerYear;
    body = encodeAnswerBody(answer);
    agg_span.close();

    {
        std::lock_guard<std::mutex> lock(resultCacheMutex_);
        resultCache_.insert(material, body);
    }
    if (simulated > 0) {
        const double micros =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - service_start)
                .count();
        updateEstimate(micros / static_cast<double>(simulated));
    }
    return true;
}

#endif // !defined(_WIN32)

void
Server::recordLatency(const char *scope, std::int64_t ns)
{
    std::lock_guard<std::mutex> lock(profMutex_);
    prof_.enter(scope);
    prof_.exit(ns);
}

void
Server::finishRequest(Request &req, ReplyStatus status, double queue_ms,
                      double service_ms, std::uint32_t units)
{
    const char *token = replyStatusName(status);
    // Tail bias: shed/expired/error outcomes and slow completions are
    // always interesting. BadRequest and ShuttingDown are excluded --
    // a fuzzing client or a shutdown burst would flood the log with
    // requests that never touched the planner.
    const bool tail_worthy = status == ReplyStatus::ShedCapacity ||
        status == ReplyStatus::ShedDeadline ||
        status == ReplyStatus::Expired ||
        status == ReplyStatus::ServerError;
    const double total_ms = (queue_ms > 0.0 ? queue_ms : 0.0) +
        (service_ms > 0.0 ? service_ms : 0.0);
    const bool slow = total_ms >= config_.slowMillis;

    std::uint64_t kept_trace = 0;
    if (req.trace) {
        if (obs::SpanRecord *root = req.trace->span(req.rootSpan))
            root->attr("status", token);
        req.trace->closeSpan(req.rootSpan);
        const bool keep = req.clientTraced || req.headSampled ||
            tail_worthy || slow;
        if (keep) {
            kept_trace = req.trace->traceId();
            if (req.clientTraced)
                tracesClientStamped_.fetch_add(1);
            else if (req.headSampled)
                tracesHeadSampled_.fetch_add(1);
            else
                tracesTailKept_.fetch_add(1);
            spanSink_.commit(*req.trace);
        } else {
            req.trace->reset();
        }
    }
    {
        std::lock_guard<std::mutex> lock(histMutex_);
        if (queue_ms >= 0.0)
            addLatency(queueHist_, queue_ms, kept_trace);
        if (service_ms >= 0.0)
            addLatency(serviceHist_, service_ms, kept_trace);
    }
    if (slow || tail_worthy) {
        SlowQueryEntry entry;
        entry.requestId = req.query.requestId;
        entry.traceId = kept_trace;
        entry.status = token;
        entry.queueMs = queue_ms > 0.0 ? queue_ms : 0.0;
        entry.serviceMs = service_ms > 0.0 ? service_ms : 0.0;
        entry.units = units;
        std::lock_guard<std::mutex> lock(slowMutex_);
        slowQueries_.push_back(std::move(entry));
        while (slowQueries_.size() > config_.slowLogCap &&
               !slowQueries_.empty())
            slowQueries_.pop_front();
    }
}

double
Server::estimateUnitMicros() const
{
    std::lock_guard<std::mutex> lock(estimateMutex_);
    return unitMicrosEwma_;
}

void
Server::updateEstimate(double measured_unit_micros)
{
    std::lock_guard<std::mutex> lock(estimateMutex_);
    if (unitMicrosEwma_ <= 0.0)
        unitMicrosEwma_ = measured_unit_micros;
    else
        unitMicrosEwma_ =
            0.7 * unitMicrosEwma_ + 0.3 * measured_unit_micros;
}

ServeSnapshot
Server::snapshot() const
{
    ServeSnapshot s;
    s.uptimeSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    s.workers = static_cast<std::size_t>(std::max(1, config_.workers));
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        s.queueDepth = queue_.size();
    }
    s.inflight = inflight_.load();
    s.connections = connections_.load();
    s.disconnects = disconnects_.load();
    s.protocolErrors = protocolErrors_.load();
    s.requests = requests_.load();
    s.ok = ok_.load();
    s.shedCapacity = shedCapacity_.load();
    s.shedDeadline = shedDeadline_.load();
    s.expired = expired_.load();
    s.badRequest = badRequest_.load();
    s.serverError = serverError_.load();
    s.shuttingDown = shuttingDown_.load();
    s.unitsSimulated = unitsSimulated_.load();
    s.unitsFromUnitCache = unitsFromUnitCache_.load();
    {
        std::lock_guard<std::mutex> lock(resultCacheMutex_);
        s.resultCacheSize = resultCache_.size();
        s.resultCacheHits = resultCache_.hits();
        s.resultCacheMisses = resultCache_.misses();
        s.resultCacheInsertions = resultCache_.insertions();
        s.resultCacheEvictions = resultCache_.evictions();
    }
    if (unitCache_) {
        s.unitCacheEnabled = true;
        s.unitCacheSize = unitCache_->size();
        s.unitCache = unitCache_->counters();
    }
    {
        std::lock_guard<std::mutex> lock(profMutex_);
        const auto &children = prof_.root().children;
        const auto q = children.find("queue");
        if (q != children.end()) {
            s.queueP50Ms = q->second->quantileNs(0.5) / 1e6;
            s.queueP99Ms = q->second->quantileNs(0.99) / 1e6;
        }
        const auto svc = children.find("service");
        if (svc != children.end()) {
            s.serviceP50Ms = svc->second->quantileNs(0.5) / 1e6;
            s.serviceP99Ms = svc->second->quantileNs(0.99) / 1e6;
        }
    }
    s.estimateUnitMicros = estimateUnitMicros();
    s.tracingEnabled = tracingEnabled_;
    s.trace = spanSink_.counters();
    s.tracesClientStamped = tracesClientStamped_.load();
    s.tracesHeadSampled = tracesHeadSampled_.load();
    s.tracesTailKept = tracesTailKept_.load();
    {
        std::lock_guard<std::mutex> lock(slowMutex_);
        s.slowQueries.assign(slowQueries_.begin(), slowQueries_.end());
    }
    return s;
}

std::string
Server::renderStatusJson(const ServeSnapshot &snap,
                         const std::string &socket_path,
                         const std::string &kernel)
{
    using obs::jsonNumber;
    using obs::jsonString;
    std::string out = "{\"schema\":\"solarcore-serve-status-v1\"";
    out += ",\"socket\":" + jsonString(socket_path);
    out += ",\"pv_kernel\":" + jsonString(kernel);
    out += ",\"uptime_seconds\":" + jsonNumber(snap.uptimeSeconds);
    out += ",\"workers\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.workers));
    out += ",\"queue_depth\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.queueDepth));
    out += ",\"inflight\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.inflight));
    out += ",\"connections\":" + jsonNumber(snap.connections);
    out += ",\"disconnects\":" + jsonNumber(snap.disconnects);
    out += ",\"protocol_errors\":" + jsonNumber(snap.protocolErrors);
    out += ",\"requests\":" + jsonNumber(snap.requests);
    out += ",\"ok\":" + jsonNumber(snap.ok);
    out += ",\"shed_capacity\":" + jsonNumber(snap.shedCapacity);
    out += ",\"shed_deadline\":" + jsonNumber(snap.shedDeadline);
    out += ",\"expired\":" + jsonNumber(snap.expired);
    out += ",\"bad_request\":" + jsonNumber(snap.badRequest);
    out += ",\"server_error\":" + jsonNumber(snap.serverError);
    out += ",\"shutting_down\":" + jsonNumber(snap.shuttingDown);
    out += ",\"units_simulated\":" + jsonNumber(snap.unitsSimulated);
    out += ",\"units_from_unit_cache\":" +
        jsonNumber(snap.unitsFromUnitCache);
    out += ",\"latency_ms\":{\"queue_p50\":" + jsonNumber(snap.queueP50Ms);
    out += ",\"queue_p99\":" + jsonNumber(snap.queueP99Ms);
    out += ",\"service_p50\":" + jsonNumber(snap.serviceP50Ms);
    out += ",\"service_p99\":" + jsonNumber(snap.serviceP99Ms);
    out += '}';
    out += ",\"estimate_unit_micros\":" +
        jsonNumber(snap.estimateUnitMicros);
    out += ",\"result_cache\":{\"size\":" +
        jsonNumber(static_cast<std::uint64_t>(snap.resultCacheSize));
    out += ",\"hits\":" + jsonNumber(snap.resultCacheHits);
    out += ",\"misses\":" + jsonNumber(snap.resultCacheMisses);
    out += ",\"insertions\":" + jsonNumber(snap.resultCacheInsertions);
    out += ",\"evictions\":" + jsonNumber(snap.resultCacheEvictions);
    out += '}';
    if (snap.unitCacheEnabled) {
        out += ",\"unit_cache\":{\"size\":" +
            jsonNumber(static_cast<std::uint64_t>(snap.unitCacheSize));
        out += ",\"hits\":" + jsonNumber(snap.unitCache.hits);
        out += ",\"misses\":" + jsonNumber(snap.unitCache.misses);
        out += ",\"stores\":" + jsonNumber(snap.unitCache.stores);
        out += ",\"evictions\":" + jsonNumber(snap.unitCache.evictions);
        out += '}';
    }
    out += ",\"tracing\":{\"enabled\":";
    out += snap.tracingEnabled ? "true" : "false";
    out += ",\"buffered_spans\":" + jsonNumber(snap.trace.spans);
    out += ",\"committed_traces\":" +
        jsonNumber(snap.trace.committedTraces);
    out += ",\"committed_spans\":" +
        jsonNumber(snap.trace.committedSpans);
    out += ",\"dropped_spans\":" + jsonNumber(snap.trace.droppedSpans);
    out += ",\"client_stamped\":" + jsonNumber(snap.tracesClientStamped);
    out += ",\"head_sampled\":" + jsonNumber(snap.tracesHeadSampled);
    out += ",\"tail_kept\":" + jsonNumber(snap.tracesTailKept);
    out += '}';
    out += ",\"slow_queries\":[";
    for (std::size_t i = 0; i < snap.slowQueries.size(); ++i) {
        const SlowQueryEntry &e = snap.slowQueries[i];
        if (i > 0)
            out += ',';
        out += "{\"request_id\":" + jsonNumber(e.requestId);
        out += ",\"trace_id\":" +
            jsonString(e.traceId != 0 ? obs::spanIdHex(e.traceId)
                                      : std::string());
        out += ",\"status\":" + jsonString(e.status);
        out += ",\"queue_ms\":" + jsonNumber(e.queueMs);
        out += ",\"service_ms\":" + jsonNumber(e.serviceMs);
        out += ",\"units\":" +
            jsonNumber(static_cast<std::uint64_t>(e.units));
        out += '}';
    }
    out += ']';
    out += "}\n";
    return out;
}

void
Server::fillRegistry(const ServeSnapshot &snap)
{
    auto set = [this](const char *name, double v, const char *desc) {
        stats_.scalar(name, desc).set(v);
    };
    set("serve.requests", static_cast<double>(snap.requests),
        "query frames received");
    set("serve.ok", static_cast<double>(snap.ok),
        "requests answered with a plan");
    set("serve.shedCapacity", static_cast<double>(snap.shedCapacity),
        "requests shed on a full queue");
    set("serve.shedDeadline", static_cast<double>(snap.shedDeadline),
        "requests shed on a predicted deadline miss");
    set("serve.expired", static_cast<double>(snap.expired),
        "requests whose deadline lapsed before completion");
    set("serve.badRequest", static_cast<double>(snap.badRequest),
        "malformed or invalid requests");
    set("serve.serverError", static_cast<double>(snap.serverError),
        "requests failed internally");
    set("serve.shuttingDown", static_cast<double>(snap.shuttingDown),
        "requests refused during shutdown");
    set("serve.connections", static_cast<double>(snap.connections),
        "client connections accepted");
    set("serve.disconnects", static_cast<double>(snap.disconnects),
        "client connections closed");
    set("serve.protocolErrors", static_cast<double>(snap.protocolErrors),
        "framing/protocol violations observed");
    set("serve.queueDepth", static_cast<double>(snap.queueDepth),
        "requests waiting for a worker");
    set("serve.inflight", static_cast<double>(snap.inflight),
        "requests being executed");
    set("serve.unitsSimulated", static_cast<double>(snap.unitsSimulated),
        "scenario units simulated");
    set("serve.unitsFromUnitCache",
        static_cast<double>(snap.unitsFromUnitCache),
        "scenario units served from the persistent unit cache");
    set("serve.resultCache.hits",
        static_cast<double>(snap.resultCacheHits),
        "answer-cache lookup hits");
    set("serve.resultCache.misses",
        static_cast<double>(snap.resultCacheMisses),
        "answer-cache lookup misses");
    set("serve.resultCache.insertions",
        static_cast<double>(snap.resultCacheInsertions),
        "answer-cache entries written");
    set("serve.resultCache.evictions",
        static_cast<double>(snap.resultCacheEvictions),
        "answer-cache LRU evictions");
    set("serve.resultCache.size",
        static_cast<double>(snap.resultCacheSize),
        "answer-cache entries resident");
    set("serve.trace.committedTraces",
        static_cast<double>(snap.trace.committedTraces),
        "request traces committed to the span sink");
    set("serve.trace.committedSpans",
        static_cast<double>(snap.trace.committedSpans),
        "spans committed to the span sink");
    set("serve.trace.droppedSpans",
        static_cast<double>(snap.trace.droppedSpans),
        "spans dropped (staging or sink capacity)");
    set("serve.trace.clientStamped",
        static_cast<double>(snap.tracesClientStamped),
        "kept traces with a client-stamped trace id");
    set("serve.trace.headSampled",
        static_cast<double>(snap.tracesHeadSampled),
        "kept traces selected by head sampling");
    set("serve.trace.tailKept",
        static_cast<double>(snap.tracesTailKept),
        "kept traces selected by the slow/shed/error tail bias");
    set("serve.slowQueries",
        static_cast<double>(snap.slowQueries.size()),
        "entries in the bounded slow-query log");
    if (snap.unitCacheEnabled) {
        set("serve.unitCache.hits",
            static_cast<double>(snap.unitCache.hits),
            "persistent unit-cache hits");
        set("serve.unitCache.misses",
            static_cast<double>(snap.unitCache.misses),
            "persistent unit-cache misses");
        set("serve.unitCache.stores",
            static_cast<double>(snap.unitCache.stores),
            "persistent unit-cache stores");
        set("serve.unitCache.evictions",
            static_cast<double>(snap.unitCache.evictions),
            "persistent unit-cache evictions");
    }
}

std::string
Server::renderMetrics(const ServeSnapshot &snap)
{
    obs::OpenMetricsWriter w;
    w.gauge("solarcore_serve_uptime_seconds",
            "wall time since the server started [s]",
            snap.uptimeSeconds);
    w.gauge("solarcore_serve_workers", "planner worker threads",
            static_cast<double>(snap.workers));
    w.gauge("solarcore_serve_latency_queue_p50_ms",
            "median queue wait [ms]", snap.queueP50Ms);
    w.gauge("solarcore_serve_latency_queue_p99_ms",
            "p99 queue wait [ms]", snap.queueP99Ms);
    w.gauge("solarcore_serve_latency_service_p50_ms",
            "median service time [ms]", snap.serviceP50Ms);
    w.gauge("solarcore_serve_latency_service_p99_ms",
            "p99 service time [ms]", snap.serviceP99Ms);
    {
        // Explicit ms-bucket histograms carrying trace-id exemplars:
        // a scrape that flags a latency bucket links straight to a
        // committed trace in the span export.
        std::lock_guard<std::mutex> lock(histMutex_);
        if (queueHist_.total > 0)
            w.histogram("solarcore_serve_queue_wait_ms",
                        "queue wait per request [ms]", latencyBoundsMs(),
                        queueHist_.counts, queueHist_.total,
                        queueHist_.sumMs, queueHist_.exemplars);
        if (serviceHist_.total > 0)
            w.histogram("solarcore_serve_service_time_ms",
                        "service time per request [ms]",
                        latencyBoundsMs(), serviceHist_.counts,
                        serviceHist_.total, serviceHist_.sumMs,
                        serviceHist_.exemplars);
    }
    obs::appendRegistry(w, stats_);
    {
        std::lock_guard<std::mutex> lock(profMutex_);
        obs::appendProfiler(w, prof_);
    }
    return w.finish();
}

std::vector<std::pair<std::string, double>>
Server::statsRows()
{
    const ServeSnapshot snap = snapshot();
    std::lock_guard<std::mutex> lock(publishMutex_);
    fillRegistry(snap);
    return stats_.snapshot();
}

void
Server::publishNow()
{
    publish(/*force=*/true);
}

void
Server::publish(bool force)
{
    const bool want_metrics =
        endpoint_.port() > 0 || !config_.metricsOut.empty() ||
        config_.metricsPort >= 0;
    if (config_.statusPath.empty() && !want_metrics)
        return;
    {
        std::lock_guard<std::mutex> lock(publishMutex_);
        const auto now = std::chrono::steady_clock::now();
        const double since =
            std::chrono::duration<double>(now - lastPublish_).count();
        if (!force && published_ && since < config_.minPublishSeconds)
            return;
        lastPublish_ = now;
        published_ = true;
    }
    const ServeSnapshot snap = snapshot();
    std::lock_guard<std::mutex> lock(publishMutex_);
    if (!config_.statusPath.empty()) {
        const std::string tmp = config_.statusPath + ".tmp";
        {
            std::ofstream os(tmp, std::ios::trunc);
            if (!os) {
                SC_WARN_ONCE("serve: cannot open '", tmp, "'");
                return;
            }
            os << renderStatusJson(snap, config_.socketPath,
                                   resolvedKernel_);
        }
        if (std::rename(tmp.c_str(), config_.statusPath.c_str()) != 0)
            SC_WARN_ONCE("serve: rename to '", config_.statusPath,
                         "' failed");
    }
    if (want_metrics) {
        fillRegistry(snap);
        const std::string payload = renderMetrics(snap);
        endpoint_.update(payload);
        if (!config_.metricsOut.empty()) {
            const std::string tmp = config_.metricsOut + ".tmp";
            {
                std::ofstream os(tmp, std::ios::trunc);
                if (!os) {
                    SC_WARN_ONCE("serve: cannot open '", tmp, "'");
                    return;
                }
                os << payload;
            }
            if (std::rename(tmp.c_str(), config_.metricsOut.c_str()) != 0)
                SC_WARN_ONCE("serve: rename to '", config_.metricsOut,
                             "' failed");
        }
    }
}

} // namespace solarcore::serve
