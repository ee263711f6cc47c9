#include "api/server.h"

#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "api/codecs.h"
#include "common/logging.h"
#include "common/socket.h"
#include "store/lifecycle/gc.h"
#include "store/serializer.h"

namespace gpuperf {
namespace api {

namespace {

/**
 * A streaming peer that stops reading must not pin a connection
 * thread in send() forever (it would also pin its admitted cells);
 * after this stall the write fails and the connection is dropped.
 */
constexpr double kSendStallTimeoutSeconds = 30.0;

DispatchOptions
dispatchOptionsFor(const ServerOptions &opts)
{
    DispatchOptions d;
    d.maxInFlightPerWorker = opts.maxWorkerInFlight;
    d.jobTimeoutSeconds = opts.jobTimeoutSeconds;
    d.maxFrameBytes = opts.maxFrameBytes;
    d.policy = opts.schedPolicy;
    return d;
}

} // namespace

ServerOptions
serverOptionsFor(const std::vector<Endpoint> &endpoints)
{
    if (endpoints.empty())
        throw std::runtime_error("a server needs at least one "
                                 "listener endpoint");
    ServerOptions opts;
    const Endpoint &first = endpoints.front();
    opts.maxClients = first.limits.maxClients;
    opts.maxInFlightCells = first.limits.maxInFlightCells;
    opts.maxCellsPerRequest = first.limits.maxCellsPerRequest;
    opts.maxFrameBytes = first.limits.maxFrameBytes;
    opts.maxWorkerInFlight = first.limits.maxWorkerInFlight;
    opts.idleTimeoutSeconds = first.timeouts.idleSeconds;
    opts.jobTimeoutSeconds = first.timeouts.jobSeconds;
    opts.forceStoreDir = first.storeDir;
    opts.schedPolicy = first.schedPolicy;
    opts.gcBytes = first.limits.gcBytes;
    opts.gcAgeSeconds = first.timeouts.gcAgeSeconds;
    opts.gcIntervalSeconds = first.timeouts.gcIntervalSeconds;
    for (const Endpoint &ep : endpoints) {
        switch (ep.scheme) {
        case Endpoint::Scheme::kUnix:
            opts.unixPath = ep.path;
            break;
        case Endpoint::Scheme::kTcp:
            opts.tcpHost = ep.host;
            opts.tcpPort = ep.port;
            break;
        default:
            throw std::runtime_error(
                "server endpoints must be unix:PATH or "
                "tcp:HOST:PORT, got '" +
                ep.uri() + "'");
        }
    }
    return opts;
}

Server::Server(const Endpoint &endpoint)
    : Server(std::vector<Endpoint>{endpoint})
{
}

Server::Server(const std::vector<Endpoint> &endpoints)
    : opts_(serverOptionsFor(endpoints)),
      dispatcher_(service_, dispatchOptionsFor(opts_))
{
    // One policy drives both halves: the dispatcher's pending queue
    // (fleet path) and the local service's task-graph ready order.
    service_.setSchedPolicy(opts_.schedPolicy);
}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (started_.exchange(true))
        throw std::runtime_error("server already started");
    if (opts_.unixPath.empty() && opts_.tcpPort < 0)
        throw std::runtime_error(
            "no listener configured (need a unix path or tcp port)");

    std::string err;
    if (!opts_.unixPath.empty()) {
        const int fd = listenUnix(opts_.unixPath, &err);
        if (fd < 0)
            throw std::runtime_error("cannot listen on unix:" +
                                     opts_.unixPath + ": " + err);
        listen_fds_.push_back(fd);
    }
    if (opts_.tcpPort >= 0) {
        const int fd = listenTcp(opts_.tcpHost, opts_.tcpPort, &err);
        if (fd < 0)
            throw std::runtime_error(
                "cannot listen on tcp:" + opts_.tcpHost + ":" +
                std::to_string(opts_.tcpPort) + ": " + err);
        bound_tcp_port_ = boundTcpPort(fd);
        listen_fds_.push_back(fd);
    }
    for (const int fd : listen_fds_)
        accept_threads_.emplace_back([this, fd] { acceptLoop(fd); });
    // Store maintenance: with a GC bound and a forced store root, a
    // background thread keeps the shared store within budget while
    // the daemon serves (lease-aware — see store/lifecycle/gc.h).
    if (!opts_.forceStoreDir.empty() &&
        (opts_.gcBytes > 0 || opts_.gcAgeSeconds > 0))
        gc_thread_ = std::thread([this] { gcLoop(); });
}

void
Server::gcLoop()
{
    store::GcOptions gc;
    gc.maxBytes = opts_.gcBytes;
    gc.maxAgeMs =
        static_cast<int64_t>(opts_.gcAgeSeconds * 1000.0);
    const double interval_s =
        opts_.gcIntervalSeconds > 0 ? opts_.gcIntervalSeconds : 300.0;
    const auto interval = std::chrono::duration<double>(interval_s);
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopping_.load()) {
        lock.unlock();
        const store::GcReport report =
            store::runGc(opts_.forceStoreDir, gc);
        lock.lock();
        ++stats_.gcRuns;
        stats_.gcEvicted += report.evicted;
        stats_.gcEvictedBytes += report.evictedBytes;
        gc_cv_.wait_for(lock, interval,
                        [this] { return stopping_.load(); });
    }
}

void
Server::stop()
{
    if (!started_.load())
        return;
    stopping_.store(true);
    admission_cv_.notify_all();
    gc_cv_.notify_all();
    if (gc_thread_.joinable())
        gc_thread_.join();
    for (std::thread &t : accept_threads_)
        if (t.joinable())
            t.join();
    accept_threads_.clear();
    for (const int fd : listen_fds_)
        closeSocket(fd);
    listen_fds_.clear();
    // Connections drain their in-flight request (every admitted cell
    // is delivered or kError'd), then observe stopping_ at the next
    // frame poll and exit.
    std::vector<std::unique_ptr<Connection>> remaining;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        remaining.swap(connections_);
    }
    for (const auto &conn : remaining)
        if (conn->thread.joinable())
            conn->thread.join();
    if (!opts_.unixPath.empty())
        ::unlink(opts_.unixPath.c_str());
}

ServerStats
Server::stats() const
{
    ServerStats s;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        s = stats_;
    }
    s.fleet = dispatcher_.stats();
    s.store = service_.storeStats();
    return s;
}

std::string
statsToJson(const ServerStats &stats)
{
    char buf[512];
    std::string out = "{\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"accepted\": %" PRIu64 ",\n"
                  "  \"rejected_clients\": %" PRIu64 ",\n"
                  "  \"requests\": %" PRIu64 ",\n"
                  "  \"rejected_requests\": %" PRIu64 ",\n"
                  "  \"cells\": %" PRIu64 ",\n"
                  "  \"failed_cells\": %" PRIu64 ",\n"
                  "  \"disconnects\": %" PRIu64 ",\n",
                  stats.accepted, stats.rejectedClients, stats.requests,
                  stats.rejectedRequests, stats.cells,
                  stats.failedCells, stats.disconnects);
    out += buf;
    const DispatchStats &f = stats.fleet;
    std::snprintf(buf, sizeof(buf),
                  "  \"workers_registered\": %" PRIu64 ",\n"
                  "  \"workers_live\": %" PRIu64 ",\n"
                  "  \"worker_deaths\": %" PRIu64 ",\n"
                  "  \"cells_dispatched\": %" PRIu64 ",\n"
                  "  \"cells_completed_remote\": %" PRIu64 ",\n"
                  "  \"cells_redispatched\": %" PRIu64 ",\n"
                  "  \"cells_local\": %" PRIu64 ",\n"
                  "  \"requests_local_fallback\": %" PRIu64 ",\n"
                  "  \"duplicate_results\": %" PRIu64 ",\n"
                  "  \"malformed_results\": %" PRIu64 ",\n",
                  f.workersRegistered, f.workersLive, f.workerDeaths,
                  f.cellsDispatched, f.cellsCompletedRemote,
                  f.cellsRedispatched, f.cellsLocal,
                  f.requestsLocalFallback, f.duplicateResults,
                  f.malformedResults);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"cells_local_no_workers\": %" PRIu64 ",\n"
                  "  \"cells_local_exhausted\": %" PRIu64 ",\n"
                  "  \"sched_policy\": \"%s\",\n"
                  "  \"queue_depth\": %zu,\n"
                  "  \"queue_depth_peak\": %zu,\n",
                  f.cellsLocalNoWorkers, f.cellsLocalExhausted,
                  f.schedPolicy, f.queueDepth, f.queueDepthPeak);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"wait_small_ms_total\": %.3f,\n"
                  "  \"wait_small_ms_max\": %.3f,\n"
                  "  \"wait_small_count\": %" PRIu64 ",\n"
                  "  \"wait_large_ms_total\": %.3f,\n"
                  "  \"wait_large_ms_max\": %.3f,\n"
                  "  \"wait_large_count\": %" PRIu64 ",\n"
                  "  \"cost_error_abs_ms_sum\": %.3f,\n"
                  "  \"cost_error_samples\": %" PRIu64 ",\n",
                  f.waitSmallMsTotal, f.waitSmallMsMax,
                  f.waitSmallCount, f.waitLargeMsTotal,
                  f.waitLargeMsMax, f.waitLargeCount,
                  f.costErrorAbsMsSum, f.costErrorSamples);
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"gc_runs\": %" PRIu64 ",\n"
                  "  \"gc_evicted\": %" PRIu64 ",\n"
                  "  \"gc_evicted_bytes\": %" PRIu64 ",\n",
                  stats.gcRuns, stats.gcEvicted,
                  stats.gcEvictedBytes);
    out += buf;
    out += "  \"store\": " +
           store::storeLayerStatsJson(stats.store, "  ") + ",\n";
    out += "  \"clients\": [";
    for (size_t i = 0; i < f.clientShares.size(); ++i) {
        const sched::ClientShare &c = f.clientShares[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"client\": \"%s\", \"queued\": %zu, "
                      "\"popped\": %" PRIu64
                      ", \"cost_charged\": %.3f, \"deficit\": %.3f}",
                      i ? "," : "", c.client.c_str(), c.queued,
                      c.popped, c.costCharged, c.deficit);
        out += buf;
    }
    out += f.clientShares.empty() ? "],\n" : "\n  ],\n";
    out += "  \"workers\": [";
    for (size_t i = 0; i < f.workers.size(); ++i) {
        const WorkerStat &w = f.workers[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\n    {\"id\": %" PRIu64
                      ", \"name\": \"%s\", \"live\": %s, "
                      "\"cells_done\": %" PRIu64
                      ", \"in_flight\": %zu}",
                      i ? "," : "", w.id, w.name.c_str(),
                      w.live ? "true" : "false", w.cellsDone,
                      w.inFlight);
        out += buf;
    }
    out += f.workers.empty() ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

void
Server::reapFinished()
{
    std::vector<std::unique_ptr<Connection>> finished;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto it = connections_.begin();
             it != connections_.end();) {
            if ((*it)->done.load()) {
                finished.push_back(std::move(*it));
                it = connections_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto &conn : finished)
        if (conn->thread.joinable())
            conn->thread.join();
}

void
Server::acceptLoop(int listen_fd)
{
    while (!stopping_.load()) {
        // Reap every iteration: under continuous connection churn the
        // accept queue may never drain, and finished Connection
        // objects plus their unjoined threads must not pile up until
        // an accept lull.
        reapFinished();
        if (!waitReadable(listen_fd, 0.2))
            continue;
        const int fd = acceptClient(listen_fd);
        if (fd < 0)
            continue;
        setSendTimeoutSeconds(fd, kSendStallTimeoutSeconds);

        std::string reject;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.accepted;
            if (live_connections_ >= opts_.maxClients ||
                stopping_.load()) {
                ++stats_.rejectedClients;
                reject = stopping_.load()
                             ? "server is shutting down"
                             : "server at capacity (" +
                                   std::to_string(opts_.maxClients) +
                                   " clients)";
            } else {
                ++live_connections_;
                auto conn = std::make_unique<Connection>();
                Connection *raw = conn.get();
                raw->fd = fd;
                connections_.push_back(std::move(conn));
                raw->thread = std::thread([this, raw] {
                    serveConnection(raw->fd);
                    {
                        std::lock_guard<std::mutex> inner(mutex_);
                        --live_connections_;
                    }
                    raw->done.store(true);
                });
            }
        }
        if (!reject.empty()) {
            // The peer paces this write (up to SO_SNDTIMEO); doing it
            // under mutex_ would let one stalled socket block
            // admission, release() and stats() for every live client.
            writeFrame(fd, FrameType::kError, reject);
            closeSocket(fd);
        }
    }
}

void
Server::serveConnection(int fd)
{
    for (;;) {
        FrameType type;
        std::string payload;
        std::string err;
        const int rc = readFrame(fd, &type, &payload,
                                 opts_.maxFrameBytes, &stopping_, &err,
                                 opts_.idleTimeoutSeconds);
        if (rc == 0)
            break; // clean hangup between requests
        if (rc == -2) {
            // Idle past the configured bound. Not a protocol failure:
            // no kError frame, no disconnect stat — the peer sees a
            // clean EOF and reconnects transparently next request.
            break;
        }
        if (rc < 0) {
            // Protocol violation, torn frame, stalled peer, or our
            // own shutdown: tell the peer why when the stream still
            // works, then drop — after a framing error the stream is
            // unsynchronized and nothing more can be parsed safely.
            if (!stopping_.load()) {
                std::lock_guard<std::mutex> lock(mutex_);
                ++stats_.disconnects;
            }
            writeFrame(fd, FrameType::kError,
                       stopping_.load() ? "server is shutting down"
                                        : err);
            break;
        }
        if (type == FrameType::kRegister) {
            // The connection changes species: from here it is a
            // worker channel (kJob out, kCell results in) for its
            // whole life, managed by the dispatcher. It still counts
            // against maxClients — a worker holds a connection slot.
            dispatcher_.serveWorker(fd, payload, &stopping_);
            break;
        }
        if (type != FrameType::kRequest &&
            type != FrameType::kRequestJson) {
            writeFrame(fd, FrameType::kError,
                       "expected a request frame, got type " +
                           std::to_string(static_cast<int>(type)));
            break;
        }
        if (!serveExchange(fd, type, payload))
            break;
    }
    closeSocket(fd);
}

bool
Server::admit(size_t cells)
{
    std::unique_lock<std::mutex> lock(mutex_);
    admission_cv_.wait(lock, [this, cells] {
        // An idle server always admits (a request bigger than the
        // global bound would otherwise deadlock against it); a busy
        // one admits when the new cells fit under the bound.
        return stopping_.load() || in_flight_cells_ == 0 ||
               in_flight_cells_ + cells <= opts_.maxInFlightCells;
    });
    if (stopping_.load())
        return false;
    in_flight_cells_ += cells;
    return true;
}

void
Server::release(size_t cells)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        in_flight_cells_ -= cells;
    }
    admission_cv_.notify_all();
}

bool
Server::serveExchange(int fd, FrameType type,
                      const std::string &payload)
{
    AnalysisRequest req;
    std::string parse_error;
    bool parsed = false;
    if (type == FrameType::kRequestJson) {
        parsed = requestFromJson(payload, &req, &parse_error);
    } else {
        store::ByteReader r(payload);
        parsed = readRequest(r, &req) && r.atEnd();
        if (!parsed)
            parse_error = "binary request failed to deserialize "
                          "(schema mismatch or corrupt frame)";
    }
    const auto reject = [this, fd](const std::string &why) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.rejectedRequests;
        }
        // A rejection is an answered exchange: the connection stays
        // usable for the client's next (hopefully smaller) request.
        return writeFrame(fd, FrameType::kError, why);
    };
    if (!parsed)
        return reject(parse_error);

    const size_t cells = req.kernels.size() * req.specs.size();
    if (cells > opts_.maxCellsPerRequest) {
        return reject("request of " + std::to_string(cells) +
                      " cells exceeds the per-client quota of " +
                      std::to_string(opts_.maxCellsPerRequest));
    }
    if (!opts_.forceStoreDir.empty())
        req.store.storeDir = opts_.forceStoreDir;

    if (!admit(cells))
        return reject("server is shutting down");

    const bool stream_requested =
        req.exec.delivery == ExecutionPolicy::Delivery::kStream;
    bool peer_alive = true;
    AnalysisResponse resp;
    std::string exec_error;
    try {
        resp = dispatcher_.execute(
            req,
            [this, fd, &req, &peer_alive, stream_requested](
                size_t index, const driver::BatchResult &cell) {
                if (!stream_requested || !peer_alive)
                    return;
                store::ByteWriter w;
                w.u32(static_cast<uint32_t>(index));
                AnalysisResponse one = makeResponseShell(req);
                one.cells.push_back(cell);
                writeResponse(w, one);
                // A failed delivery just stops the stream; the batch
                // finishes and its artifacts stay in the shared
                // stores (a reconnecting client re-runs warm).
                if (!writeFrame(fd, FrameType::kCell, w.bytes()))
                    peer_alive = false;
            });
    } catch (const std::exception &e) {
        exec_error = e.what();
    }
    release(cells);

    if (!exec_error.empty())
        return reject("request failed: " + exec_error);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests;
        stats_.cells += resp.cells.size();
        for (const driver::BatchResult &cell : resp.cells)
            stats_.failedCells += cell.ok ? 0 : 1;
    }

    store::ByteWriter w;
    writeResponse(w, resp);
    if (!peer_alive || !writeFrame(fd, FrameType::kDone, w.bytes())) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.disconnects;
        return false;
    }
    return true;
}

} // namespace api
} // namespace gpuperf
