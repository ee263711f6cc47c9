/**
 * @file
 * The gpuperf-serve daemon core: accept framed AnalysisRequests over
 * TCP and Unix-domain sockets from many concurrent clients,
 * multiplex them onto ONE shared AnalysisService (so clients share
 * its executor cache, calibration/profile/timing memos and persistent
 * stores exactly like threads of one process would), and stream
 * per-cell responses back in completion order.
 *
 * Concurrency model: one accept loop per listener, one thread per
 * connection, requests on a connection handled strictly in order (a
 * client that wants parallel requests opens parallel connections —
 * that IS the many-client scenario). Admission control and
 * backpressure live at the request boundary:
 *
 *  - a request whose cell count exceeds the per-client quota
 *    (ServerOptions::maxCellsPerRequest) is REJECTED with kError —
 *    quota violations fail fast and visibly;
 *  - a request that would push the server's total in-flight cells
 *    over ServerOptions::maxInFlightCells WAITS — the connection
 *    thread blocks before execute(), which stops reading that
 *    client's socket: backpressure propagates to the peer through
 *    TCP/unix-socket flow control while the task graph drains;
 *  - per-frame payloads are bounded (maxFrameBytes) and refused
 *    before allocation.
 *
 * Failure containment: a malformed request is answered with kError,
 * never crashes the server; a client that disconnects mid-stream just
 * loses its deliveries (already-computed artifacts stay in the shared
 * stores, so a reconnecting client re-runs warm); stop() drains
 * in-flight requests so every admitted cell is delivered or failed,
 * never silently dropped.
 */

#ifndef GPUPERF_API_SERVER_H
#define GPUPERF_API_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/dispatch.h"
#include "api/endpoint.h"
#include "api/service.h"
#include "api/transport.h"
#include "store/stats.h"

namespace gpuperf {
namespace api {

/**
 * The server's effective configuration, derived from its api::Endpoint
 * listeners by serverOptionsFor (servers are built from Endpoints only;
 * Server::options() exposes the result).
 */
struct ServerOptions
{
    /** Unix-domain socket path ("" = no Unix listener). */
    std::string unixPath;
    /** TCP port (-1 = no TCP listener; 0 = ephemeral, see tcpPort()). */
    int tcpPort = -1;
    /** TCP bind address; loopback by default (opt INTO exposure). */
    std::string tcpHost = "127.0.0.1";

    /** Concurrent connections; beyond this, accepts are rejected. */
    size_t maxClients = 64;
    /**
     * Global admission bound: total cells executing across all
     * clients. Requests beyond it queue at the admission gate
     * (backpressure), keeping the task graph saturated but bounded.
     */
    size_t maxInFlightCells = 1024;
    /** Per-client quota: cells per request; larger ones get kError. */
    size_t maxCellsPerRequest = 4096;
    /** Frame payload bound; oversized frames drop the connection. */
    uint64_t maxFrameBytes = kMaxFrameBytesDefault;
    /**
     * How long a connection may sit idle between requests before the
     * server closes it — cleanly: no kError frame, not counted as a
     * disconnect, and the client transparently reconnects on its next
     * run(). Negative (default) keeps idle connections indefinitely;
     * mid-frame stalls are bounded by kFrameStallTimeoutSeconds
     * regardless.
     */
    double idleTimeoutSeconds = -1.0;
    /**
     * Force every request onto this store root, ignoring the
     * client-supplied StorePolicy ("" = honor the request). A shared
     * daemon wants one warm store, not one per client's cwd.
     */
    std::string forceStoreDir;

    /** Dispatch: cells in flight per registered worker. */
    size_t maxWorkerInFlight = 4;
    /** Dispatch: re-dispatch a worker-held cell after this. */
    double jobTimeoutSeconds = 600.0;

    /**
     * Background store GC (`?gc-bytes=` / `?gc-age=`): with a bound
     * set AND a forced store root, a maintenance thread sweeps the
     * store every gcIntervalSeconds (store/lifecycle/gc.h — LRU,
     * lease-aware, never touches in-flight entries). Both bounds 0
     * (the default) means no GC thread at all.
     */
    uint64_t gcBytes = 0;
    double gcAgeSeconds = 0.0;
    double gcIntervalSeconds = 300.0;
    /**
     * Scheduling policy (`?sched=`) for the dispatcher's pending
     * queue AND the local executor's task-graph ready order.
     * Responses stay bit-identical to kFifo under every policy.
     */
    sched::SchedPolicy schedPolicy = sched::SchedPolicy::kFifo;
};

/**
 * The ServerOptions equivalent of @p endpoints: every endpoint must
 * be a listener (unix:/tcp:, Role::kServer); limits, timeouts and the
 * forced store root are taken from the FIRST endpoint (later ones
 * contribute only their listener). Throws std::runtime_error on an
 * empty list or a non-listener scheme.
 */
ServerOptions serverOptionsFor(const std::vector<Endpoint> &endpoints);

/** Monotonic counters (torn reads are fine; they are telemetry). */
struct ServerStats
{
    uint64_t accepted = 0;       ///< connections accepted
    uint64_t rejectedClients = 0;///< accepts refused (maxClients)
    uint64_t requests = 0;       ///< requests admitted and executed
    uint64_t rejectedRequests = 0; ///< kError'd before execution
    uint64_t cells = 0;          ///< cells delivered (ok or failed)
    uint64_t failedCells = 0;    ///< delivered cells with ok == false
    uint64_t disconnects = 0;    ///< streams broken mid-exchange
    uint64_t gcRuns = 0;         ///< maintenance-thread GC sweeps
    uint64_t gcEvicted = 0;      ///< entries those sweeps evicted
    uint64_t gcEvictedBytes = 0;
    /** Store cache health across the shared service's executors. */
    store::StoreLayerStats store;
    /** Fleet health: the dispatcher's counters and per-worker rows. */
    DispatchStats fleet;
};

/**
 * The stats as one deterministic JSON object (counters plus a
 * "workers" array) — what `gpuperf-serve --stats-json` dumps at
 * shutdown and the fleet soak bench parses per worker.
 */
std::string statsToJson(const ServerStats &stats);

class Server
{
  public:
    /** The Endpoint is the config surface: one listener... */
    explicit Server(const Endpoint &endpoint);
    /** ...or several (unix + tcp), first one carries the options. */
    explicit Server(const std::vector<Endpoint> &endpoints);
    ~Server();
    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the configured listeners and start accepting. Throws
     * std::runtime_error when no listener is configured or a bind
     * fails (the port is taken, the socket path unwritable).
     */
    void start();

    /**
     * Graceful shutdown: stop accepting, wake admission waiters with
     * a shutdown rejection, let every connection finish the request
     * it is executing (its cells are delivered via kDone), then join
     * all threads. Idempotent; also run by the destructor.
     */
    void stop();

    /** The bound TCP port (after start(); -1 without a TCP listener). */
    int tcpPort() const { return bound_tcp_port_; }

    ServerStats stats() const;

    /** The effective options (tools echo the listener lines). */
    const ServerOptions &options() const { return opts_; }

    /** The shared service (tests pre-seed calibrations through it). */
    AnalysisService &service() { return service_; }

    /** The fleet dispatcher (tests poll worker registration). */
    Dispatcher &dispatcher() { return dispatcher_; }

  private:
    struct Connection
    {
        int fd = -1;
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void acceptLoop(int listen_fd);
    void gcLoop();
    void serveConnection(int fd);
    /** One request -> one kDone/kError exchange. False = drop conn. */
    bool serveExchange(int fd, FrameType type,
                       const std::string &payload);
    bool admit(size_t cells);
    void release(size_t cells);
    void reapFinished();

    ServerOptions opts_;
    AnalysisService service_;
    Dispatcher dispatcher_;

    std::vector<int> listen_fds_;
    int bound_tcp_port_ = -1;
    std::vector<std::thread> accept_threads_;
    std::thread gc_thread_;
    std::condition_variable gc_cv_;

    std::atomic<bool> stopping_{false};
    std::atomic<bool> started_{false};

    mutable std::mutex mutex_;
    std::condition_variable admission_cv_;
    size_t in_flight_cells_ = 0;
    size_t live_connections_ = 0;
    std::vector<std::unique_ptr<Connection>> connections_;

    ServerStats stats_;
};

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_SERVER_H
