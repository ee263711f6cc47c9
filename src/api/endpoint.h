/**
 * @file
 * api::Endpoint — THE configuration surface for every seam a request
 * can travel through: one parsed URI plus typed limit/timeout bags,
 * from which each consumer derives what it needs (Server's listeners
 * and limits, ServeClient's wire options, workerServe's connection).
 *
 * A URI names the seam and carries options as a query string, with
 * the SAME spellings the tools use as flags:
 *
 *     inproc:
 *     unix:PATH?max-inflight=256&idle-timeout=30
 *     tcp:HOST:PORT?timeout=30&max-cells=64&json=1
 *
 * Option keys by consumer (unknown keys throw — typos fail fast):
 *
 *     store            store root (server: forced on every request)
 *     timeout          client response deadline, seconds
 *     idle-timeout     close idle connections after, seconds
 *     job-timeout      re-dispatch a worker-held cell after, seconds
 *     max-clients      concurrent connections accepted
 *     max-inflight     global in-flight cell admission bound
 *     max-cells        per-request cell quota
 *     max-frame-bytes  frame payload bound
 *     worker-inflight  cells in flight per registered worker
 *     max-jobs         worker: stop after N jobs (0 = unlimited)
 *     gc-bytes         server: GC the forced store to this live-byte
 *                      budget (0 = no size bound; see store/lifecycle)
 *     gc-age           server: GC entries idle longer than, seconds
 *                      (0 = no age bound)
 *     gc-interval      server: seconds between GC sweeps
 *     json             client sends JSON requests (1/0)
 *     sched            server: fleet dispatcher queue order, fifo |
 *                      biggest-first | sjf | fair-share (see
 *                      src/sched/policy.h)
 *     client           client identity for fair-share accounting
 */

#ifndef GPUPERF_API_ENDPOINT_H
#define GPUPERF_API_ENDPOINT_H

#include <cstdint>
#include <memory>
#include <string>

#include "sched/policy.h"

namespace gpuperf {
namespace api {

class Transport;
class AnalysisService;

struct Endpoint
{
    enum class Scheme
    {
        kInproc,
        kUnix,
        kTcp,
    };

    /**
     * Who this endpoint configures: a client connecting out, a server
     * binding listeners, or a worker registering with a server. The
     * role changes validation (a server may bind tcp port 0 for an
     * ephemeral port; a client must name a real one) and which
     * options are meaningful.
     */
    enum class Role
    {
        kClient,
        kServer,
        kWorker,
    };

    Scheme scheme = Scheme::kInproc;
    Role role = Role::kClient;

    /** Unix socket path (kUnix only). */
    std::string path;
    /** TCP host (kTcp only); loopback by default. */
    std::string host = "127.0.0.1";
    /** TCP port (kTcp only; 0 = ephemeral, servers only). */
    int port = -1;

    /** Store root; servers force it onto every request ("" = unset). */
    std::string storeDir;

    /** Client wire preference: send requests as JSON, not binary. */
    bool jsonRequests = false;

    /**
     * How a server's fleet dispatcher orders pending jobs; a request
     * with no live worker runs locally in dependency order whatever
     * the policy. Changes execution ORDER only — responses stay
     * bit-identical to kFifo.
     */
    sched::SchedPolicy schedPolicy = sched::SchedPolicy::kFifo;

    /**
     * Client identity stamped onto submitted requests ("" = the
     * anonymous tenant); the fair-share policy accounts work per
     * identity.
     */
    std::string clientId;

    struct Limits
    {
        size_t maxClients = 64;
        size_t maxInFlightCells = 1024;
        size_t maxCellsPerRequest = 4096;
        /** Mirrors api::kMaxFrameBytesDefault. */
        uint64_t maxFrameBytes = 256ull << 20;
        /** Dispatch: cells in flight per registered worker. */
        size_t maxWorkerInFlight = 4;
        /** Worker serve: stop after N executed jobs (0 = unlimited). */
        size_t maxJobs = 0;
        /** Server GC: live-byte budget for the forced store (0 = off). */
        uint64_t gcBytes = 0;
    };

    struct Timeouts
    {
        /** Server: close idle connections after (negative = never). */
        double idleSeconds = -1.0;
        /** Client: response-frame deadline (negative = indefinite). */
        double responseSeconds = -1.0;
        /** Dispatch: re-dispatch a worker-held cell after, seconds. */
        double jobSeconds = 600.0;
        /** Server GC: evict entries idle longer than, seconds (0 = off). */
        double gcAgeSeconds = 0.0;
        /** Server GC: seconds between sweeps (with a bound set). */
        double gcIntervalSeconds = 300.0;
    };

    Limits limits;
    Timeouts timeouts;

    /**
     * Parse "scheme:authority?k=v&k=v" into an Endpoint for @p role.
     * Throws std::runtime_error on an unknown scheme, a malformed
     * authority (tcp without host:port, unix without a path, a bad
     * port) or an unrecognized/ill-typed option key.
     */
    static Endpoint parse(const std::string &uri,
                          Role role = Role::kClient);

    /** Canonical base URI, without the query ("tcp:host:port"). */
    std::string uri() const;
};

/**
 * Transport for @p ep (same backends as the string overload of
 * makeTransport in api/transport.h, which parses through
 * Endpoint::parse — so query options work on every URI). Socket
 * transports are constructed with the client options (timeout,
 * max-frame-bytes, json).
 */
std::unique_ptr<Transport> makeTransport(const Endpoint &ep,
                                         AnalysisService *local = nullptr);

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_ENDPOINT_H
