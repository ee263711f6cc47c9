/**
 * @file
 * ServeClient — the socket backend of api::Transport: a connection to
 * a gpuperf-serve daemon over TCP or a Unix-domain socket, speaking
 * the framed protocol in api/transport.h.
 *
 * One client is one connection carrying one request at a time;
 * repeated run() calls reuse the connection (and reconnect after a
 * server restart). Many-client concurrency is many ServeClients —
 * each test/bench thread owns one. The client is NOT thread-safe;
 * share nothing or lock outside.
 */

#ifndef GPUPERF_API_CLIENT_H
#define GPUPERF_API_CLIENT_H

#include <cstdint>
#include <string>

#include "api/endpoint.h"
#include "api/transport.h"

namespace gpuperf {
namespace api {

class ServeClient : public Transport
{
  public:
    /**
     * Client for the daemon at @p ep (unix: or tcp:), carrying its
     * client options: `json` (send JSON instead of binary requests —
     * responses are binary either way), `max-frame-bytes` (bound on
     * reply frames) and `timeout` (deadline for each response frame to
     * START arriving; negative — the default — waits indefinitely, so
     * a slow cold batch is not an error, while a dead server still
     * surfaces immediately as a closed connection). Throws
     * std::runtime_error for a non-socket endpoint.
     */
    explicit ServeClient(const Endpoint &ep);
    /** Client for a gpuperf-serve Unix socket at @p path. */
    static ServeClient overUnix(std::string path);
    /** Client for a gpuperf-serve TCP endpoint. */
    static ServeClient overTcp(std::string host, int port);

    ~ServeClient() override;
    ServeClient(ServeClient &&other) noexcept;
    ServeClient &operator=(ServeClient &&) = delete;
    ServeClient(const ServeClient &) = delete;
    ServeClient &operator=(const ServeClient &) = delete;

    /**
     * Execute @p req on the server. Connects on first use; throws
     * std::runtime_error when the server is unreachable, the stream
     * breaks mid-exchange, or the server answers kError (admission
     * rejection, malformed request, shutdown). kCell frames invoke
     * @p onCell in completion order; the returned response is the
     * server's authoritative kDone payload, bit-identical to an
     * in-process run of the same request.
     */
    AnalysisResponse run(const AnalysisRequest &req,
                         const CellCallback &onCell = {}) override;

    std::string describe() const override;

    /** Drop the connection (next run() reconnects). */
    void disconnect();

  private:
    void connectIfNeeded();
    /** One framed request/response exchange on the live connection. */
    AnalysisResponse exchange(const AnalysisRequest &req,
                              const CellCallback &onCell,
                              bool *response_started);

    std::string unix_path_; ///< non-empty = Unix-domain client
    std::string host_;
    int port_ = -1;
    int fd_ = -1;
    bool json_requests_;
    uint64_t max_frame_bytes_;
    double response_timeout_seconds_;
};

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_CLIENT_H
