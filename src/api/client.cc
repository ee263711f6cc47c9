#include "api/client.h"

#include <stdexcept>
#include <utility>

#include "api/codecs.h"
#include "common/socket.h"
#include "store/result_store.h"
#include "store/serializer.h"

namespace gpuperf {
namespace api {

ServeClient::ServeClient(const Endpoint &ep)
    : unix_path_(ep.scheme == Endpoint::Scheme::kUnix ? ep.path : ""),
      host_(ep.host), port_(ep.port), json_requests_(ep.jsonRequests),
      max_frame_bytes_(ep.limits.maxFrameBytes),
      response_timeout_seconds_(ep.timeouts.responseSeconds)
{
    if (ep.scheme != Endpoint::Scheme::kUnix &&
        ep.scheme != Endpoint::Scheme::kTcp)
        throw std::runtime_error(
            "a gpuperf-serve client needs unix:PATH or tcp:HOST:PORT, "
            "got '" + ep.uri() + "'");
}

ServeClient
ServeClient::overUnix(std::string path)
{
    Endpoint ep;
    ep.scheme = Endpoint::Scheme::kUnix;
    ep.path = std::move(path);
    return ServeClient(ep);
}

ServeClient
ServeClient::overTcp(std::string host, int port)
{
    Endpoint ep;
    ep.scheme = Endpoint::Scheme::kTcp;
    ep.host = std::move(host);
    ep.port = port;
    return ServeClient(ep);
}

ServeClient::~ServeClient()
{
    disconnect();
}

ServeClient::ServeClient(ServeClient &&other) noexcept
    : unix_path_(std::move(other.unix_path_)),
      host_(std::move(other.host_)), port_(other.port_),
      fd_(other.fd_), json_requests_(other.json_requests_),
      max_frame_bytes_(other.max_frame_bytes_),
      response_timeout_seconds_(other.response_timeout_seconds_)
{
    other.fd_ = -1;
}

void
ServeClient::disconnect()
{
    closeSocket(fd_);
    fd_ = -1;
}

std::string
ServeClient::describe() const
{
    if (!unix_path_.empty())
        return "unix:" + unix_path_;
    return "tcp:" + host_ + ":" + std::to_string(port_);
}

void
ServeClient::connectIfNeeded()
{
    if (fd_ >= 0)
        return;
    std::string err;
    fd_ = unix_path_.empty() ? connectTcp(host_, port_, &err)
                             : connectUnix(unix_path_, &err);
    if (fd_ < 0) {
        throw std::runtime_error("gpuperf-serve unreachable at " +
                                 describe() + ": " + err);
    }
}

AnalysisResponse
ServeClient::run(const AnalysisRequest &req, const CellCallback &onCell)
{
    const bool reused_connection = fd_ >= 0;
    connectIfNeeded();
    bool response_started = false;
    try {
        return exchange(req, onCell, &response_started);
    } catch (const std::exception &) {
        // A cached connection can be stale — the server restarted, or
        // closed it as idle, since the previous exchange. As long as
        // no response frame arrived, the caller has seen nothing of
        // this request, so one retry on a fresh connection is
        // transparent (a server that did execute it re-runs warm from
        // the shared stores).
        if (!reused_connection || response_started)
            throw;
        disconnect();
        connectIfNeeded();
        bool retry_started = false;
        return exchange(req, onCell, &retry_started);
    }
}

AnalysisResponse
ServeClient::exchange(const AnalysisRequest &req,
                      const CellCallback &onCell,
                      bool *response_started)
{
    std::string payload;
    FrameType request_type;
    if (json_requests_) {
        request_type = FrameType::kRequestJson;
        payload = requestToJson(req);
    } else {
        request_type = FrameType::kRequest;
        store::ByteWriter w;
        writeRequest(w, req);
        payload = w.bytes();
    }
    if (!writeFrame(fd_, request_type, payload)) {
        disconnect();
        throw std::runtime_error("cannot send request to " +
                                 describe());
    }

    // Anything thrown out of the drain loop below — a transport
    // failure, a malformed frame, the caller's onCell throwing —
    // leaves unread kCell/kDone frames on the stream; reusing it
    // would answer the NEXT request with THIS exchange's leftovers.
    // Drop the connection on every exit except a completed exchange
    // (kDone returned, or the server's clean kError answer).
    struct DropUnlessCompleted
    {
        ServeClient *client;
        bool completed = false;
        ~DropUnlessCompleted()
        {
            if (!completed)
                client->disconnect();
        }
    } guard{this};

    for (;;) {
        FrameType type;
        std::string body;
        std::string err;
        const int rc = readFrame(fd_, &type, &body, max_frame_bytes_,
                                 /*cancel=*/nullptr, &err,
                                 response_timeout_seconds_);
        if (rc == -2) {
            throw std::runtime_error(
                "no response from " + describe() + " within " +
                std::to_string(response_timeout_seconds_) +
                "s (the endpoint's timeout option)");
        }
        if (rc <= 0) {
            throw std::runtime_error(
                "connection to " + describe() +
                " broke before the response completed" +
                (err.empty() ? std::string() : " (" + err + ")"));
        }
        *response_started = true;
        switch (type) {
          case FrameType::kCell: {
            store::ByteReader r(body);
            const uint32_t index = r.u32();
            AnalysisResponse one;
            if (!readResponse(r, &one) || !r.atEnd() ||
                one.cells.size() != 1) {
                throw std::runtime_error("malformed cell frame from " +
                                         describe());
            }
            if (onCell)
                onCell(index, one.cells[0]);
            break;
          }
          case FrameType::kDone: {
            store::ByteReader r(body);
            AnalysisResponse resp;
            if (!readResponse(r, &resp) || !r.atEnd()) {
                throw std::runtime_error(
                    "malformed response frame from " + describe());
            }
            guard.completed = true;
            return resp;
          }
          case FrameType::kError:
            // The server answered: the exchange is complete and the
            // stream stays synchronized for the next request.
            guard.completed = true;
            throw std::runtime_error("server " + describe() +
                                     " rejected the request: " + body);
          default:
            throw std::runtime_error(
                "unexpected frame type " +
                std::to_string(static_cast<int>(type)) + " from " +
                describe());
        }
    }
}

} // namespace api
} // namespace gpuperf
