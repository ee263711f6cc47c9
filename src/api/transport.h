/**
 * @file
 * The transport seam between a caller holding an AnalysisRequest and
 * whatever executes it. PR 5 made a job a wire-portable VALUE; this
 * interface makes the mechanism that moves it a pluggable BACKEND:
 *
 *   - in-process: straight into a local AnalysisService (the zero-cost
 *     backend every other one is byte-diffed against),
 *   - socket:     the gpuperf-serve daemon over a framed TCP or
 *     Unix-domain stream (api/client.h / api/server.h), which may in
 *     turn fan cells out to a worker fleet (api/dispatch.h).
 *
 * Callers written against Transport (the gpuperf-worker `run` verb,
 * benches, tests) are oblivious to which seam executes the job, and
 * every backend is pinned to return bit-identical responses
 * (api::responsesEqual) for the same request.
 *
 * This header also defines the length-framed wire protocol the socket
 * backend speaks. A frame is:
 *
 *     u32 magic "GPF1" | u8 type | u32 payloadLength | payload
 *
 * little-endian, payloadLength bounded by the receiver (oversized
 * frames are a protocol error, the connection is dropped — a client
 * cannot make the server allocate unbounded memory). Frame types:
 *
 *     kRequest (1)      payload = binary AnalysisRequest
 *     kRequestJson (2)  payload = JSON AnalysisRequest
 *     kCell (3)         payload = u32 cell index + binary single-cell
 *                       AnalysisResponse (streamed, completion order)
 *     kDone (4)         payload = binary full AnalysisResponse
 *                       (kernel-major; the authoritative result)
 *     kError (5)        payload = UTF-8 message; terminates the
 *                       request (admission rejection, malformed
 *                       request, server shutdown)
 *     kRegister (6)     worker -> server: payload = worker name; the
 *                       server acks with a kRegister frame whose
 *                       payload is the assigned worker id (decimal).
 *                       Turns the connection into a worker channel.
 *     kJob (7)          server -> worker: payload = u64 job id +
 *                       binary single-cell AnalysisRequest. The
 *                       worker answers with a kCell frame carrying
 *                       u64 job id + binary single-cell
 *                       AnalysisResponse (note: on CLIENT
 *                       connections kCell carries a u32 cell index
 *                       instead — the connection kind disambiguates).
 *
 * One request-response exchange per frame round trip; a client may
 * send its next request on the same connection after kDone/kError.
 * kCell frames arrive only when the request asked for streaming
 * delivery (exec.delivery == kStream). Worker connections (opened by
 * kRegister) instead exchange kJob/kCell frames for the connection's
 * whole life — see api/dispatch.h.
 */

#ifndef GPUPERF_API_TRANSPORT_H
#define GPUPERF_API_TRANSPORT_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "api/request.h"
#include "api/service.h"

namespace gpuperf {
namespace api {

// --- Frame codec ------------------------------------------------------

enum class FrameType : uint8_t
{
    kRequest = 1,
    kRequestJson = 2,
    kCell = 3,
    kDone = 4,
    kError = 5,
    kRegister = 6,
    kJob = 7,
};

/** "GPF1" little-endian — rejects non-gpuperf peers at byte 4. */
constexpr uint32_t kFrameMagic = 0x31465047;

/** Default per-frame payload bound (inline images can be large). */
constexpr uint64_t kMaxFrameBytesDefault = 256ull << 20;

/**
 * Mid-frame stall bound: once a frame has STARTED, a peer that stops
 * sending for this long is broken or hostile. Waiting for a frame to
 * start is a different matter — see readFrame's idle timeout.
 */
constexpr double kFrameStallTimeoutSeconds = 30.0;

/** Frame a payload onto @p fd. False on any short or failed write. */
bool writeFrame(int fd, FrameType type, const std::string &payload);

/**
 * Read one frame. @p idle_timeout_seconds bounds how long to wait for
 * the frame to START (no bytes yet): a server awaiting a client's
 * next request, or a client awaiting the response to a slow cold
 * batch, may legitimately sit here far longer than any mid-frame
 * stall, so the caller picks the policy (negative = wait
 * indefinitely; cancellation and peer EOF still end the wait). Once
 * the first byte arrives, mid-frame stalls are bounded by
 * kFrameStallTimeoutSeconds regardless.
 *
 * Returns 1 on success; 0 on a clean EOF between frames (the peer
 * hung up); -2 when the idle timeout expired before any byte of a
 * new frame (the stream is still synchronized — the caller may close
 * cleanly or keep waiting); -1 on protocol violations — bad magic,
 * unknown type, payload over @p max_payload_bytes, a torn frame
 * (EOF/stall mid-frame) or cancellation — with @p err describing
 * which. After -1 the stream is unsynchronized; the connection must
 * be dropped.
 */
int readFrame(int fd, FrameType *type, std::string *payload,
              uint64_t max_payload_bytes = kMaxFrameBytesDefault,
              const std::atomic<bool> *cancel = nullptr,
              std::string *err = nullptr,
              double idle_timeout_seconds = kFrameStallTimeoutSeconds);

// --- The transport interface ------------------------------------------

/**
 * One way of getting an AnalysisRequest executed. Backends differ in
 * WHERE the work runs (this process, a socket daemon and its fleet);
 * they agree on the result, bit for bit.
 */
class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Execute @p req and return the assembled kernel-major response.
     * When @p onCell is set and the request asks for streaming
     * delivery, finished cells are additionally delivered in
     * completion order.
     * Throws std::runtime_error on transport-level failures
     * (unreachable peer, protocol error, rejected request); per-cell
     * analysis failures come back as ok == false cells.
     */
    virtual AnalysisResponse run(const AnalysisRequest &req,
                                 const CellCallback &onCell = {}) = 0;

    /** Human-readable backend description ("unix:/run/g.sock"). */
    virtual std::string describe() const = 0;
};

/**
 * Construct a transport from a URI:
 *
 *     inproc:              local AnalysisService (@p local when given,
 *                          else an owned one)
 *     unix:PATH            gpuperf-serve over a Unix-domain socket
 *     tcp:HOST:PORT        gpuperf-serve over TCP
 *
 * URIs may carry options as a query string ("tcp:h:p?timeout=30") —
 * parsing goes through Endpoint::parse (api/endpoint.h), which
 * documents the option keys. Throws std::runtime_error on an
 * unrecognized scheme, malformed authority or unknown option key.
 * Socket transports connect lazily on the first run().
 */
std::unique_ptr<Transport> makeTransport(const std::string &uri,
                                         AnalysisService *local = nullptr);

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_TRANSPORT_H
