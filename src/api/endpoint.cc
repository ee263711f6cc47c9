#include "api/endpoint.h"

#include <cstdlib>
#include <stdexcept>

namespace gpuperf {
namespace api {

namespace {

/** Strictly-numeric parses: a typo'd option must throw, not zero. */
double
parseDouble(const std::string &key, const std::string &value,
            const std::string &uri)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size())
        throw std::runtime_error("bad value '" + value +
                                 "' for endpoint option '" + key +
                                 "' in '" + uri + "'");
    return v;
}

uint64_t
parseU64(const std::string &key, const std::string &value,
         const std::string &uri)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || end != value.c_str() + value.size())
        throw std::runtime_error("bad value '" + value +
                                 "' for endpoint option '" + key +
                                 "' in '" + uri + "'");
    return static_cast<uint64_t>(v);
}

bool
parseBool(const std::string &key, const std::string &value,
          const std::string &uri)
{
    if (value.empty() || value == "1" || value == "true")
        return true;
    if (value == "0" || value == "false")
        return false;
    throw std::runtime_error("bad value '" + value +
                             "' for endpoint option '" + key +
                             "' in '" + uri + "'");
}

void
applyOption(Endpoint *ep, const std::string &key,
            const std::string &value, const std::string &uri)
{
    if (key == "store")
        ep->storeDir = value;
    else if (key == "timeout")
        ep->timeouts.responseSeconds = parseDouble(key, value, uri);
    else if (key == "idle-timeout")
        ep->timeouts.idleSeconds = parseDouble(key, value, uri);
    else if (key == "job-timeout")
        ep->timeouts.jobSeconds = parseDouble(key, value, uri);
    else if (key == "max-clients")
        ep->limits.maxClients =
            static_cast<size_t>(parseU64(key, value, uri));
    else if (key == "max-inflight")
        ep->limits.maxInFlightCells =
            static_cast<size_t>(parseU64(key, value, uri));
    else if (key == "max-cells")
        ep->limits.maxCellsPerRequest =
            static_cast<size_t>(parseU64(key, value, uri));
    else if (key == "max-frame-bytes")
        ep->limits.maxFrameBytes = parseU64(key, value, uri);
    else if (key == "worker-inflight")
        ep->limits.maxWorkerInFlight =
            static_cast<size_t>(parseU64(key, value, uri));
    else if (key == "max-jobs")
        ep->limits.maxJobs =
            static_cast<size_t>(parseU64(key, value, uri));
    else if (key == "gc-bytes")
        ep->limits.gcBytes = parseU64(key, value, uri);
    else if (key == "gc-age")
        ep->timeouts.gcAgeSeconds = parseDouble(key, value, uri);
    else if (key == "gc-interval")
        ep->timeouts.gcIntervalSeconds = parseDouble(key, value, uri);
    else if (key == "json")
        ep->jsonRequests = parseBool(key, value, uri);
    else if (key == "sched") {
        if (!sched::parseSchedPolicy(value, &ep->schedPolicy))
            throw std::runtime_error(
                "option 'sched' must be fifo, biggest-first, sjf or "
                "fair-share in '" + uri + "'");
    } else if (key == "client")
        ep->clientId = value;
    else
        throw std::runtime_error("unknown endpoint option '" + key +
                                 "' in '" + uri + "'");
}

} // namespace

Endpoint
Endpoint::parse(const std::string &uri, Role role)
{
    Endpoint ep;
    ep.role = role;

    // Split base?query. A literal '?' in a path is not supported —
    // the query is the price of one flat string carrying options.
    const size_t qpos = uri.find('?');
    const std::string base = uri.substr(0, qpos);
    const std::string query =
        qpos == std::string::npos ? "" : uri.substr(qpos + 1);

    if (base == "inproc:" || base == "inproc" || base.empty()) {
        ep.scheme = Scheme::kInproc;
    } else if (base.rfind("unix:", 0) == 0) {
        ep.scheme = Scheme::kUnix;
        ep.path = base.substr(5);
        if (ep.path.empty())
            throw std::runtime_error(
                "unix transport needs a socket path: 'unix:PATH'");
    } else if (base.rfind("tcp:", 0) == 0) {
        ep.scheme = Scheme::kTcp;
        const std::string rest = base.substr(4);
        const size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == rest.size())
            throw std::runtime_error(
                "tcp transport needs 'tcp:HOST:PORT', got '" + uri +
                "'");
        ep.host = rest.substr(0, colon);
        char *end = nullptr;
        const char *port_str = rest.c_str() + colon + 1;
        const long port = std::strtol(port_str, &end, 10);
        const bool numeric = end != port_str && *end == '\0';
        // A server may bind port 0 (ephemeral); everyone else must
        // name the port they are connecting to.
        const long min_port = role == Role::kServer ? 0 : 1;
        if (!numeric || port < min_port || port > 65535)
            throw std::runtime_error("bad tcp port in '" + uri + "'");
        ep.port = static_cast<int>(port);
    } else {
        throw std::runtime_error(
            "unknown transport '" + uri +
            "' (expected inproc:, unix:PATH or tcp:HOST:PORT)");
    }

    // k=v&k=v (bare "k" = "k=", meaningful only for boolean keys).
    size_t pos = 0;
    while (pos < query.size()) {
        size_t amp = query.find('&', pos);
        if (amp == std::string::npos)
            amp = query.size();
        const std::string pair = query.substr(pos, amp - pos);
        pos = amp + 1;
        if (pair.empty())
            continue;
        const size_t eq = pair.find('=');
        const std::string key =
            eq == std::string::npos ? pair : pair.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : pair.substr(eq + 1);
        applyOption(&ep, key, value, uri);
    }
    return ep;
}

std::string
Endpoint::uri() const
{
    switch (scheme) {
    case Scheme::kInproc:
        return "inproc:";
    case Scheme::kUnix:
        return "unix:" + path;
    case Scheme::kTcp:
        return "tcp:" + host + ":" + std::to_string(port);
    }
    return "inproc:";
}

} // namespace api
} // namespace gpuperf
