/**
 * @file
 * gpuperf-serve — the analysis daemon: bind a Unix-domain socket
 * and/or a TCP port, accept framed api::AnalysisRequests from many
 * concurrent clients (gpuperf-worker run --via unix:..., the
 * ServeClient library, or anything speaking the frame protocol in
 * src/api/transport.h), execute them on one shared AnalysisService,
 * and stream results back. Cells fan out to any registered
 * `gpuperf-worker serve --via ...` fleet (src/api/dispatch.h) and
 * fall back to in-process execution when no workers are around.
 *
 *   gpuperf-serve --via unix:PATH [--via tcp:HOST:PORT]
 *                 [--store DIR] [--max-clients N] [--max-inflight N]
 *                 [--max-cells N] [--idle-timeout SEC]
 *                 [--job-timeout SEC] [--worker-inflight N]
 *                 [--stats-json]
 *
 * Endpoints are api::Endpoint URIs; the option flags share their
 * spellings with URI query options and with gpuperf-worker (see
 * tools/cli_common.h).
 *
 * At least one unix:/tcp: endpoint is required. `tcp:HOST:0` binds an
 * ephemeral port (printed on stdout — scripts parse the "listening"
 * lines). --store forces every request onto one shared store root so
 * all clients hit the same warm calibration/profile/timing caches.
 * --stats-json dumps api::statsToJson(server.stats()) on stdout at
 * shutdown (fleet counters and per-worker rows included).
 *
 * SIGINT/SIGTERM trigger a graceful stop: in-flight requests finish
 * and deliver their kDone before the process exits.
 */

#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "api/server.h"
#include "cli_common.h"

using namespace gpuperf;

namespace {

/** Written by the signal handler, polled by the main loop. */
volatile std::sig_atomic_t g_stop_requested = 0;

void
onSignal(int)
{
    g_stop_requested = 1;
}

int
usage()
{
    std::cerr
        << "usage: gpuperf-serve --via unix:PATH|tcp:HOST:PORT "
           "(repeatable)\n"
           "                     [--store DIR] [--max-clients N] "
           "[--max-inflight N]\n"
           "                     [--max-cells N] [--idle-timeout SEC]\n"
           "                     [--job-timeout SEC] "
           "[--worker-inflight N] [--stats-json]\n"
           "at least one unix:/tcp: endpoint is required; "
           "tcp:HOST:0 binds an ephemeral port\n";
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    cli::CommonArgs args;
    if (!cli::parseCommonArgs(argc, argv, 1, &args) ||
        !args.positional.empty())
        return usage();

    if (args.via.empty())
        return usage();

    std::vector<api::Endpoint> endpoints;
    try {
        for (const std::string &uri : args.via)
            endpoints.push_back(cli::endpointFor(
                args, uri, api::Endpoint::Role::kServer));
    } catch (const std::exception &e) {
        std::cerr << "gpuperf-serve: " << e.what() << "\n";
        return usage();
    }

    api::Server server(endpoints);
    try {
        server.start();
    } catch (const std::exception &e) {
        std::cerr << "gpuperf-serve: " << e.what() << "\n";
        return 1;
    }

    const api::ServerOptions &opts = server.options();
    if (!opts.unixPath.empty())
        std::cout << "listening unix " << opts.unixPath << "\n";
    if (server.tcpPort() >= 0)
        std::cout << "listening tcp " << opts.tcpHost << ":"
                  << server.tcpPort() << "\n";
    std::cout << "gpuperf-serve ready\n" << std::flush;

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    while (!g_stop_requested)
        ::poll(nullptr, 0, 200);

    std::cout << "stopping (draining in-flight requests)...\n"
              << std::flush;
    server.stop();
    const api::ServerStats stats = server.stats();
    std::cout << "served " << stats.requests << " request(s), "
              << stats.cells << " cell(s) (" << stats.failedCells
              << " failed), " << stats.accepted << " connection(s), "
              << stats.rejectedRequests << " rejected request(s), "
              << stats.disconnects << " disconnect(s)\n";
    if (args.statsJson)
        std::cout << api::statsToJson(stats) << "\n";
    return 0;
}
