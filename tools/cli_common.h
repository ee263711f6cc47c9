/**
 * @file
 * The flag vocabulary shared by gpuperf-worker and gpuperf-serve:
 * every endpoint-tunable flag is ONE spelling in ONE parser, and its
 * value is literally an api::Endpoint query option appended to each
 * --via URI (`--timeout 30` == `?timeout=30`):
 *
 *   --via URI           transport/listener endpoint (repeatable for
 *                       servers: one unix: plus one tcp: listener)
 *   --store DIR         store root         (endpoint option `store`)
 *   --timeout SEC       client response deadline        (`timeout`)
 *   --idle-timeout SEC  idle-connection close      (`idle-timeout`)
 *   --job-timeout SEC   worker-job re-dispatch      (`job-timeout`)
 *   --max-clients N     connection bound            (`max-clients`)
 *   --max-inflight N    global in-flight cells      (`max-inflight`)
 *   --max-cells N       per-request cell quota        (`max-cells`)
 *   --max-frame-bytes N frame payload bound     (`max-frame-bytes`)
 *   --worker-inflight N per-worker job bound    (`worker-inflight`)
 *   --max-jobs N        serve-at-most bound            (`max-jobs`)
 *   --gc-bytes N        store GC live-byte budget        (`gc-bytes`)
 *   --gc-age SEC        store GC idle-age bound            (`gc-age`)
 *   --gc-interval SEC   server GC sweep period        (`gc-interval`)
 *   --sched POLICY      scheduling policy fifo|biggest-first|sjf|
 *                       fair-share                        (`sched`)
 *   --client ID         client identity for fair-share   (`client`)
 *   --json              send JSON requests                 (`json`)
 *
 * plus the non-endpoint flags --out, --stats-json and the admin-verb
 * flags --dry-run/--force/--min-loose/--report-only (gpuperf-worker
 * gc|verify|compact|stats).
 */

#ifndef GPUPERF_TOOLS_CLI_COMMON_H
#define GPUPERF_TOOLS_CLI_COMMON_H

#include <string>
#include <vector>

#include "api/endpoint.h"
#include "api/request.h"

namespace gpuperf {
namespace cli {

struct CommonArgs
{
    /** First non-flag argument (a request file for run). */
    std::string positional;
    /** --via URIs, in order (servers may listen on several). */
    std::vector<std::string> via;
    std::string out;
    /** --store's raw value (also appended as a `store=` option). */
    std::string store;
    bool statsJson = false;

    /** Admin verbs (gpuperf-worker gc|verify|compact). */
    bool dryRun = false;      ///< gc: report, touch nothing
    bool force = false;       ///< compact: ignore the size thresholds
    bool reportOnly = false;  ///< verify: scan without fixing
    uint64_t minLoose = 0;    ///< compact: fold threshold (0 = default)

    /** Accumulated `k=v&k=v` endpoint options from option flags. */
    std::string query;
};

/**
 * Parse argv[first..argc) with the shared vocabulary above. False
 * (with a stderr message) on an unknown flag or a missing value —
 * the caller prints its usage.
 */
bool parseCommonArgs(int argc, char **argv, int first,
                     CommonArgs *args);

/**
 * @p uri with the accumulated option flags appended as query options,
 * parsed for @p role. Options apply left to right, so a flag
 * overrides the same key spelled inside the URI.
 */
api::Endpoint endpointFor(const CommonArgs &args, const std::string &uri,
                          api::Endpoint::Role role);

// --- File and response plumbing shared by the tools -------------------

bool readFile(const std::string &path, std::string *out);
bool writeFile(const std::string &path, const std::string &content);

/** Load a JSON AnalysisRequest, reporting problems on stderr. */
bool loadRequestJson(const std::string &path, api::AnalysisRequest *req);

/** 0 when every cell is ok, 2 otherwise (failures on stderr). */
int cellStatus(const api::AnalysisResponse &resp);

} // namespace cli
} // namespace gpuperf

#endif // GPUPERF_TOOLS_CLI_COMMON_H
