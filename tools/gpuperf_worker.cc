/**
 * @file
 * gpuperf-worker — the command-line face of the AnalysisService API
 * and of the fleet worker protocol. One binary, four kinds of mode:
 *
 *   gpuperf-worker demo-request --out REQ.json [--store DIR]
 *       Emit a small self-contained demo request (case refs over a
 *       quick-calibrating spec) — the input the check.sh daemon
 *       smokes feed the modes below.
 *
 *   gpuperf-worker run REQ.json --out RESP.json [--via URI]
 *       Execute the request and write the JSON response. --via picks
 *       the transport: inproc: (default), unix:PATH or tcp:HOST:PORT
 *       (the latter two talk to a gpuperf-serve daemon). The response
 *       is bit-identical across transports.
 *
 *   gpuperf-worker serve --via unix:PATH|tcp:HOST:PORT [--max-jobs N]
 *       Worker mode: REGISTER with that gpuperf-serve daemon and
 *       execute the cell jobs it dispatches until it hangs up (the
 *       fleet protocol — see src/api/dispatch.h) or N jobs ran.
 *
 *   gpuperf-worker gc --store DIR [--gc-bytes N] [--gc-age SEC]
 *                  [--dry-run]
 *   gpuperf-worker verify --store DIR [--report-only]
 *   gpuperf-worker stats --store DIR
 *       Store lifecycle admin verbs (src/store/lifecycle/): bound the
 *       shared store's size/age (lease-aware LRU eviction), scan and
 *       quarantine corrupt entries (and remove the segment files
 *       older builds compacted into), and dump the disk-side usage
 *       scan. All are safe against a live fleet sharing the store;
 *       each prints its JSON report on stdout. `verify` exits 2 when
 *       it found corruption (quarantined or not), so cron can alarm
 *       on it.
 *
 * Every endpoint-tunable flag shares its spelling with gpuperf-serve
 * and with api::Endpoint query options — see tools/cli_common.h.
 *
 * Exit status: 0 on success with every cell ok; 2 when the job ran
 * but some cell failed; 1 on usage or I/O errors.
 */

#include <iostream>
#include <string>

#include "api/codecs.h"
#include "api/dispatch.h"
#include "api/endpoint.h"
#include "api/registry.h"
#include "api/request.h"
#include "api/service.h"
#include "api/transport.h"
#include "cli_common.h"
#include "store/lifecycle/gc.h"
#include "store/lifecycle/lifecycle.h"
#include "store/lifecycle/verifier.h"

using namespace gpuperf;

namespace {

int
usage()
{
    std::cerr
        << "usage:\n"
           "  gpuperf-worker demo-request --out REQ.json [--store DIR]\n"
           "  gpuperf-worker run REQ.json --out RESP.json "
           "[--via URI]\n"
           "  gpuperf-worker serve --via unix:PATH|tcp:HOST:PORT "
           "[--max-jobs N]\n"
           "  gpuperf-worker gc --store DIR [--gc-bytes N] "
           "[--gc-age SEC] [--dry-run]\n"
           "  gpuperf-worker verify --store DIR [--report-only]\n"
           "  gpuperf-worker stats --store DIR\n"
           "shared option flags (see tools/cli_common.h): --store "
           "--timeout --idle-timeout\n"
           "  --job-timeout --max-clients --max-inflight --max-cells "
           "--max-frame-bytes\n"
           "  --worker-inflight --max-jobs --json\n";
    return 1;
}

/**
 * The demo request: three registry cases (one of each bottleneck
 * family, histogram included) on a scaled-down machine whose
 * microbenchmark calibration is quick, with a small sweep — enough
 * to exercise calibration, funcsim, timing, prediction, sweep and
 * every codec, in seconds.
 */
api::AnalysisRequest
demoRequest(const std::string &store_dir)
{
    api::AnalysisRequest req;
    req.jobName = "demo";

    req.kernels.push_back(api::KernelJob::fromRef(
        "saxpy", api::CaseRef{"saxpy", {16, 128}, {2.0}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "cr-like-conflicted",
        api::CaseRef{"shared-conflict", {8, 128, 8, 32}, {}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "histogram", api::CaseRef{"histogram", {8, 128, 8, 4}, {}}));

    arch::GpuSpec tiny = arch::GpuSpec::gtx285();
    tiny.name = "GTX tiny (demo)";
    tiny.numSms = 3;
    tiny.maxWarpsPerSm = 8;
    tiny.maxThreadsPerSm = 256;
    tiny.maxThreadsPerBlock = 256;
    tiny.validate();
    req.specs.push_back(tiny);

    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0};
    req.sweep.coalescingFractions = {1.0};

    req.store.storeDir = store_dir;
    req.exec.numThreads = 2;
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    cli::CommonArgs args;
    if (!cli::parseCommonArgs(argc, argv, 2, &args))
        return usage();

    try {
        if (mode == "demo-request") {
            if (args.out.empty())
                return usage();
            const api::AnalysisRequest req = demoRequest(args.store);
            if (!cli::writeFile(args.out, api::requestToJson(req))) {
                std::cerr << "cannot write '" << args.out << "'\n";
                return 1;
            }
            std::cout << "wrote demo request (" << req.kernels.size()
                      << " kernels x " << req.specs.size()
                      << " specs) to " << args.out << "\n";
            return 0;
        }

        if (mode == "run") {
            if (args.positional.empty() || args.out.empty())
                return usage();
            api::AnalysisRequest req;
            if (!cli::loadRequestJson(args.positional, &req))
                return 1;
            const std::string uri =
                args.via.empty() ? "inproc:" : args.via.front();
            const auto transport = api::makeTransport(
                cli::endpointFor(args, uri,
                                 api::Endpoint::Role::kClient));
            const api::AnalysisResponse resp = transport->run(req);
            if (!cli::writeFile(args.out, api::responseToJson(resp))) {
                std::cerr << "cannot write '" << args.out << "'\n";
                return 1;
            }
            std::cout << "ran " << resp.cells.size() << " cells via "
                      << transport->describe() << ", response at "
                      << args.out << "\n";
            return cli::cellStatus(resp);
        }

        if (mode == "serve") {
            // Fleet registration: serve --via unix:SOCK / tcp:H:P.
            if (args.via.empty())
                return usage();
            const api::Endpoint server = cli::endpointFor(
                args, args.via.front(), api::Endpoint::Role::kWorker);
            if (server.scheme != api::Endpoint::Scheme::kUnix &&
                server.scheme != api::Endpoint::Scheme::kTcp)
                return usage();
            api::AnalysisService service;
            api::WorkerLoopOptions opts;
            opts.maxJobs = server.limits.maxJobs;
            const api::WorkerLoopStats stats =
                api::workerServe(server, service, nullptr, opts);
            std::cout << "worker executed " << stats.executed
                      << " job(s), " << stats.failedCells
                      << " failed cell(s)\n";
            return 0;
        }

        // Store lifecycle admin verbs: the flags travel as endpoint
        // options (one vocabulary), so parse them off an inproc URI.
        if (mode == "gc" || mode == "verify" || mode == "stats") {
            const api::Endpoint ep = cli::endpointFor(
                args, "inproc:", api::Endpoint::Role::kClient);
            const std::string root =
                ep.storeDir.empty() ? args.store : ep.storeDir;
            if (root.empty()) {
                std::cerr << "gpuperf-worker " << mode
                          << " needs --store DIR\n";
                return usage();
            }
            if (mode == "gc") {
                store::GcOptions gc;
                gc.maxBytes = ep.limits.gcBytes;
                gc.maxAgeMs = static_cast<int64_t>(
                    ep.timeouts.gcAgeSeconds * 1000.0);
                gc.dryRun = args.dryRun;
                const store::GcReport report = store::runGc(root, gc);
                std::cout << report.json() << "\n";
                return report.ok ? 0 : 1;
            }
            if (mode == "verify") {
                store::VerifyOptions vo;
                vo.fix = !args.reportOnly;
                const store::VerifyReport report =
                    store::runVerify(root, vo);
                std::cout << report.json() << "\n";
                // 2 = ran but found corruption, mirroring the failed-
                // cell convention; 1 = a fix failed to apply.
                if (!report.ok)
                    return 1;
                return report.clean() ? 0 : 2;
            }
            const store::StoreUsage usage_scan =
                store::scanStoreUsage(root);
            std::cout << store::storeUsageJson(usage_scan) << "\n";
            return 0;
        }
    } catch (const std::exception &e) {
        std::cerr << "gpuperf-worker " << mode << ": " << e.what()
                  << "\n";
        return 1;
    }
    return usage();
}
