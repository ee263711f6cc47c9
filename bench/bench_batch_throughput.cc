/**
 * @file
 * Batch-analysis throughput through the public AnalysisService API,
 * three studies:
 *
 * 1. Analyses per second versus worker count for a 64-point batch (a
 *    mix of coalesced, strided, bank-conflicted, stencil, reduction
 *    and histogram kernel cases, each a full functional-sim ->
 *    extraction -> prediction -> what-if workflow). Calibration
 *    happens once, outside the timed region, and is adopted by every
 *    executor. Gate: >= 2x analyses/sec at 4 threads over 1 thread
 *    (enforced with >= 4 hardware threads).
 *
 * 2. Profile sharing and the persistent store on an N x M spec-variant
 *    grid (the paper's Section 5 what-if studies): the per-cell
 *    reference pipeline re-simulates every cell; profile sharing runs
 *    N functional sims for N x M cells; a warm store skips them
 *    entirely across process restarts (service.reset() plays the
 *    restart). Gate: warm-store analyses/sec >= 3x the per-cell
 *    pipeline at M >= 4 variants (results are bit-identical either
 *    way — pinned by test_profile/test_store/test_api).
 *
 * 3. Streaming delivery: on a two-spec batch whose cold calibrations
 *    cost very differently, a streamed request must hand over the
 *    first finished cell while the slower spec's microbenchmark sweep
 *    is still running. Gate: time-to-first-result < time of the last
 *    calibration completing. Reported in bench_batch_throughput.json
 *    ("streaming").
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "api/request.h"
#include "api/service.h"
#include "bench/bench_common.h"
#include "common/thread_pool.h"
#include "store/profile_store.h"
#include "store/stats.h"

using namespace gpuperf;

namespace {

/**
 * The batch as wire-portable case refs — the same KernelJobs a fleet
 * dispatcher would ship to its workers. Six families (histogram included), with
 * v = i/6 varying each family's parameters injectively through the
 * 64-point batch.
 */
std::vector<api::KernelJob>
makeBatch(int points, bool full)
{
    const int scale = full ? 4 : 1;
    std::vector<api::KernelJob> jobs;
    jobs.reserve(static_cast<size_t>(points));
    for (int i = 0; i < points; ++i) {
        const std::string tag = "#" + std::to_string(i);
        const int64_t v = i / 6;
        switch (i % 6) {
          case 0:
            jobs.push_back(api::KernelJob::fromRef(
                "saxpy" + tag,
                api::CaseRef{
                    "saxpy", {(16 + 8 * v) * scale, 256}, {2.0}}));
            break;
          case 1:
            // Power-of-two grid sizes keep n a power of two, as the
            // strided case requires.
            jobs.push_back(api::KernelJob::fromRef(
                "strided" + tag,
                api::CaseRef{"saxpy-strided",
                             {(int64_t{16} << (v / 4)) * scale, 256,
                              int64_t{1} << (1 + v % 4)},
                             {}}));
            break;
          case 2:
            jobs.push_back(api::KernelJob::fromRef(
                "conflict" + tag,
                api::CaseRef{"shared-conflict",
                             {8 * scale, 128, int64_t{2} << (v % 4),
                              48 + 16 * (v / 4)},
                             {}}));
            break;
          case 3:
            jobs.push_back(api::KernelJob::fromRef(
                "stencil" + tag,
                api::CaseRef{"stencil1d",
                             {(12 + 4 * v) * scale, 256},
                             {}}));
            break;
          case 4:
            jobs.push_back(api::KernelJob::fromRef(
                "reduce" + tag,
                api::CaseRef{"reduction",
                             {(8 + 4 * v) * scale, 256},
                             {}}));
            break;
          default:
            jobs.push_back(api::KernelJob::fromRef(
                "hist" + tag,
                api::CaseRef{"histogram",
                             {(6 + 2 * v) * scale, 128, 8, 4},
                             {}}));
            break;
        }
    }
    return jobs;
}

/**
 * M spec variants differing only in timing/occupancy fields, so all
 * of them share one funcsim fingerprint (the favourable case profile
 * sharing is built for; a variant like gtx285PrimeBanks() would
 * simply recompute under its own fingerprint).
 */
std::vector<arch::GpuSpec>
makeSpecGrid()
{
    std::vector<arch::GpuSpec> specs;
    specs.push_back(arch::GpuSpec::gtx285());
    specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
    specs.push_back(arch::GpuSpec::gtx285BigResources());
    arch::GpuSpec oc = arch::GpuSpec::gtx285();
    oc.name = "GTX 285 + 25% core clock";
    oc.coreClockHz *= 1.25;
    specs.push_back(oc);
    arch::GpuSpec slow = arch::GpuSpec::gtx285();
    slow.name = "GTX 285 + 2x memory latency";
    slow.globalLatencyCycles *= 2;
    specs.push_back(slow);
    arch::GpuSpec deep = arch::GpuSpec::gtx285();
    deep.name = "GTX 285 + deeper ALU pipeline";
    deep.aluDepCycles += 12;
    specs.push_back(deep);
    return specs;
}

/** Time one request; returns analyses/sec, exits on any failure. */
double
timedRun(api::AnalysisService &service, const api::AnalysisRequest &req)
{
    const auto start = std::chrono::steady_clock::now();
    const api::AnalysisResponse resp = service.run(req);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    for (const auto &r : resp.cells) {
        if (!r.ok) {
            std::cerr << "failing analysis: " << r.kernelName << " x "
                      << r.specName << ": " << r.error << "\n";
            std::exit(1);
        }
    }
    return static_cast<double>(resp.cells.size()) / elapsed.count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    const int points = 64;

    printBanner(std::cout, "batch-analysis throughput vs threads");

    api::AnalysisService service;

    // Calibrate once, outside the timed region, via a cache-backed
    // policy; every executor below adopts this one table set.
    std::cout << "calibrating " << spec.name
              << " (cached across bench runs)...\n";
    api::AnalysisRequest cal_req;
    cal_req.jobName = "bench-calibration";
    cal_req.store.calibrationCacheDir = ".";
    const auto tables = service.calibrationFor(cal_req, spec);

    api::AnalysisRequest base;
    base.jobName = "bench-batch-throughput";
    base.sweep.noBankConflicts = true;
    base.sweep.coalescingFractions = {1.0};
    base.kernels = makeBatch(points, opts.full);
    base.specs = {spec};

    Table t({"threads", "analyses", "seconds", "analyses/sec",
             "speedup vs 1T"});
    double base_rate = 0.0;
    double rate_at_4 = 0.0;
    for (int threads : {1, 2, 4, 8}) {
        api::AnalysisRequest req = base;
        req.exec.numThreads = threads;
        service.adoptCalibration(req, spec, tables);

        const auto start = std::chrono::steady_clock::now();
        const api::AnalysisResponse resp = service.run(req);
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;

        int ok = 0;
        for (const auto &r : resp.cells)
            ok += r.ok ? 1 : 0;
        if (ok != points) {
            std::cerr << "batch had " << points - ok
                      << " failing analyses\n";
            return 1;
        }

        const double rate = points / elapsed.count();
        if (threads == 1)
            base_rate = rate;
        if (threads == 4)
            rate_at_4 = rate;
        t.addRow({std::to_string(threads), std::to_string(points),
                  Table::num(elapsed.count(), 3), Table::num(rate, 1),
                  Table::num(rate / base_rate, 2) + "x"});
    }
    bench::emit(t, opts);

    const double scaling = rate_at_4 / base_rate;
    const int hw_threads = ThreadPool::resolveThreads(0);
    std::cout << "\n4-thread scaling: " << Table::num(scaling, 2)
              << "x on " << hw_threads
              << " hardware threads (gate: >= 2x with >= 4 hardware "
                 "threads)\n";
    bool thread_gate_ok = scaling >= 2.0;
    if (hw_threads < 4) {
        std::cout << "thread gate not applicable: this machine cannot "
                     "run 4 analyses concurrently\n";
        thread_gate_ok = true;
    } else if (const char *mode = std::getenv("GPUPERF_THREAD_GATE");
               mode && std::string(mode) == "report") {
        // Shared CI runners report 4 vCPUs that are really 2 noisy
        // SMT cores; scaling there is not a property of this code.
        // CI sets report-only mode; the gate stays enforced locally.
        std::cout << "thread gate in report-only mode "
                     "(GPUPERF_THREAD_GATE=report)\n";
        thread_gate_ok = true;
    }

    // ---------------------------------------------------------------
    // Study 2: profile sharing + persistent store on an N x M grid.
    // ---------------------------------------------------------------
    const auto specs = makeSpecGrid();
    api::AnalysisRequest grid = base;
    grid.kernels = makeBatch(opts.full ? 32 : 16, opts.full);
    grid.specs = specs;
    grid.exec.numThreads = 0;
    printBanner(std::cout,
                "profile sharing & store (" +
                    std::to_string(grid.kernels.size()) +
                    " kernels x " + std::to_string(specs.size()) +
                    " spec variants)");

    const std::string store_dir = "batch_store_bench";
    (void)std::system(("rm -rf " + store_dir).c_str());

    const auto policy_run = [&](api::ExecutionPolicy::Pipeline pipeline,
                                const std::string &dir,
                                bool reuse_results) {
        api::AnalysisRequest req = grid;
        req.exec.pipeline = pipeline;
        req.store.storeDir = dir;
        req.store.reuseStoredResults = reuse_results;
        for (const auto &s : specs)
            service.adoptCalibration(req, s, tables);
        return req;
    };

    Table grid_table({"mode", "analyses", "analyses/sec",
                      "speedup vs per-cell"});
    // Reference pipeline: every cell re-runs the functional simulator.
    const double percell_rate = timedRun(
        service,
        policy_run(api::ExecutionPolicy::Pipeline::kPerCell, "",
                   false));
    // Profile sharing, cold store: N functional sims for N x M cells,
    // profiles written to disk as a side effect.
    const double cold_rate = timedRun(
        service, policy_run(api::ExecutionPolicy::Pipeline::kShared,
                            store_dir, false));
    // Warm store after a "process restart" (reset() drops every
    // executor and its in-memory memos): profiles load from disk,
    // zero functional simulation.
    service.reset();
    const api::AnalysisRequest warm_req =
        policy_run(api::ExecutionPolicy::Pipeline::kShared, store_dir,
                   false);
    const double warm_rate = timedRun(service, warm_req);
    const uint64_t warm_hits =
        service.executorFor(warm_req).profileStore()->hits();
    // Warm result store: whole cells served from disk.
    service.reset();
    const double result_warm_rate = timedRun(
        service, policy_run(api::ExecutionPolicy::Pipeline::kShared,
                            store_dir, true));

    const size_t cells = grid.kernels.size() * specs.size();
    auto add_row = [&](const char *mode, double rate) {
        grid_table.addRow({mode, std::to_string(cells),
                           Table::num(rate, 1),
                           Table::num(rate / percell_rate, 2) + "x"});
    };
    add_row("per-cell (reference)", percell_rate);
    add_row("shared, cold store", cold_rate);
    add_row("shared, warm store", warm_rate);
    add_row("warm result store", result_warm_rate);
    bench::emit(grid_table, opts);

    if (warm_hits != grid.kernels.size()) {
        std::cerr << "warm run loaded " << warm_hits
                  << " profiles, expected " << grid.kernels.size()
                  << "\n";
        return 1;
    }
    const double share_speedup = warm_rate / percell_rate;
    std::cout << "\nwarm-store speedup: " << Table::num(share_speedup, 2)
              << "x over the per-cell pipeline at " << specs.size()
              << " spec variants (gate: >= 3x, cold "
              << Table::num(cold_rate / percell_rate, 2)
              << "x, warm results "
              << Table::num(result_warm_rate / percell_rate, 2)
              << "x)\n";
    const bool share_gate_ok = share_speedup >= 3.0;

    // ---------------------------------------------------------------
    // Study 3: streaming delivery — time to first result. Two specs
    // whose COLD calibrations cost very differently: the task graph
    // must stream the quick spec's finished cells out while the slow
    // spec's microbenchmark sweep is still running, so the first
    // result lands before the last calibration completes (a blocking
    // run delivers nothing until the whole batch drains).
    // ---------------------------------------------------------------
    printBanner(std::cout,
                "streaming delivery (time to first result, cold "
                "calibrations)");

    arch::GpuSpec quick = arch::GpuSpec::gtx285();
    quick.name = "GTX tiny (quick calibration)";
    quick.numSms = 3;
    quick.maxWarpsPerSm = 8;
    quick.maxThreadsPerSm = 256;
    quick.maxThreadsPerBlock = 256;
    quick.validate();
    arch::GpuSpec slow_cal = arch::GpuSpec::gtx285();
    slow_cal.name = "GTX mid (slow calibration)";
    slow_cal.numSms = 15;
    slow_cal.maxWarpsPerSm = 16;
    slow_cal.maxThreadsPerSm = 512;
    slow_cal.validate();

    api::AnalysisRequest stream_req = base;
    stream_req.jobName = "bench-streaming";
    stream_req.kernels = makeBatch(6, false);
    stream_req.specs = {quick, slow_cal};
    stream_req.exec.numThreads = 4;
    stream_req.exec.delivery = api::ExecutionPolicy::Delivery::kStream;

    // A fresh service: the streaming study measures COLD calibration
    // overlap, so nothing may be adopted or memoized.
    api::AnalysisService cold_service;
    size_t stream_ok = 0;
    api::StreamStats stream_stats;
    cold_service.execute(
        stream_req,
        [&stream_ok](size_t, const driver::BatchResult &r) {
            stream_ok += r.ok ? 1 : 0;
        },
        &stream_stats);
    if (stream_ok != stream_req.kernels.size() * 2) {
        std::cerr << "streaming study had failing analyses\n";
        return 1;
    }

    // A blocking run is runStream + reorder: its time-to-first-result
    // IS the drain time, so the same run yields the blocking baseline.
    Table stream_table({"delivery", "first result (s)",
                        "last calibration (s)", "batch total (s)"});
    stream_table.addRow({"streaming (kStream)",
                         Table::num(stream_stats.firstResultSeconds, 3),
                         Table::num(stream_stats.lastCalibrationSeconds,
                                    3),
                         Table::num(stream_stats.totalSeconds, 3)});
    stream_table.addRow({"blocking (kCollect)",
                         Table::num(stream_stats.totalSeconds, 3), "-",
                         Table::num(stream_stats.totalSeconds, 3)});
    bench::emit(stream_table, opts);

    const bool stream_gate_ok = stream_stats.firstResultSeconds <
                                stream_stats.lastCalibrationSeconds;
    std::cout << "\ntime to first result: "
              << Table::num(stream_stats.firstResultSeconds, 3)
              << "s streaming vs "
              << Table::num(stream_stats.totalSeconds, 3)
              << "s blocking — "
              << Table::num(stream_stats.totalSeconds /
                                stream_stats.firstResultSeconds,
                            1)
              << "x earlier (gate: first result before the slowest "
                 "calibration finishes at "
              << Table::num(stream_stats.lastCalibrationSeconds, 3)
              << "s)\n";

    // Machine-readable trajectory for CI artifacts.
    {
        std::ofstream json("bench_batch_throughput.json");
        char buf[768];
        std::snprintf(
            buf, sizeof(buf),
            "{\n  \"bench\": \"batch_throughput\",\n"
            "  \"gate\": \"%s\",\n  \"scaling_4t\": %.3f,\n"
            "  \"hardware_threads\": %d,\n  \"grid\": {\"kernels\": %zu, "
            "\"specs\": %zu},\n  \"analyses_per_sec\": "
            "{\"per_cell\": %.1f, \"shared_cold\": %.1f, "
            "\"shared_warm\": %.1f, \"warm_results\": %.1f},\n"
            "  \"streaming\": {\"first_result_sec\": %.3f, "
            "\"last_calibration_sec\": %.3f, \"total_sec\": %.3f, "
            "\"blocking_first_result_sec\": %.3f},\n",
            share_gate_ok && thread_gate_ok && stream_gate_ok
                ? "pass"
                : "fail",
            scaling, hw_threads, grid.kernels.size(), specs.size(),
            percell_rate, cold_rate, warm_rate, result_warm_rate,
            stream_stats.firstResultSeconds,
            stream_stats.lastCalibrationSeconds,
            stream_stats.totalSeconds, stream_stats.totalSeconds);
        json << buf;
        // Store cache-health counters across every study above (the
        // warm legs show up as hits, the cold legs as misses+writes).
        json << "  \"store\": "
             << store::storeLayerStatsJson(service.storeStats(), "  ")
             << "\n}\n";
    }

    if (!share_gate_ok)
        std::cerr << "profile-sharing gate FAILED\n";
    if (!thread_gate_ok)
        std::cerr << "thread-scaling gate FAILED\n";
    if (!stream_gate_ok)
        std::cerr << "streaming time-to-first-result gate FAILED\n";
    return share_gate_ok && thread_gate_ok && stream_gate_ok ? 0 : 1;
}
