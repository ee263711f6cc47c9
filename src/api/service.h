/**
 * @file
 * AnalysisService — the single public entry point to the paper's
 * Figure-1 pipeline. One typed request in, one typed response out;
 * everything the four historical entry points (AnalysisSession,
 * SimulatedDevice, BatchRunner, runSweep) exposed through diverging
 * constructors and option structs is expressed in the request schema
 * (api/request.h), and those classes become internal executors.
 *
 * Results are pinned bit-identical to the pre-redesign paths: a
 * request executes on the BatchRunner task graph, so service ==
 * BatchRunner::run == the per-cell reference pipeline
 * (tests/reference_pipeline.h), cell for cell, double for double
 * (tests/test_api.cc).
 *
 * The service is long-lived: it keeps one executor per distinct
 * (store, execution) policy, so repeated requests share in-memory
 * calibration/profile/timing memos exactly like repeated
 * BatchRunner::run() calls did.
 */

#ifndef GPUPERF_API_SERVICE_H
#define GPUPERF_API_SERVICE_H

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "api/request.h"
#include "driver/batch_runner.h"
#include "store/stats.h"

namespace gpuperf {
namespace api {

/** Completion-order delivery of finished cells (streaming mode). */
using CellCallback =
    std::function<void(size_t index, const driver::BatchResult &cell)>;

/** Wall-clock milestones of one executed request. */
using StreamStats = driver::BatchRunner::StreamStats;

class AnalysisService
{
  public:
    AnalysisService() = default;
    AnalysisService(const AnalysisService &) = delete;
    AnalysisService &operator=(const AnalysisService &) = delete;

    /**
     * Execute @p req and return the full response, cells in
     * kernel-major order. With delivery == kStream and a callback,
     * each finished cell is ALSO handed to @p onCell in completion
     * order while the batch is still running (invocations are
     * serialized; a throwing callback abandons later deliveries and
     * rethrows after the batch drains, exactly like
     * BatchRunner::runStream). @p stats, when non-null, receives the
     * run's wall-clock milestones.
     *
     * Invalid requests (schema mismatch, malformed jobs) throw
     * std::runtime_error; per-cell failures (unknown factory, bad
     * arguments, a throwing kernel) come back as ok == false cells.
     */
    AnalysisResponse execute(const AnalysisRequest &req,
                             const CellCallback &onCell = {},
                             StreamStats *stats = nullptr);

    /** Collect-only convenience over execute(). */
    AnalysisResponse run(const AnalysisRequest &req)
    {
        return execute(req);
    }

    /**
     * Calibration tables for @p spec under @p req's policies (store
     * reuse, lease sharding and memoization included). The facade's
     * replacement for AnalysisSession::shareCalibration().
     */
    std::shared_ptr<const model::CalibrationTables>
    calibrationFor(const AnalysisRequest &req,
                   const arch::GpuSpec &spec);

    /**
     * Pre-seed the calibration memo behind @p req's policies (tests,
     * benches, injected tables). Forwards to
     * BatchRunner::adoptCalibration on the request's executor.
     */
    void adoptCalibration(
        const AnalysisRequest &req, const arch::GpuSpec &spec,
        std::shared_ptr<const model::CalibrationTables> tables);

    /**
     * The internal executor serving @p req's policies (created on
     * first use, shared by every request with equal policies). An
     * escape hatch for benches and tests that pin executor-level
     * counters (store hits, funcsims computed); application code
     * should not need it. The cache is bounded (kMaxExecutors,
     * least-recently-used eviction — a long-lived fleet worker
     * serving many distinct store policies must not accumulate
     * thread pools and memos forever), so the reference is
     * guaranteed valid only until requests for other policies are
     * executed; re-fetch rather than hold it.
     */
    driver::BatchRunner &executorFor(const AnalysisRequest &req);

    /** Executor-cache bound: beyond this, the LRU entry is evicted. */
    static constexpr size_t kMaxExecutors = 8;

    /**
     * Translate the request's policies into executor options — the
     * one place the schema maps onto BatchRunner::Options.
     */
    static driver::BatchRunner::Options
    executorOptions(const AnalysisRequest &req);

    /**
     * Drop every cached executor — a process restart in miniature.
     * The next request rebuilds its executor from nothing but the
     * persistent stores; benches use this to measure warm-store
     * behaviour without forking.
     */
    void reset();

    /**
     * Store cache-health counters summed across every executor this
     * service has EVER built: live cache entries plus an accumulator
     * of the executors the LRU bound evicted, so a counter never
     * drops when an executor is retired. What Server::stats() (and
     * thus `--stats-json`) reports as the "store" section.
     */
    store::StoreLayerStats storeStats() const;

  private:
    struct Executor
    {
        std::shared_ptr<driver::BatchRunner> runner;
        uint64_t lastUse = 0;
    };

    /**
     * The executor handle for @p req, bumping its LRU stamp and
     * evicting beyond kMaxExecutors. Callers that RUN requests hold
     * the shared_ptr for the duration, so eviction can never destroy
     * an executor mid-batch.
     */
    std::shared_ptr<driver::BatchRunner>
    executorHandleFor(const AnalysisRequest &req);

    mutable std::mutex mutex_;
    std::map<std::string, Executor> executors_;
    /** Counters of executors the LRU bound (or reset()) retired. */
    store::StoreLayerStats retired_;
    uint64_t useCounter_ = 0;
};

/**
 * Build the response scaffold for @p req (name, shape) — shared by
 * the in-process executor and the fleet dispatcher.
 */
AnalysisResponse makeResponseShell(const AnalysisRequest &req);

/**
 * Validate @p req (schema version, job bodies present, positive
 * shapes). Throws std::runtime_error on violations. Executed by
 * AnalysisService::execute and the fleet dispatcher.
 */
void validateRequest(const AnalysisRequest &req);

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_SERVICE_H
