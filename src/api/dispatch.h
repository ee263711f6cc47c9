/**
 * @file
 * api::Dispatcher — the fleet half of the analysis server. PR 6's
 * gpuperf-serve accepted requests from many clients but executed
 * every admitted cell in its own process; the dispatcher closes the
 * ROADMAP's loop by fanning cells out to remote gpuperf-worker
 * processes over the SAME framed socket transport the clients speak:
 *
 *   worker -> server   kRegister(name)      join the fleet
 *   server -> worker   kRegister(id)        registration ack
 *   server -> worker   kJob(u64 id + binary single-cell request)
 *   worker -> server   kCell(u64 id + binary single-cell response)
 *
 * Each admitted request is split into single-cell jobs (cellRequest
 * below — the cell == batch bit-identity contract is what makes fleet
 * responses bit-identical to in-process execution, cell for cell),
 * queued, and pushed to the least-loaded live workers,
 * bounded per worker. Results stream back in completion order and
 * are reassembled kernel-major.
 *
 * Failure containment:
 *
 *  - NO workers live: the whole request falls back to the local
 *    AnalysisService (batch path, streaming intact) — a fleet of
 *    zero is just PR 6's server;
 *  - a worker DIES holding jobs (EOF, torn frame, SIGKILL): its
 *    in-flight jobs are stolen back onto the queue and re-dispatched
 *    to surviving workers (crash-steal);
 *  - a job times out (jobTimeoutSeconds) or exceeds the re-dispatch
 *    bound: the request's own thread executes it locally — forward
 *    progress never depends on fleet health;
 *  - results are EXACTLY-ONCE: first completion wins, late
 *    duplicates (a stolen job's original worker answering after
 *    all) are counted and dropped;
 *  - a malformed result frame kills the worker connection that sent
 *    it (its jobs are stolen back), never the client waiting on the
 *    cell.
 *
 * Workers sharing the server's forced store root also share
 * calibrations/profiles/timings through store::Lease, so an N-cell
 * batch spread over W workers still calibrates each spec once
 * globally.
 */

#ifndef GPUPERF_API_DISPATCH_H
#define GPUPERF_API_DISPATCH_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "api/endpoint.h"
#include "api/service.h"
#include "api/transport.h"
#include "sched/cost.h"
#include "sched/policy.h"

namespace gpuperf {
namespace api {

/**
 * The single-cell job derived from @p req at (kernel ki, spec si):
 * one worker thread, collect delivery (streaming is the requesting
 * connection's concern).
 */
AnalysisRequest cellRequest(const AnalysisRequest &req, size_t ki,
                            size_t si);

/**
 * A single-cell response whose cell failed before (or instead of)
 * executing, labeled from the cell request. Shared by the
 * dispatcher's local fallback and registered workers, so every seam
 * fails a cell the same way.
 */
AnalysisResponse cellFailureResponse(const AnalysisRequest &cell,
                                     const std::string &error);

struct DispatchOptions
{
    /** Jobs in flight per registered worker. */
    size_t maxInFlightPerWorker = 4;
    /** Re-dispatch a dispatched-but-unanswered job after this. */
    double jobTimeoutSeconds = 600.0;
    /** Bound accepted on worker result frames. */
    uint64_t maxFrameBytes = kMaxFrameBytesDefault;
    /**
     * Pending-queue order (`?sched=` endpoint option). Changes which
     * queued job the next free worker slot takes — never the
     * response, which stays bit-identical to kFifo.
     */
    sched::SchedPolicy policy = sched::SchedPolicy::kFifo;
};

/** One worker's health, as seen by Server::stats(). */
struct WorkerStat
{
    uint64_t id = 0;
    std::string name;
    bool live = false;
    uint64_t cellsDone = 0;
    size_t inFlight = 0;
};

/** Monotonic fleet counters (telemetry; torn reads are fine). */
struct DispatchStats
{
    uint64_t workersRegistered = 0; ///< cumulative kRegister accepts
    uint64_t workersLive = 0;       ///< currently connected
    uint64_t workerDeaths = 0;      ///< connections lost/killed
    uint64_t cellsDispatched = 0;   ///< kJob frames sent (re-sends incl.)
    uint64_t cellsCompletedRemote = 0; ///< results accepted from workers
    uint64_t cellsRedispatched = 0; ///< jobs stolen back (death/timeout)
    uint64_t cellsLocal = 0;        ///< cells executed by the fallback
    /** cellsLocal split: taken because NO worker was live... */
    uint64_t cellsLocalNoWorkers = 0;
    /** ...vs. taken after exhausting the re-dispatch bound. */
    uint64_t cellsLocalExhausted = 0;
    uint64_t requestsLocalFallback = 0; ///< whole requests run locally
    uint64_t duplicateResults = 0;  ///< late/duplicate results dropped
    uint64_t malformedResults = 0;  ///< result frames that failed to parse

    // --- Scheduler telemetry ------------------------------------------
    const char *schedPolicy = "fifo"; ///< active pending-queue policy
    size_t queueDepth = 0;            ///< jobs waiting right now
    size_t queueDepthPeak = 0;        ///< high-water mark
    /** Queue wait of dispatched jobs, split small/large by predicted
     *  cost relative to the job's own batch (per-class tail). */
    double waitSmallMsTotal = 0.0;
    double waitSmallMsMax = 0.0;
    uint64_t waitSmallCount = 0;
    double waitLargeMsTotal = 0.0;
    double waitLargeMsMax = 0.0;
    uint64_t waitLargeCount = 0;
    /** |predicted - measured| wall time accumulation. */
    double costErrorAbsMsSum = 0.0;
    uint64_t costErrorSamples = 0;
    /** Per-client fair-share accounting (queued/popped/cost). */
    std::vector<sched::ClientShare> clientShares;
    /** Live workers first, then dead ones (totals preserved). */
    std::vector<WorkerStat> workers;
};

class Dispatcher
{
  public:
    /** Local-takeover bound: a job stolen this often runs locally. */
    static constexpr int kMaxRedispatches = 3;

    Dispatcher(AnalysisService &local, DispatchOptions opts = {});
    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /**
     * Execute @p req: through the fleet when any worker is live
     * (per-cell jobs, streamed deliveries in completion order),
     * straight through the local AnalysisService otherwise. Either
     * way the response is bit-identical to in-process execution
     * (responsesEqual) — pinned by tests/test_dispatch.cc. A
     * throwing @p onCell abandons later deliveries and rethrows
     * after the batch drains, exactly like AnalysisService::execute.
     */
    AnalysisResponse execute(const AnalysisRequest &req,
                             const CellCallback &onCell = {});

    /**
     * Adopt @p fd as a worker channel after its kRegister hello
     * (@p hello = the worker's self-reported name). Blocks for the
     * connection's life pumping jobs out and results in; returns
     * when the worker hangs up, breaks protocol, or @p stop turns
     * true. The caller still owns (and closes) the fd afterwards.
     */
    void serveWorker(int fd, const std::string &hello,
                     const std::atomic<bool> *stop);

    size_t liveWorkers() const;
    DispatchStats stats() const;

  private:
    struct Batch;

    struct Job
    {
        uint64_t id = 0;
        AnalysisRequest cell;
        std::string payload; ///< prebuilt kJob payload (id + request)
        size_t index = 0;    ///< kernel-major slot in the batch
        Batch *batch = nullptr;
        uint64_t assignedWorker = 0; ///< 0 = queued/unassigned
        std::chrono::steady_clock::time_point queuedAt;
        std::chrono::steady_clock::time_point dispatchedAt;
        int redispatches = 0;
        bool done = false;
        /** Cost-model observation key (cell content hash). */
        std::string costKey;
        sched::CostFeatures features;
        double cost = 0.0; ///< predicted cost at enqueue, ms
        /** Predicted cost above its batch's mean (wait-class split). */
        bool large = false;
    };

    struct Worker
    {
        uint64_t id = 0;
        int fd = -1;
        std::string name;
        uint64_t cellsDone = 0;
        std::set<uint64_t> inFlight;
        /**
         * Serializes kJob writes and gates them on !dead: the fd is
         * closed only after the remover has held this mutex, so no
         * sender can ever write a stale (possibly reused) fd.
         */
        std::mutex sendMutex;
        bool dead = false;
    };

    struct Batch
    {
        AnalysisResponse resp; ///< cells preallocated, slots filled
        const CellCallback *onCell = nullptr;
        bool streaming = false;
        size_t remaining = 0;
        size_t deliveriesInFlight = 0;
        bool callbackFailed = false;
        std::string callbackError;
        /** Serializes onCell invocations across worker threads. */
        std::mutex deliverMutex;
    };

    /** Assign queued jobs to free workers and send (outside mutex_). */
    void pump();
    /** Record a job's measured wall time into the cost model. */
    void observeJob(const Job &job, double ms);
    /** Account a popped job's queue wait. Caller holds mutex_. */
    void accountWaitLocked(const Job &job);
    /** One kCell result from @p worker_id. False = kill the worker. */
    bool handleResult(uint64_t worker_id, const std::string &payload);
    /** Unregister, steal its in-flight jobs back onto the queue. */
    void removeWorker(uint64_t id);
    /** Fill the job's slot, deliver, retire it. Unlocks to deliver. */
    void completeLocked(std::unique_lock<std::mutex> &lock, Job *job,
                        driver::BatchResult cell);
    void requeueLocked(Job *job);
    size_t liveWorkersLocked() const;

    AnalysisService &local_;
    DispatchOptions opts_;

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::map<uint64_t, std::shared_ptr<Worker>> workers_;
    std::vector<WorkerStat> dead_workers_;
    std::map<uint64_t, Job *> jobs_; ///< every un-retired job, by id
    /** Unassigned jobs, ordered by opts_.policy (crash-stolen jobs
     *  re-enter urgent, FIFO ahead of everything). */
    sched::PendingQueue<Job *> queue_;
    /** In-process cost history driving queue_'s predictions. */
    sched::CostModel costModel_;
    uint64_t job_counter_ = 0;
    uint64_t worker_counter_ = 0;
    DispatchStats stats_;
};

// --- The worker side --------------------------------------------------

struct WorkerLoopOptions
{
    /** Registration name ("" = "worker-<pid>"). */
    std::string name;
    /** Stop after this many executed jobs (0 = until hangup). */
    size_t maxJobs = 0;
    /** Test hook: observe each job before executing it. */
    std::function<void(const AnalysisRequest &cell)> onJob;
};

struct WorkerLoopStats
{
    size_t executed = 0;
    size_t failedCells = 0;
};

/**
 * Register with the gpuperf-serve daemon at @p server (unix:/tcp:)
 * and execute kJob frames through @p service until the server hangs
 * up, @p stop turns true, or opts.maxJobs is reached. Per-job
 * failures (malformed cell, throwing analysis) answer with a failed
 * cell — they never kill the worker. Throws std::runtime_error when
 * the server is unreachable or registration is refused.
 */
WorkerLoopStats workerServe(const Endpoint &server,
                            AnalysisService &service,
                            const std::atomic<bool> *stop = nullptr,
                            const WorkerLoopOptions &opts = {});

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_DISPATCH_H
