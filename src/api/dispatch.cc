#include "api/dispatch.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>

#include "api/cell_cost.h"
#include "api/codecs.h"
#include "common/socket.h"
#include "store/serializer.h"

namespace gpuperf {
namespace api {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t, Clock::time_point now)
{
    return std::chrono::duration<double>(now - t).count();
}

/** The failed-cell result for a job nothing could execute. */
driver::BatchResult
failedCell(const AnalysisRequest &cell, const std::string &error)
{
    AnalysisResponse one = cellFailureResponse(cell, error);
    return std::move(one.cells[0]);
}

} // namespace

AnalysisRequest
cellRequest(const AnalysisRequest &req, size_t ki, size_t si)
{
    AnalysisRequest cell;
    cell.schemaVersion = req.schemaVersion;
    cell.jobName = req.jobName;
    cell.clientId = req.clientId;
    cell.kernels = {req.kernels[ki]};
    cell.specs = {req.specs[si]};
    cell.sweep = req.sweep;
    cell.store = req.store;
    cell.exec = req.exec;
    cell.exec.numThreads = 1;
    cell.exec.delivery = ExecutionPolicy::Delivery::kCollect;
    return cell;
}

AnalysisResponse
cellFailureResponse(const AnalysisRequest &cell, const std::string &error)
{
    AnalysisResponse resp = makeResponseShell(cell);
    driver::BatchResult r;
    r.kernelName = cell.kernels.empty() ? std::string("?")
                                        : cell.kernels[0].name;
    r.specName = cell.specs.empty() ? std::string("?")
                                    : cell.specs[0].name;
    r.ok = false;
    r.error = error;
    resp.cells.push_back(std::move(r));
    return resp;
}

Dispatcher::Dispatcher(AnalysisService &local, DispatchOptions opts)
    : local_(local), opts_(opts),
      queue_(sched::PendingQueue<Job *>(opts.policy))
{
}

size_t
Dispatcher::liveWorkersLocked() const
{
    return workers_.size();
}

size_t
Dispatcher::liveWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return liveWorkersLocked();
}

DispatchStats
Dispatcher::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    DispatchStats s = stats_;
    s.workersLive = workers_.size();
    s.schedPolicy = sched::schedPolicyName(opts_.policy);
    s.queueDepth = queue_.size();
    s.clientShares = queue_.shares();
    s.costErrorAbsMsSum = costModel_.predictionErrorAbsSum();
    s.costErrorSamples = costModel_.predictionSamples();
    for (const auto &kv : workers_) {
        WorkerStat w;
        w.id = kv.second->id;
        w.name = kv.second->name;
        w.live = true;
        w.cellsDone = kv.second->cellsDone;
        w.inFlight = kv.second->inFlight.size();
        s.workers.push_back(std::move(w));
    }
    s.workers.insert(s.workers.end(), dead_workers_.begin(),
                     dead_workers_.end());
    return s;
}

void
Dispatcher::requeueLocked(Job *job)
{
    auto wit = workers_.find(job->assignedWorker);
    if (wit != workers_.end())
        wit->second->inFlight.erase(job->id);
    job->assignedWorker = 0;
    ++job->redispatches;
    ++stats_.cellsRedispatched;
    job->queuedAt = Clock::now();
    queue_.push(job, job->cost, job->cell.clientId);
    if (queue_.size() > stats_.queueDepthPeak)
        stats_.queueDepthPeak = queue_.size();
}

void
Dispatcher::observeJob(const Job &job, double ms)
{
    costModel_.observe(job.costKey, job.features, ms);
}

void
Dispatcher::accountWaitLocked(const Job &job)
{
    const double wait_ms =
        secondsSince(job.queuedAt, Clock::now()) * 1000.0;
    if (job.large) {
        stats_.waitLargeMsTotal += wait_ms;
        if (wait_ms > stats_.waitLargeMsMax)
            stats_.waitLargeMsMax = wait_ms;
        ++stats_.waitLargeCount;
    } else {
        stats_.waitSmallMsTotal += wait_ms;
        if (wait_ms > stats_.waitSmallMsMax)
            stats_.waitSmallMsMax = wait_ms;
        ++stats_.waitSmallCount;
    }
}

void
Dispatcher::completeLocked(std::unique_lock<std::mutex> &lock, Job *job,
                           driver::BatchResult cell)
{
    job->done = true;
    Batch *b = job->batch;
    const size_t index = job->index;
    const uint64_t id = job->id;
    b->resp.cells[index] = std::move(cell);
    jobs_.erase(id);
    queue_.erase(job);
    // A stolen job may linger in its old worker's in-flight set until
    // that worker's death is noticed; retire it everywhere.
    for (auto &kv : workers_)
        kv.second->inFlight.erase(id);
    const bool deliver = b->streaming && !b->callbackFailed;
    if (deliver)
        ++b->deliveriesInFlight;
    --b->remaining;
    if (deliver) {
        // The slot is stable (preallocated vector, this job retired),
        // so the callback reads it outside mutex_; deliverMutex
        // serializes invocations across worker threads, matching the
        // AnalysisService streaming contract.
        lock.unlock();
        {
            std::lock_guard<std::mutex> dl(b->deliverMutex);
            if (!b->callbackFailed) {
                try {
                    (*b->onCell)(index, b->resp.cells[index]);
                } catch (const std::exception &e) {
                    b->callbackFailed = true;
                    b->callbackError = e.what();
                } catch (...) {
                    b->callbackFailed = true;
                    b->callbackError = "streaming callback threw";
                }
            }
        }
        lock.lock();
        --b->deliveriesInFlight;
    }
    cv_.notify_all();
}

void
Dispatcher::pump()
{
    for (;;) {
        std::shared_ptr<Worker> w;
        std::string payload;
        uint64_t job_id = 0;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (queue_.empty())
                return;
            for (auto &kv : workers_) {
                Worker &cand = *kv.second;
                if (cand.inFlight.size() >= opts_.maxInFlightPerWorker)
                    continue;
                if (!w || cand.inFlight.size() < w->inFlight.size())
                    w = kv.second;
            }
            if (!w)
                return; // every worker full (or none) — results pump
            Job *job = queue_.pop();
            accountWaitLocked(*job);
            job->assignedWorker = w->id;
            job->dispatchedAt = Clock::now();
            w->inFlight.insert(job->id);
            ++stats_.cellsDispatched;
            // Copy out what the send needs: once mutex_ drops, the
            // job may complete (a stolen job's late result) and its
            // owning batch return.
            payload = job->payload;
            job_id = job->id;
        }
        bool sent = false;
        {
            std::lock_guard<std::mutex> sl(w->sendMutex);
            if (!w->dead)
                sent = writeFrame(w->fd, FrameType::kJob, payload);
        }
        if (!sent) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                auto it = jobs_.find(job_id);
                if (it != jobs_.end() && !it->second->done &&
                    it->second->assignedWorker == w->id) {
                    Job *job = it->second;
                    job->assignedWorker = 0;
                    w->inFlight.erase(job_id);
                    queue_.pushUrgent(job);
                }
            }
            // Wake the worker's reader thread so it notices the
            // broken stream and unregisters (requeueing anything
            // else it held).
            std::lock_guard<std::mutex> sl(w->sendMutex);
            if (!w->dead)
                ::shutdown(w->fd, SHUT_RDWR);
            cv_.notify_all();
        }
    }
}

bool
Dispatcher::handleResult(uint64_t worker_id, const std::string &payload)
{
    store::ByteReader r(payload);
    const uint64_t job_id = r.u64();
    AnalysisResponse one;
    const bool parsed = r.ok() && readResponse(r, &one) && r.atEnd() &&
                        one.cells.size() == 1;
    std::unique_lock<std::mutex> lock(mutex_);
    if (!parsed) {
        ++stats_.malformedResults;
        return false; // unsynchronizable peer: kill the connection
    }
    auto wit = workers_.find(worker_id);
    if (wit != workers_.end())
        wit->second->inFlight.erase(job_id);
    auto jit = jobs_.find(job_id);
    if (jit == jobs_.end() || jit->second->done) {
        // A stolen job's original worker answered after the steal
        // completed elsewhere: exactly-once means dropping it.
        ++stats_.duplicateResults;
        return true;
    }
    ++stats_.cellsCompletedRemote;
    if (wit != workers_.end())
        ++wit->second->cellsDone;
    // Refine the cost model with the measured wall time (send to
    // result; includes the worker's own queue, which is what the next
    // prediction should price in).
    observeJob(*jit->second,
               secondsSince(jit->second->dispatchedAt, Clock::now()) *
                   1000.0);
    completeLocked(lock, jit->second, std::move(one.cells[0]));
    return true;
}

void
Dispatcher::removeWorker(uint64_t id)
{
    std::shared_ptr<Worker> w;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = workers_.find(id);
        if (it == workers_.end())
            return;
        w = it->second;
        workers_.erase(it);
        ++stats_.workerDeaths;
        WorkerStat dead;
        dead.id = w->id;
        dead.name = w->name;
        dead.live = false;
        dead.cellsDone = w->cellsDone;
        dead_workers_.push_back(std::move(dead));
        // Steal its in-flight jobs back: urgent, so
        // already-dispatched-once work finishes first under every
        // policy.
        for (const uint64_t job_id : w->inFlight) {
            auto jit = jobs_.find(job_id);
            if (jit == jobs_.end() || jit->second->done)
                continue;
            Job *job = jit->second;
            job->assignedWorker = 0;
            ++job->redispatches;
            ++stats_.cellsRedispatched;
            job->queuedAt = Clock::now();
            queue_.pushUrgent(job);
        }
        w->inFlight.clear();
    }
    {
        // After this, no sender can touch the fd: in-progress sends
        // have finished (they held sendMutex) and new ones see dead.
        std::lock_guard<std::mutex> sl(w->sendMutex);
        w->dead = true;
    }
    cv_.notify_all();
    pump(); // stolen jobs onto the survivors
}

void
Dispatcher::serveWorker(int fd, const std::string &hello,
                        const std::atomic<bool> *stop)
{
    auto w = std::make_shared<Worker>();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        w->id = ++worker_counter_;
        w->fd = fd;
        w->name = hello.empty() ? "worker-" + std::to_string(w->id)
                                : hello;
        workers_[w->id] = w;
        ++stats_.workersRegistered;
    }
    if (!writeFrame(fd, FrameType::kRegister, std::to_string(w->id))) {
        removeWorker(w->id);
        return;
    }
    cv_.notify_all();
    pump(); // a late joiner picks up queued work immediately

    for (;;) {
        FrameType type;
        std::string payload;
        std::string err;
        const int rc = readFrame(fd, &type, &payload,
                                 opts_.maxFrameBytes, stop, &err, -1.0);
        if (rc != 1)
            break; // hangup, cancellation or torn frame: dead worker
        if (type != FrameType::kCell)
            break; // workers only send results
        if (!handleResult(w->id, payload))
            break; // malformed result: kill the worker, not a client
        pump();    // the freed slot takes the next queued job
    }
    removeWorker(w->id);
}

AnalysisResponse
Dispatcher::execute(const AnalysisRequest &req, const CellCallback &onCell)
{
    if (liveWorkers() == 0) {
        // A fleet of zero is PR 6's server: the local batch path,
        // streaming and all.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.requestsLocalFallback;
        }
        return local_.execute(req, onCell);
    }

    validateRequest(req);
    const size_t nk = req.kernels.size();
    const size_t ns = req.specs.size();

    Batch batch;
    batch.resp = makeResponseShell(req);
    batch.resp.cells.resize(nk * ns);
    batch.onCell = &onCell;
    batch.streaming =
        req.exec.delivery == ExecutionPolicy::Delivery::kStream &&
        static_cast<bool>(onCell);
    batch.remaining = nk * ns;

    std::vector<std::unique_ptr<Job>> jobs;
    jobs.reserve(nk * ns);
    // Price every cell BEFORE taking mutex_ (ref materialization on a
    // cold feature cache can be milliseconds).
    for (size_t ki = 0; ki < nk; ++ki) {
        for (size_t si = 0; si < ns; ++si) {
            auto job = std::make_unique<Job>();
            job->cell = cellRequest(req, ki, si);
            job->index = ki * ns + si;
            job->batch = &batch;
            job->costKey = cellCostKey(job->cell);
            job->features = cellCostFeatures(job->cell);
            job->cost = costModel_.estimate(job->costKey,
                                            job->features);
            jobs.push_back(std::move(job));
        }
    }
    // The small/large wait-class split is relative to THIS batch: a
    // job costing more than its batch's mean counts as large.
    double mean_cost = 0.0;
    for (const auto &job : jobs)
        mean_cost += job->cost;
    mean_cost /= jobs.empty() ? 1.0 : jobs.size();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &job : jobs) {
            job->id = ++job_counter_;
            store::ByteWriter pw;
            pw.u64(job->id);
            writeRequest(pw, job->cell);
            job->payload = pw.bytes();
            job->large = job->cost > mean_cost;
            job->queuedAt = Clock::now();
            jobs_.emplace(job->id, job.get());
            queue_.push(job.get(), job->cost, job->cell.clientId);
        }
        if (queue_.size() > stats_.queueDepthPeak)
            stats_.queueDepthPeak = queue_.size();
    }
    pump();

    std::unique_lock<std::mutex> lock(mutex_);
    while (batch.remaining != 0 || batch.deliveriesInFlight != 0) {
        cv_.wait_for(lock, std::chrono::milliseconds(50));

        // Local takeover: a queued job nobody can run (no live
        // workers) or that keeps bouncing (the re-dispatch bound)
        // executes on this request's own thread — forward progress
        // never depends on fleet health. Live-but-BUSY workers are
        // NOT a reason to take over: a full fleet is backpressure,
        // not failure, and running the cell on this connection's
        // thread would serialize the client behind it.
        Job *take = nullptr;
        const bool no_workers = liveWorkersLocked() == 0;
        for (auto &kv : jobs_) {
            Job *job = kv.second;
            if (job->batch != &batch || job->done ||
                job->assignedWorker != 0)
                continue;
            if (no_workers || job->redispatches >= kMaxRedispatches) {
                take = job;
                queue_.erase(job);
                break;
            }
        }
        if (take) {
            ++stats_.cellsLocal;
            if (no_workers)
                ++stats_.cellsLocalNoWorkers;
            else
                ++stats_.cellsLocalExhausted;
            take->dispatchedAt = Clock::now();
            accountWaitLocked(*take);
            const uint64_t take_id = take->id;
            const AnalysisRequest cell_req = take->cell;
            lock.unlock();
            driver::BatchResult cell;
            try {
                AnalysisResponse one = local_.execute(cell_req);
                cell = one.cells.size() == 1
                           ? std::move(one.cells[0])
                           : failedCell(cell_req,
                                        "local fallback produced " +
                                            std::to_string(
                                                one.cells.size()) +
                                            " cells for one job");
            } catch (const std::exception &e) {
                cell = failedCell(cell_req, e.what());
            }
            lock.lock();
            observeJob(*take,
                       secondsSince(take->dispatchedAt, Clock::now()) *
                           1000.0);
            auto jit = jobs_.find(take_id);
            // A late remote result may have won while we executed;
            // first completion wins either way.
            if (jit != jobs_.end() && !jit->second->done)
                completeLocked(lock, jit->second, std::move(cell));
            continue;
        }

        // Re-dispatch jobs a live-but-silent worker has sat on past
        // the deadline (SIGSTOP'd, wedged, or just lost) — but only
        // when some worker (the slow holder itself included: its
        // pipeline slots still drain in order) has a free slot to
        // actually take the steal. Stealing into a COMPLETELY full
        // fleet just burns the re-dispatch budget until the
        // local-takeover bound fires on a merely-busy fleet.
        const Clock::time_point now = Clock::now();
        const auto spareSlot = [this] {
            for (const auto &kv : workers_) {
                if (kv.second->inFlight.size() <
                    opts_.maxInFlightPerWorker)
                    return true;
            }
            return false;
        };
        bool stole = false;
        for (auto &kv : jobs_) {
            Job *job = kv.second;
            if (job->batch != &batch || job->done ||
                job->assignedWorker == 0)
                continue;
            const double waited =
                secondsSince(job->dispatchedAt, now);
            // Past 3x the deadline with still nowhere else to go,
            // the holder is wedged, not busy — steal anyway so a
            // single stuck worker cannot hang the request forever.
            if (waited > opts_.jobTimeoutSeconds &&
                (spareSlot() ||
                 waited > 3.0 * opts_.jobTimeoutSeconds)) {
                requeueLocked(job);
                stole = true;
            }
        }
        if (stole) {
            lock.unlock();
            pump();
            lock.lock();
        }
    }
    lock.unlock();

    if (batch.callbackFailed)
        throw std::runtime_error(batch.callbackError);
    return std::move(batch.resp);
}

// --- The worker side --------------------------------------------------

WorkerLoopStats
workerServe(const Endpoint &server, AnalysisService &service,
            const std::atomic<bool> *stop, const WorkerLoopOptions &opts)
{
    WorkerLoopStats st;
    std::string err;
    int fd = -1;
    if (server.scheme == Endpoint::Scheme::kUnix)
        fd = connectUnix(server.path, &err);
    else if (server.scheme == Endpoint::Scheme::kTcp)
        fd = connectTcp(server.host, server.port, &err);
    else
        throw std::runtime_error(
            "worker registration needs a socket endpoint "
            "(unix:PATH or tcp:HOST:PORT), got '" +
            server.uri() + "'");
    if (fd < 0)
        throw std::runtime_error("cannot reach " + server.uri() +
                                 ": " + err);
    setSendTimeoutSeconds(fd, kFrameStallTimeoutSeconds);

    const std::string name =
        opts.name.empty() ? "worker-" + std::to_string(::getpid())
                          : opts.name;
    FrameType type;
    std::string payload;
    std::string ferr;
    if (!writeFrame(fd, FrameType::kRegister, name) ||
        readFrame(fd, &type, &payload, server.limits.maxFrameBytes,
                  stop, &ferr, server.timeouts.responseSeconds) != 1 ||
        type != FrameType::kRegister) {
        closeSocket(fd);
        throw std::runtime_error("worker registration with " +
                                 server.uri() + " failed" +
                                 (ferr.empty() ? "" : ": " + ferr));
    }

    for (;;) {
        if (opts.maxJobs != 0 && st.executed >= opts.maxJobs)
            break;
        const int rc = readFrame(fd, &type, &payload,
                                 server.limits.maxFrameBytes, stop,
                                 &ferr, -1.0);
        if (rc != 1)
            break; // server hangup / shutdown / cancellation
        if (type != FrameType::kJob)
            break; // kError or protocol confusion: stop cleanly
        store::ByteReader r(payload);
        const uint64_t job_id = r.u64();
        AnalysisRequest cell;
        if (!r.ok() || !readRequest(r, &cell) || !r.atEnd())
            break; // an unsynchronized server cannot be trusted
        if (opts.onJob)
            opts.onJob(cell);
        AnalysisResponse one;
        try {
            one = service.execute(cell);
        } catch (const std::exception &e) {
            // A bad job fails its cell, never the worker: a crash
            // would hand the same poison job to the next worker.
            one = cellFailureResponse(cell, e.what());
        }
        ++st.executed;
        if (one.cells.size() == 1 && !one.cells[0].ok)
            ++st.failedCells;
        store::ByteWriter w;
        w.u64(job_id);
        writeResponse(w, one);
        if (!writeFrame(fd, FrameType::kCell, w.bytes()))
            break;
    }
    closeSocket(fd);
    return st;
}

} // namespace api
} // namespace gpuperf
