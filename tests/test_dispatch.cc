/**
 * @file
 * The fleet dispatcher: gpuperf-serve fans admitted cells out to
 * registered workers with responses bit-identical to in-process
 * execution, workers may join mid-request, a worker dying while
 * holding cells loses nothing (steal + re-dispatch, exactly-once
 * delivery), zero workers means graceful local execution, a
 * malformed worker is killed without ever dropping a client, a
 * poison or failing job fails only its own cell, and every scheduling
 * policy returns what FIFO returns.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "api/client.h"
#include "api/codecs.h"
#include "api/dispatch.h"
#include "api/endpoint.h"
#include "api/server.h"
#include "api/service.h"
#include "api/transport.h"
#include "common/socket.h"
#include "store/serializer.h"

namespace gpuperf {
namespace api {
namespace {

std::string
freshSocketPath(const std::string &tag)
{
    static int counter = 0;
    // Keep it short: sun_path caps out around 100 bytes.
    return "/tmp/gpuperf-fleet-" + tag + "-" +
           std::to_string(::getpid()) + "-" +
           std::to_string(counter++) + ".sock";
}

model::CalibrationTables
fakeTables()
{
    model::CalibrationTables t;
    t.maxWarps = 32;
    t.bytesPerPass = 64;
    for (int type = 0; type < arch::kNumInstrTypes; ++type) {
        t.instrThroughput[type].assign(33, 0.0);
        for (int w = 1; w <= 32; ++w)
            t.instrThroughput[type][w] = 1e10 * std::min(1.0, w / 8.0);
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 8.0);
    return t;
}

std::shared_ptr<const model::CalibrationTables>
sharedFakeTables()
{
    static const auto tables =
        std::make_shared<const model::CalibrationTables>(fakeTables());
    return tables;
}

/** 3 kernels x 2 specs, no store — fake calibration keeps it fast. */
AnalysisRequest
testRequest()
{
    AnalysisRequest req;
    req.jobName = "dispatch-test";
    req.kernels.push_back(KernelJob::fromRef(
        "saxpy-small", CaseRef{"saxpy", {8, 128}, {2.0}}));
    req.kernels.push_back(KernelJob::fromRef(
        "conflicted", CaseRef{"shared-conflict", {8, 128, 8, 32}, {}}));
    req.kernels.push_back(KernelJob::fromRef(
        "hist", CaseRef{"histogram", {6, 128, 8, 4}, {}}));
    req.specs.push_back(arch::GpuSpec::gtx285());
    req.specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0, 32.0};
    req.sweep.coalescingFractions = {1.0};
    req.exec.numThreads = 2;
    return req;
}

/**
 * Adopt fake tables for BOTH request shapes a fleet touches: the
 * batch shape (zero-worker fallback runs the request as-is) and the
 * single-threaded cell shape the dispatcher derives via cellRequest
 * (executors are keyed per execution and store options, numThreads
 * included).
 */
void
adoptBothShapes(AnalysisService &service, const AnalysisRequest &req)
{
    AnalysisRequest cell_shaped = req;
    cell_shaped.exec.numThreads = 1;
    for (const arch::GpuSpec &spec : req.specs) {
        service.adoptCalibration(req, spec, sharedFakeTables());
        service.adoptCalibration(cell_shaped, spec,
                                 sharedFakeTables());
    }
}

void
expectEqual(const AnalysisResponse &got, const AnalysisResponse &want)
{
    std::string why;
    EXPECT_TRUE(responsesEqual(got, want, &why)) << why;
}

/**
 * A started fleet server (endpoint query options welcome), its
 * in-process reference, and in-thread registered workers.
 */
struct FleetRig
{
    std::string unixPath;
    std::unique_ptr<Server> server;
    AnalysisService reference;
    AnalysisRequest req = testRequest();

    std::vector<std::thread> worker_threads;
    std::vector<std::unique_ptr<AnalysisService>> worker_services;
    // Deque: addWorker hands each thread a reference into this —
    // growth must not invalidate it.
    std::deque<WorkerLoopStats> worker_stats;

    explicit FleetRig(const std::string &tag,
                      const std::string &query = "")
    {
        unixPath = freshSocketPath(tag);
        server = std::make_unique<Server>(Endpoint::parse(
            "unix:" + unixPath + query, Endpoint::Role::kServer));
        server->start();
        adoptBothShapes(server->service(), req);
        adoptBothShapes(reference, req);
    }

    ~FleetRig()
    {
        server->stop(); // hangs up on workers; their loops return
        for (std::thread &t : worker_threads)
            t.join();
    }

    /** Register one in-thread worker and wait until it is live. */
    void addWorker(const WorkerLoopOptions &opts = {})
    {
        worker_services.push_back(
            std::make_unique<AnalysisService>());
        adoptBothShapes(*worker_services.back(), req);
        AnalysisService &service = *worker_services.back();
        worker_stats.emplace_back();
        WorkerLoopStats &stats = worker_stats.back();
        const size_t live_target = server->dispatcher().liveWorkers() + 1;
        worker_threads.emplace_back([this, &service, &stats, opts] {
            const Endpoint ep = Endpoint::parse(
                "unix:" + unixPath, Endpoint::Role::kWorker);
            stats = workerServe(ep, service, nullptr, opts);
        });
        waitForLiveWorkers(live_target);
    }

    void waitForLiveWorkers(size_t n)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (server->dispatcher().liveWorkers() < n &&
               std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ASSERT_GE(server->dispatcher().liveWorkers(), n);
    }

    AnalysisResponse expected() { return reference.run(req); }
};

/**
 * A hand-rolled worker speaking just enough of the registration
 * protocol to misbehave on purpose. Returns the registered fd (< 0 on
 * failure — assert in the test).
 */
int
registerRawWorker(const std::string &path, const std::string &name)
{
    std::string err;
    const int fd = connectUnix(path, &err);
    if (fd < 0)
        return -1;
    if (!writeFrame(fd, FrameType::kRegister, name)) {
        closeSocket(fd);
        return -1;
    }
    FrameType type;
    std::string body;
    if (readFrame(fd, &type, &body, kMaxFrameBytesDefault, nullptr,
                  &err, /*idle_timeout_seconds=*/10.0) != 1 ||
        type != FrameType::kRegister) {
        closeSocket(fd);
        return -1;
    }
    return fd;
}

/** Block until a kJob frame arrives on @p fd (payload discarded). */
bool
awaitJob(int fd)
{
    FrameType type;
    std::string body;
    std::string err;
    return readFrame(fd, &type, &body, kMaxFrameBytesDefault, nullptr,
                     &err, /*idle_timeout_seconds=*/30.0) == 1 &&
           type == FrameType::kJob;
}

// --- Zero workers: graceful local fallback ----------------------------

TEST(DispatchTest, ZeroWorkersFallsBackToLocalExecution)
{
    FleetRig rig("zero");
    const AnalysisResponse want = rig.expected();

    ServeClient client = ServeClient::overUnix(rig.unixPath);
    expectEqual(client.run(rig.req), want);

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_EQ(stats.workersRegistered, 0u);
    EXPECT_EQ(stats.cellsDispatched, 0u);
    EXPECT_GE(stats.requestsLocalFallback, 1u);
}

// --- Remote execution is bit-identical --------------------------------

TEST(DispatchTest, WorkersServeBitIdenticalResponses)
{
    FleetRig rig("ident");
    rig.addWorker();
    rig.addWorker();
    const AnalysisResponse want = rig.expected();

    ServeClient client = ServeClient::overUnix(rig.unixPath);
    expectEqual(client.run(rig.req), want);
    // Streamed delivery dispatches identically.
    AnalysisRequest streaming = rig.req;
    streaming.exec.delivery = ExecutionPolicy::Delivery::kStream;
    std::atomic<size_t> streamed{0};
    expectEqual(client.run(streaming,
                           [&](size_t, const driver::BatchResult &) {
                               ++streamed;
                           }),
                want);
    EXPECT_EQ(streamed.load(), want.cells.size());

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_EQ(stats.workersRegistered, 2u);
    EXPECT_EQ(stats.cellsCompletedRemote, 2u * want.cells.size());
    EXPECT_EQ(stats.requestsLocalFallback, 0u);
    EXPECT_EQ(stats.cellsLocal, 0u);
}

// --- Policies order the fleet queue, never results --------------------

TEST(DispatchTest, EveryPolicyMatchesFifoBitExactly)
{
    for (const char *policy : {"biggest-first", "sjf", "fair-share"}) {
        SCOPED_TRACE(policy);
        FleetRig rig("sched", std::string("?sched=") + policy);
        rig.addWorker();
        rig.addWorker();
        // The in-process reference runs in plain dependency order.
        const AnalysisResponse want = rig.expected();

        // Two concurrent tenants, so fair-share has clients to
        // interleave and every policy sees a mixed queue.
        AnalysisResponse got[2];
        std::string failure[2];
        std::vector<std::thread> clients;
        for (int c = 0; c < 2; ++c) {
            clients.emplace_back([&, c] {
                try {
                    AnalysisRequest req = rig.req;
                    req.clientId = "client-" + std::to_string(c);
                    ServeClient client = ServeClient::overUnix(rig.unixPath);
                    got[c] = client.run(req);
                } catch (const std::exception &e) {
                    failure[c] = e.what();
                }
            });
        }
        for (std::thread &t : clients)
            t.join();
        for (int c = 0; c < 2; ++c) {
            ASSERT_TRUE(failure[c].empty()) << failure[c];
            expectEqual(got[c], want);
        }

        // The cells went through the policy-ordered queue, not the
        // local fallback.
        const DispatchStats stats = rig.server->dispatcher().stats();
        EXPECT_STREQ(stats.schedPolicy, policy);
        EXPECT_GT(stats.cellsDispatched, 0u);
        EXPECT_EQ(stats.cellsCompletedRemote, 2u * want.cells.size());
        EXPECT_EQ(stats.requestsLocalFallback, 0u);
    }
}

// --- A worker joining mid-request picks up cells ----------------------

TEST(DispatchTest, WorkerJoiningMidRequestPicksUpCells)
{
    // One deliberately slow worker holding one cell at a time keeps
    // the queue non-empty long enough for a second worker to join the
    // fleet mid-request and demonstrably take cells.
    FleetRig rig("join", "?worker-inflight=1");
    std::atomic<bool> first_job{false};
    WorkerLoopOptions slow;
    slow.name = "slow";
    slow.onJob = [&](const AnalysisRequest &) {
        first_job.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
    };
    rig.addWorker(slow);
    const AnalysisResponse want = rig.expected();

    std::string failure;
    AnalysisResponse got;
    std::thread client_thread([&] {
        try {
            ServeClient client = ServeClient::overUnix(rig.unixPath);
            got = client.run(rig.req);
        } catch (const std::exception &e) {
            failure = e.what();
        }
    });

    // Join the fleet only once the request is demonstrably in flight.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    while (!first_job.load() &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(first_job.load());
    WorkerLoopOptions fast;
    fast.name = "fast";
    rig.addWorker(fast);
    client_thread.join();

    ASSERT_TRUE(failure.empty()) << failure;
    expectEqual(got, want);

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_EQ(stats.workersRegistered, 2u);
    EXPECT_EQ(stats.cellsCompletedRemote, want.cells.size());
    bool fast_worked = false;
    for (const WorkerStat &w : stats.workers)
        if (w.name == "fast" && w.cellsDone > 0)
            fast_worked = true;
    EXPECT_TRUE(fast_worked)
        << "the late-joining worker never received a cell";
}

// --- Worker death: steal + re-dispatch, exactly once ------------------

TEST(DispatchTest, WorkerDyingWithCellsInFlightLosesNothing)
{
    // worker-inflight=2 so the doomed raw worker demonstrably holds
    // cells while the honest worker also has some.
    FleetRig rig("death", "?worker-inflight=2");
    const int doomed = registerRawWorker(rig.unixPath, "doomed");
    ASSERT_GE(doomed, 0);
    rig.waitForLiveWorkers(1);
    rig.addWorker();
    const AnalysisResponse want = rig.expected();

    std::string failure;
    AnalysisResponse got;
    std::thread client_thread([&] {
        try {
            ServeClient client = ServeClient::overUnix(rig.unixPath);
            got = client.run(rig.req);
        } catch (const std::exception &e) {
            failure = e.what();
        }
    });

    // Take a cell hostage, then die holding it: the dispatcher must
    // steal the worker's in-flight jobs back and re-dispatch them.
    ASSERT_TRUE(awaitJob(doomed));
    closeSocket(doomed);
    client_thread.join();

    ASSERT_TRUE(failure.empty()) << failure;
    expectEqual(got, want); // every cell delivered exactly once

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_GE(stats.workerDeaths, 1u);
    EXPECT_GE(stats.cellsRedispatched, 1u);
    EXPECT_EQ(stats.duplicateResults, 0u);
}

TEST(DispatchTest, LateResultAfterJobTimeoutIsDroppedNotDoubled)
{
    // A 1-cell request against one worker slower than the job
    // timeout: the job is re-dispatched (to the same worker — it is
    // the only one), both executions answer, and the dispatcher must
    // deliver the FIRST and drop the duplicate.
    FleetRig rig("dup", "?job-timeout=0.25");
    rig.req.kernels = {rig.req.kernels[0]};
    rig.req.specs = {rig.req.specs[0]};
    WorkerLoopOptions slow;
    slow.onJob = [](const AnalysisRequest &) {
        std::this_thread::sleep_for(std::chrono::milliseconds(500));
    };
    rig.addWorker(slow);
    const AnalysisResponse want = rig.expected();
    ASSERT_EQ(want.cells.size(), 1u);

    ServeClient client = ServeClient::overUnix(rig.unixPath);
    expectEqual(client.run(rig.req), want);

    // The duplicate lands on its own schedule; poll for it.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
    DispatchStats stats = rig.server->dispatcher().stats();
    while (stats.duplicateResults < 1u &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        stats = rig.server->dispatcher().stats();
    }
    EXPECT_GE(stats.cellsRedispatched, 1u);
    EXPECT_GE(stats.duplicateResults, 1u);
}

// --- Malformed workers die alone --------------------------------------

TEST(DispatchTest, MalformedWorkerResultKillsTheWorkerNotTheClient)
{
    FleetRig rig("malformed");
    const int liar = registerRawWorker(rig.unixPath, "liar");
    ASSERT_GE(liar, 0);
    rig.waitForLiveWorkers(1);
    const AnalysisResponse want = rig.expected();

    std::string failure;
    AnalysisResponse got;
    std::thread client_thread([&] {
        try {
            ServeClient client = ServeClient::overUnix(rig.unixPath);
            got = client.run(rig.req);
        } catch (const std::exception &e) {
            failure = e.what();
        }
    });

    // Answer the first job with garbage: the dispatcher must kill
    // THIS connection, steal the jobs back, and (with no fleet left)
    // finish the request locally — the client never notices.
    ASSERT_TRUE(awaitJob(liar));
    ASSERT_TRUE(writeFrame(liar, FrameType::kCell,
                           "this is not a cell result"));
    client_thread.join();
    closeSocket(liar);

    ASSERT_TRUE(failure.empty()) << failure;
    expectEqual(got, want);

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_GE(stats.malformedResults, 1u);
    EXPECT_GE(stats.workerDeaths, 1u);
    EXPECT_EQ(rig.server->dispatcher().liveWorkers(), 0u);
    EXPECT_EQ(rig.server->stats().disconnects, 0u);
}

// --- Failed cells stay cells -----------------------------------------

/** Send one kJob to a registered worker and read back its kCell. */
AnalysisResponse
jobRoundTrip(int fd, uint64_t id, const AnalysisRequest &cell)
{
    store::ByteWriter w;
    w.u64(id);
    writeRequest(w, cell);
    AnalysisResponse one;
    if (!writeFrame(fd, FrameType::kJob, w.bytes())) {
        ADD_FAILURE() << "cannot send job " << id;
        return one;
    }
    FrameType type;
    std::string body;
    std::string err;
    if (readFrame(fd, &type, &body, kMaxFrameBytesDefault, nullptr,
                  &err, /*idle_timeout_seconds=*/60.0) != 1 ||
        type != FrameType::kCell) {
        ADD_FAILURE() << "no kCell answer to job " << id << ": " << err;
        return one;
    }
    store::ByteReader r(body);
    EXPECT_EQ(r.u64(), id);
    EXPECT_TRUE(readResponse(r, &one) && r.atEnd());
    return one;
}

TEST(DispatchTest, PoisonJobFailsItsCellAndTheWorkerKeepsServing)
{
    // A raw-socket fake server: a poison job (a spec that decodes fine
    // but cannot be simulated) must come back as a failed cell — a
    // crash would hand it to the next worker to crash on — and the
    // same worker must then answer a valid job correctly.
    const std::string path = freshSocketPath("poison");
    std::string err;
    const int listen_fd = listenUnix(path, &err);
    ASSERT_GE(listen_fd, 0) << err;

    const AnalysisRequest req = testRequest();
    const AnalysisRequest good = cellRequest(req, 0, 0);
    AnalysisRequest poison = good;
    poison.specs[0].numSharedBanks = 0;
    AnalysisService worker_service;
    adoptBothShapes(worker_service, req);
    AnalysisService reference;
    adoptBothShapes(reference, req);

    WorkerLoopStats stats;
    std::string worker_error;
    std::thread worker([&] {
        try {
            stats = workerServe(
                Endpoint::parse("unix:" + path, Endpoint::Role::kWorker),
                worker_service);
        } catch (const std::exception &e) {
            worker_error = e.what();
        }
    });

    {
        // Every exit from this block (a failed ASSERT included) hangs
        // up on the worker, whose loop then returns, and joins it.
        int fd = -1;
        struct HangUp
        {
            int &fd;
            int listen_fd;
            std::thread &worker;
            ~HangUp()
            {
                closeSocket(fd);
                closeSocket(listen_fd);
                worker.join();
            }
        } hang_up{fd, listen_fd, worker};

        ASSERT_TRUE(waitReadable(listen_fd, 30.0));
        fd = acceptClient(listen_fd);
        ASSERT_GE(fd, 0);
        FrameType type;
        std::string hello;
        ASSERT_EQ(readFrame(fd, &type, &hello, kMaxFrameBytesDefault,
                            nullptr, &err, 30.0),
                  1)
            << err;
        ASSERT_EQ(type, FrameType::kRegister);
        ASSERT_TRUE(writeFrame(fd, FrameType::kRegister, "1"));

        const AnalysisResponse failed = jobRoundTrip(fd, 1, poison);
        ASSERT_EQ(failed.cells.size(), 1u);
        EXPECT_FALSE(failed.cells[0].ok);
        EXPECT_NE(failed.cells[0].error.find("shared-memory"),
                  std::string::npos)
            << failed.cells[0].error;

        expectEqual(jobRoundTrip(fd, 2, good), reference.execute(good));
    }
    ::unlink(path.c_str());
    EXPECT_TRUE(worker_error.empty()) << worker_error;
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.failedCells, 1u);
}

TEST(DispatchTest, FailedCellTravelsThroughTheFleet)
{
    FleetRig rig("failed");
    rig.req.kernels = {KernelJob::fromRef(
        "broken", CaseRef{"no-such-factory", {}, {}})};
    rig.req.specs = {rig.req.specs[0]};
    rig.addWorker();

    ServeClient client = ServeClient::overUnix(rig.unixPath);
    const AnalysisResponse resp = client.run(rig.req);
    ASSERT_EQ(resp.cells.size(), 1u);
    EXPECT_FALSE(resp.cells[0].ok);
    EXPECT_NE(resp.cells[0].error.find("no-such-factory"),
              std::string::npos)
        << resp.cells[0].error;

    const DispatchStats stats = rig.server->dispatcher().stats();
    EXPECT_EQ(stats.cellsCompletedRemote, 1u)
        << "the failed cell must come from the worker, not a fallback";
    EXPECT_EQ(stats.cellsLocal, 0u);
}

// --- Registration handshake hygiene -----------------------------------

TEST(DispatchTest, WorkerServeRefusesNonSocketEndpoints)
{
    AnalysisService service;
    EXPECT_THROW(workerServe(Endpoint::parse("inproc:"), service),
                 std::runtime_error);
    // Only unix: and tcp: reach a server; any other scheme is refused
    // before a worker could be pointed at it.
    EXPECT_THROW(Endpoint::parse("dir:/tmp/nope", Endpoint::Role::kWorker),
                 std::runtime_error);
}

} // namespace
} // namespace api
} // namespace gpuperf
