#include "env.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "api/client.h"
#include "api/codecs.h"
#include "report.h"

namespace gpuperf {
namespace perfbench {

namespace fs = std::filesystem;

namespace {

/** Set-up runs only kernels that must succeed; anything else is fatal. */
void
requireOk(const api::AnalysisResponse &resp, const std::string &what)
{
    for (const driver::BatchResult &cell : resp.cells) {
        if (!cell.ok) {
            throw std::runtime_error(what + ": cell " + cell.kernelName +
                                     " failed: " + cell.error);
        }
    }
}

std::string
workerBinary()
{
    const char *env = std::getenv("GPUPERF_WORKER_BIN");
    return env ? env : "./gpuperf-worker";
}

} // namespace

api::AnalysisRequest
withStore(api::AnalysisRequest req, const std::string &store, int threads)
{
    req.store.storeDir = store;
    if (threads >= 0)
        req.exec.numThreads = threads;
    return req;
}

void
copyCalibrations(const std::string &from, const std::string &to)
{
    fs::create_directories(to);
    fs::copy(from + "/calibrations", to + "/calibrations",
             fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing);
}

void
copyStore(const std::string &from, const std::string &to)
{
    fs::create_directories(to);
    fs::copy(from, to,
             fs::copy_options::recursive |
                 fs::copy_options::overwrite_existing);
}

std::vector<double>
calibrate(api::AnalysisService &svc, const api::AnalysisRequest &req)
{
    std::vector<double> seconds(req.specs.size());
    if (req.specs.size() == 1) {
        // No helper thread for one spec: a thread's malloc arena would
        // make the process's peak RSS depend on which arena it got.
        const auto t0 = Clock::now();
        svc.calibrationFor(req, req.specs[0]);
        seconds[0] = secondsSince(t0);
        return seconds;
    }
    std::vector<std::exception_ptr> errors(req.specs.size());
    std::vector<std::thread> threads;
    for (size_t si = 0; si < req.specs.size(); ++si) {
        threads.emplace_back([&, si] {
            try {
                const auto t0 = Clock::now();
                svc.calibrationFor(req, req.specs[si]);
                seconds[si] = secondsSince(t0);
            } catch (...) {
                errors[si] = std::current_exception();
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return seconds;
}

ChildProcess::ChildProcess(const std::string &bin,
                           const std::vector<std::string> &args,
                           const std::string &log)
{
    // Everything the child touches is prepared before fork(): the
    // parent runs server threads, so the child may only exec.
    std::vector<char *> argv;
    argv.push_back(const_cast<char *>(bin.c_str()));
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    const int log_fd =
        ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    pid_ = ::fork();
    if (pid_ == 0) {
        if (log_fd >= 0) {
            ::dup2(log_fd, 1);
            ::dup2(log_fd, 2);
        }
        ::execv(bin.c_str(), argv.data());
        static const char kFailed[] = "exec of the worker binary failed\n";
        ssize_t ignored = ::write(2, kFailed, sizeof(kFailed) - 1);
        (void)ignored;
        _exit(127);
    }
    if (log_fd >= 0)
        ::close(log_fd);
    if (pid_ < 0)
        throw std::runtime_error("fork failed for " + bin);
}

ChildProcess::~ChildProcess()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

InprocEnv::InprocEnv(Workload workload, const Generator &gen,
                     const std::string &dir)
    : store(dir + "/store")
{
    if (workload == Workload::kColdAnalyze) {
        const api::AnalysisRequest probe = withStore(gen.cold(0, true), store);
        info.calibrateSeconds = calibrate(svc, probe);
        info.calibrationsRun = svc.executorFor(probe).calibrationsComputed();
        for (uint64_t w = 0; w < 7; ++w) {
            requireOk(svc.execute(withStore(gen.cold(w, true), store)),
                      "cold-analyze warm-up");
        }
        return;
    }
    const api::AnalysisRequest populate =
        withStore(gen.warmPopulate(), store);
    info.calibrateSeconds = calibrate(svc, populate);
    info.calibrationsRun = svc.executorFor(populate).calibrationsComputed();
    requireOk(svc.execute(populate), "warm-whatif populate");
    svc.reset();
    requireOk(svc.execute(withStore(gen.warm(0, true), store)),
              "warm-whatif warm-up");
}

ServeEnv::ServeEnv(Workload, const Generator &gen, const std::string &dir)
    : store(dir + "/store"), socket(dir + ".sock"), pool(gen.servePool())
{
    // Relative socket paths stay far below the 108-byte sun_path limit
    // wherever the working directory is.
    server = std::make_unique<api::Server>(api::Endpoint::parse(
        "unix:" + socket + "?store=" + store, api::Endpoint::Role::kServer));
    server->start();
    const api::AnalysisRequest probe = withStore(pool[0], store);
    info.calibrateSeconds = calibrate(server->service(), probe);
    info.calibrationsRun =
        server->service().executorFor(probe).calibrationsComputed();

    // Answer the pool once through the socket: every later request is
    // a whole-cell result-store hit.
    api::ServeClient client = api::ServeClient::overUnix(socket);
    for (const api::AnalysisRequest &req : pool) {
        const api::AnalysisResponse answer = client.run(req);
        requireOk(answer, "serve-repeat pool");
        refs.push_back(server->service().execute(withStore(req, store)));
        if (!api::responsesEqual(answer, refs.back()))
            throw std::runtime_error("serve-repeat: socket answer of " +
                                     req.jobName +
                                     " differs from in-process");
    }
}

ServeEnv::~ServeEnv()
{
    server->stop();
    ::unlink(socket.c_str());
}

FleetEnv::FleetEnv(Workload, const Generator &gen, const std::string &dir)
    : store(dir + "/store"), socket(dir + ".sock")
{
    server = std::make_unique<api::Server>(api::Endpoint::parse(
        "unix:" + socket + "?store=" + store + "&worker-inflight=1",
        api::Endpoint::Role::kServer));
    server->start();
    const api::AnalysisRequest probe =
        withStore(gen.fleetInteractive(0, true), store);
    info.calibrateSeconds = calibrate(server->service(), probe);
    info.calibrationsRun =
        server->service().executorFor(probe).calibrationsComputed();

    for (size_t w = 0; w < kWorkers; ++w) {
        workers.push_back(std::make_unique<ChildProcess>(
            workerBinary(),
            std::vector<std::string>{"serve", "--via", "unix:" + socket},
            dir + "-worker" + std::to_string(w) + ".log"));
    }
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (server->dispatcher().liveWorkers() < kWorkers) {
        if (Clock::now() > deadline) {
            throw std::runtime_error(
                "fleet workers did not register (GPUPERF_WORKER_BIN = " +
                workerBinary() + ")");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    api::ServeClient client = api::ServeClient::overUnix(socket);
    requireOk(client.run(gen.fleetBulk(0, true)), "fleet-mixed warm-up");
    for (uint64_t w = 0; w < 7; ++w) {
        requireOk(client.run(gen.fleetInteractive(w, true)),
                  "fleet-mixed warm-up");
    }
}

FleetEnv::~FleetEnv()
{
    // Stop the server first: the workers see it hang up and exit on
    // their own; ChildProcess then only reaps them.
    server->stop();
    workers.clear();
    ::unlink(socket.c_str());
}

} // namespace perfbench
} // namespace gpuperf
