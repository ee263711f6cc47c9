/**
 * @file
 * Set-up of each workload: a fresh store under the working directory,
 * cold calibration of the workload's specs into it, warm-up passes,
 * and for the socket workloads the server and its fleet workers. The
 * benchmark sets up several times and times each, so work that moves
 * into set-up shows in setup_s.
 */

#ifndef GPUPERF_BENCH_GPUPERF_ENV_H
#define GPUPERF_BENCH_GPUPERF_ENV_H

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "api/server.h"
#include "api/service.h"
#include "workloads.h"

namespace gpuperf {
namespace perfbench {

/** What set-up did in the model.calibrate layer. */
struct SetupInfo
{
    /** Wall seconds of each spec's calibration (they run in parallel). */
    std::vector<double> calibrateSeconds;
    /** Microbenchmark sweeps the executor actually ran. */
    uint64_t calibrationsRun = 0;
};

/** @p req with its store root set and, if @p threads >= 0, its threads. */
api::AnalysisRequest withStore(api::AnalysisRequest req,
                               const std::string &store, int threads = -1);

/** Copy the calibrations of store @p from into store @p to. */
void copyCalibrations(const std::string &from, const std::string &to);
/** Copy the whole store @p from to @p to. */
void copyStore(const std::string &from, const std::string &to);

/**
 * Calibrate every spec of @p req into @p svc (one thread per spec).
 * Returns each spec's wall seconds.
 */
std::vector<double> calibrate(api::AnalysisService &svc,
                              const api::AnalysisRequest &req);

/** A forked process, stopped (SIGTERM, then SIGKILL) and reaped on exit. */
class ChildProcess
{
  public:
    /** Run @p bin with @p args, its output appended to @p log. */
    ChildProcess(const std::string &bin,
                 const std::vector<std::string> &args,
                 const std::string &log);
    ~ChildProcess();
    ChildProcess(const ChildProcess &) = delete;
    ChildProcess &operator=(const ChildProcess &) = delete;

  private:
    pid_t pid_ = -1;
};

/** cold-analyze and warm-whatif: one in-process AnalysisService. */
struct InprocEnv
{
    InprocEnv(Workload workload, const Generator &gen,
              const std::string &dir);

    std::string store;
    api::AnalysisService svc;
    SetupInfo info;
};

/** serve-repeat: a Unix-socket server and the pool's answers. */
struct ServeEnv
{
    ServeEnv(Workload workload, const Generator &gen,
             const std::string &dir);
    ~ServeEnv();

    std::string store;
    std::string socket;
    std::unique_ptr<api::Server> server;
    std::vector<api::AnalysisRequest> pool;
    /** In-process answers of the pool, against the server's store. */
    std::vector<api::AnalysisResponse> refs;
    SetupInfo info;
};

/** fleet-mixed: a server plus registered gpuperf-worker processes. */
struct FleetEnv
{
    static constexpr size_t kWorkers = 2;

    FleetEnv(Workload workload, const Generator &gen,
             const std::string &dir);
    ~FleetEnv();

    std::string store;
    std::string socket;
    std::unique_ptr<api::Server> server;
    std::vector<std::unique_ptr<ChildProcess>> workers;
    SetupInfo info;
};

} // namespace perfbench
} // namespace gpuperf

#endif // GPUPERF_BENCH_GPUPERF_ENV_H
