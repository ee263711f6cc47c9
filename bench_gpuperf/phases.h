/**
 * @file
 * The two ways to run a workload. The measured run sets up several
 * times, then drives the workload for the requested seconds with
 * nothing traced and reports the end-to-end metrics. The traced run
 * sets up once, then sends the same seeded requests through spans
 * around every layer call and reports the per-layer metrics.
 */

#ifndef GPUPERF_BENCH_GPUPERF_PHASES_H
#define GPUPERF_BENCH_GPUPERF_PHASES_H

#include "env.h"
#include "report.h"
#include "workloads.h"

namespace gpuperf {
namespace perfbench {

struct RunOptions
{
    Workload workload = Workload::kColdAnalyze;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Set up, run and check one workload, filling @p rep. */
void runWorkload(const RunOptions &opt, Clock::time_point process_start,
                 Report &rep);

// The traced run of each workload shape (traced.cc).
void traceInproc(const RunOptions &opt, const Generator &gen,
                 InprocEnv &env, Report &rep);
void traceServe(const RunOptions &opt, const Generator &gen, ServeEnv &env,
                Report &rep);
void traceFleet(const RunOptions &opt, const Generator &gen, FleetEnv &env,
                Report &rep);

} // namespace perfbench
} // namespace gpuperf

#endif // GPUPERF_BENCH_GPUPERF_PHASES_H
