/**
 * @file
 * The per-cell reference pipeline: the one oracle the shared pipeline
 * (driver::BatchRunner, api::AnalysisService) is pinned bit-identical
 * against. It shares no simulation work: every cell runs its case's
 * factory for a fresh launch, functionally simulates it and replays it
 * for timing inside its own model::AnalysisSession (analyzeOneShot),
 * then sweeps. A test or bench that compares against it shows that
 * profile sharing, the timing memo, the stores and the task graph
 * change no number.
 *
 * Header-only, outside the library: nothing in src/ may depend on it.
 */

#ifndef GPUPERF_TESTS_REFERENCE_PIPELINE_H
#define GPUPERF_TESTS_REFERENCE_PIPELINE_H

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/batch_runner.h"
#include "driver/sweep.h"
#include "model/session.h"

namespace gpuperf {
namespace reference {

/**
 * The one-shot workflow on one launch: functionally simulate and
 * replay @p kernel on @p session's device, then extract and predict.
 * The shared pipeline splits the same steps into a profile, a
 * memoized timing and AnalysisSession::analyze(profile, timing); this
 * is what it must match bit for bit.
 */
inline model::Analysis
analyzeOneShot(model::AnalysisSession &session, const isa::Kernel &kernel,
               const funcsim::LaunchConfig &cfg,
               funcsim::GlobalMemory &gmem,
               funcsim::RunOptions options = {})
{
    model::Measurement m = session.device().run(kernel, cfg, gmem,
                                                options);
    arch::KernelResources res;
    res.registersPerThread = kernel.numRegisters();
    res.sharedBytesPerBlock = kernel.sharedBytes();
    res.threadsPerBlock = cfg.blockDim;
    return session.analyzeMeasured(std::move(m), res);
}

/**
 * Evaluate every case on every spec, one cell at a time on the
 * calling thread, in kernel-major order (kernels[0] x specs[0..M-1],
 * then kernels[1] x ...). Every session adopts @p tables, so no
 * microbenchmark sweep runs. Cells on one distinct spec share one
 * GlobalBenchMemo, as the batch runner's do: a fresh memo per cell
 * would re-run the global-memory microbenchmarks in every cell. An
 * exception becomes a failed cell carrying its message.
 */
inline std::vector<driver::BatchResult>
runPerCell(const std::vector<driver::KernelCase> &kernels,
           const std::vector<arch::GpuSpec> &specs,
           const driver::SweepSpec &sweep,
           const std::shared_ptr<const model::CalibrationTables> &tables)
{
    std::map<std::string, std::shared_ptr<model::GlobalBenchMemo>> memos;
    std::vector<driver::BatchResult> results;
    results.reserve(kernels.size() * specs.size());
    for (const driver::KernelCase &kc : kernels) {
        for (const arch::GpuSpec &spec : specs) {
            auto &memo = memos[spec.fingerprint()];
            if (!memo)
                memo = std::make_shared<model::GlobalBenchMemo>();
            driver::BatchResult &r = results.emplace_back();
            r.kernelName = kc.name;
            r.specName = spec.name;
            try {
                if (!kc.make)
                    throw std::runtime_error("kernel case has no factory");
                driver::PreparedLaunch launch = kc.make();
                if (!launch.gmem)
                    throw std::runtime_error(
                        "kernel case produced no memory");
                model::SessionConfig config;
                config.tables = tables;
                model::AnalysisSession session(spec, config);
                session.calibrator().shareGlobalMemo(memo);
                r.analysis = analyzeOneShot(session, launch.kernel,
                                            launch.cfg, *launch.gmem,
                                            launch.options);
                if (!sweep.empty()) {
                    r.whatifs = driver::runSweep(session.model(),
                                                 r.analysis.input, sweep,
                                                 r.analysis.prediction);
                }
                r.ok = true;
            } catch (const std::exception &e) {
                r.ok = false;
                r.error = e.what();
            }
        }
    }
    return results;
}

} // namespace reference
} // namespace gpuperf

#endif // GPUPERF_TESTS_REFERENCE_PIPELINE_H
