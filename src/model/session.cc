#include "model/session.h"

#include "common/logging.h"

namespace gpuperf {
namespace model {

AnalysisSession::AnalysisSession(const arch::GpuSpec &spec,
                                 const SessionConfig &config)
    : device_(spec, config), calibrator_(device_), extractor_(spec),
      model_(calibrator_)
{
    if (config.tables)
        calibrator_.adoptTables(config.tables);
}

Analysis
AnalysisSession::analyze(const isa::Kernel &kernel,
                         const funcsim::LaunchConfig &cfg,
                         funcsim::GlobalMemory &gmem,
                         funcsim::RunOptions options)
{
    // One-shot path: same simulations in the same order as
    // funcsim::profileKernel() + a timing replay + analyze(profile,
    // timing) — bit-identical results, pinned by tests/test_profile.cc
    // — without the profile-identity work (input-image hash, stats
    // copy) only sharing would need.
    Measurement m = device_.run(kernel, cfg, gmem, options);
    arch::KernelResources res;
    res.registersPerThread = kernel.numRegisters();
    res.sharedBytesPerBlock = kernel.sharedBytes();
    res.threadsPerBlock = cfg.blockDim;
    return analyzeMeasured(std::move(m), res);
}

Analysis
AnalysisSession::analyze(
    const std::shared_ptr<const funcsim::KernelProfile> &profile,
    const std::shared_ptr<const timing::TimingResult> &timing)
{
    GPUPERF_ASSERT(profile != nullptr, "cannot analyze a null profile");
    GPUPERF_ASSERT(timing != nullptr, "cannot analyze a null timing");
    Measurement m = device_.measure(*profile, *timing);
    return analyzeMeasured(std::move(m), profile->resources);
}

Analysis
AnalysisSession::analyzeMeasured(Measurement measurement,
                                 const arch::KernelResources &resources)
{
    Analysis a;
    a.input = extractor_.extract(measurement.stats, resources);
    a.prediction = model_.predict(a.input);
    a.metrics = computeMetrics(measurement.stats);
    a.measurement = std::move(measurement);
    return a;
}

} // namespace model
} // namespace gpuperf
