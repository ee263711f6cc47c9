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
