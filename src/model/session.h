/**
 * @file
 * AnalysisSession — the model half of the paper's Figure 1 workflow:
 * info extraction -> model prediction from a functional-simulation
 * profile and its timing-simulator "measurement". The pipeline
 * (driver::BatchRunner, behind api::AnalysisService) feeds it shared
 * profiles and memoized timings; it is not an entry point of its own.
 */

#ifndef GPUPERF_MODEL_SESSION_H
#define GPUPERF_MODEL_SESSION_H

#include <memory>

#include "model/calibration.h"
#include "model/device.h"
#include "model/extractor.h"
#include "model/perf_model.h"
#include "model/report.h"

namespace gpuperf {
namespace model {

/** Everything the workflow produces for one kernel launch. */
struct Analysis
{
    Measurement measurement;    ///< dynamic stats + measured timing
    ModelInput input;           ///< extracted model inputs
    Prediction prediction;      ///< the model's prediction
    ReportMetrics metrics;      ///< bottleneck-cause diagnostics

    double measuredMs() const { return measurement.milliseconds(); }
    double predictedMs() const { return prediction.milliseconds(); }
    double errorFraction() const
    {
        return relativeError(prediction.totalSeconds,
                             measurement.seconds());
    }
};

/**
 * Owns the device, calibrator and model for one machine description.
 * Calibration runs lazily on the first analysis and is reused.
 */
class AnalysisSession
{
  public:
    /**
     * Configured construction: the replay engine and adopted tables
     * come in through one SessionConfig (model/device.h); the default
     * config keeps bare AnalysisSession(spec) working.
     */
    explicit AnalysisSession(const arch::GpuSpec &spec,
                             const SessionConfig &config = {});

    AnalysisSession(const AnalysisSession &) = delete;
    AnalysisSession &operator=(const AnalysisSession &) = delete;

    /**
     * Run the workflow from an existing profile and its timing replay
     * (e.g. from the BatchRunner's timing memo keyed by profile key x
     * arch::TimingFingerprint): extraction and prediction only. The
     * profile may come from any spec with this session's funcsim
     * fingerprint; @p timing must be what this session's device would
     * replay for @p profile. Bit-identical to the one-shot run of the
     * per-cell oracle (reference::analyzeOneShot in
     * tests/reference_pipeline.h, pinned by
     * KernelProfile.ReuseAcrossSpecVariantsIsBitIdentical).
     */
    Analysis analyze(
        const std::shared_ptr<const funcsim::KernelProfile> &profile,
        const std::shared_ptr<const timing::TimingResult> &timing);

    /** Predict from an existing measurement (no re-execution). */
    Analysis analyzeMeasured(Measurement measurement,
                             const arch::KernelResources &resources);

    /**
     * Share this session's calibration tables (calibrating first if
     * needed) so other sessions for the same spec can adopt them.
     */
    std::shared_ptr<const CalibrationTables> shareCalibration()
    {
        return calibrator_.sharedTables();
    }

    /** Adopt tables calibrated by another session for the same spec. */
    void adoptCalibration(std::shared_ptr<const CalibrationTables> t)
    {
        calibrator_.adoptTables(std::move(t));
    }

    SimulatedDevice &device() { return device_; }
    Calibrator &calibrator() { return calibrator_; }
    const PerformanceModel &model() const { return model_; }
    const arch::GpuSpec &spec() const { return device_.spec(); }

  private:
    SimulatedDevice device_;
    Calibrator calibrator_;
    InfoExtractor extractor_;
    PerformanceModel model_;
};

} // namespace model
} // namespace gpuperf

#endif // GPUPERF_MODEL_SESSION_H
