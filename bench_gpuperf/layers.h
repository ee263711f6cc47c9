/**
 * @file
 * The analysis pipeline taken apart into the public call of each
 * layer, for the traced run: materialize and prepare (driver), the
 * functional simulation (funcsim), the timing replay (timing), the
 * extract-and-predict step (model.analyze), the what-if sweep
 * (model.whatif) and the store loads and saves (store). Each call runs
 * inside a span, so the traced run reads every layer's self time from
 * outside the library.
 *
 * Cells run serially in kernel-major order and follow the decisions
 * BatchRunner's task graph makes (result-store probe, profile shared
 * per funcsim fingerprint, replay per timing fingerprint), with the
 * executor's calibration tables and synthetic-benchmark memo. The
 * response therefore equals AnalysisService::execute's bit for bit,
 * which the benchmark checks on every traced request.
 */

#ifndef GPUPERF_BENCH_GPUPERF_LAYERS_H
#define GPUPERF_BENCH_GPUPERF_LAYERS_H

#include <cstdint>

#include "api/service.h"
#include "spans.h"

namespace gpuperf {
namespace perfbench {

/** Span names of the layer calls, as the per-layer metrics read them. */
namespace span {
constexpr const char *kPrepare = "driver.prepare";
constexpr const char *kResultKey = "driver.result_key";
constexpr const char *kCalibrationRead = "store.calibration.read";
constexpr const char *kProfileRead = "store.profile.read";
constexpr const char *kProfileWrite = "store.profile.write";
constexpr const char *kFuncsim = "funcsim.profile";
constexpr const char *kTimingRead = "store.timing.read";
constexpr const char *kTimingWrite = "store.timing.write";
constexpr const char *kReplay = "timing.replay";
constexpr const char *kAnalyze = "model.analyze";
constexpr const char *kWhatif = "model.whatif";
constexpr const char *kResultRead = "store.result.read";
constexpr const char *kResultWrite = "store.result.write";
} // namespace span

/**
 * Execute @p req through the layer calls, using the stores and
 * calibration state of @p svc's executor for @p req. Store-read spans
 * record work 1 on a hit and 0 on a miss; funcsim spans the warp
 * instructions simulated; replay spans the warp operations replayed;
 * sweep spans the what-if points evaluated.
 */
api::AnalysisResponse runLayers(api::AnalysisService &svc,
                                const api::AnalysisRequest &req,
                                SpanRecorder &rec, uint64_t request);

} // namespace perfbench
} // namespace gpuperf

#endif // GPUPERF_BENCH_GPUPERF_LAYERS_H
