/**
 * @file
 * Per-cell cost prediction for the schedulers.
 *
 * The paper's own inputs are cheap static predictors of runtime cost:
 * a replay's wall time scales with the warp-op count of the trace and
 * the resident-warp pressure of the launch. CostModel turns those
 * into comparable cost numbers two ways:
 *
 *  - static fallback: calibration-free units from CostFeatures (warp
 *    ops + warps), converted to approximate milliseconds by a learned
 *    ms-per-unit factor so static and observed estimates stay
 *    comparable inside one queue;
 *  - observed: an EWMA of the wall times this process has measured
 *    per observation key. The fleet dispatcher keys cells on
 *    api::cellCostKey, a hash of the request bytes, so it learns per
 *    request content, in-process only; nothing is persisted.
 *
 * The per-key memory is bounded: once kMaxObservedKeys keys are held,
 * the next new key clears them all, and every key falls back to the
 * static estimate a never-seen key gets anyway.
 *
 * Thread-safe; each fleet dispatcher owns one instance.
 */

#ifndef GPUPERF_SCHED_COST_H
#define GPUPERF_SCHED_COST_H

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

namespace gpuperf {
namespace sched {

/** Static, pre-execution predictors of one cell's cost. */
struct CostFeatures
{
    /** Warp-op count (dynamic trace size, or a static bound on it). */
    uint64_t warpOps = 0;
    /** Warps the launch makes resident (grid warps). */
    uint64_t warps = 0;
};

class CostModel
{
  public:
    /** EWMA smoothing for observed wall times. */
    static constexpr double kAlpha = 0.3;
    /** Default ms-per-static-unit before any observation calibrates it. */
    static constexpr double kDefaultMsPerUnit = 1e-4;
    /** Observed keys held before a new key clears them all. */
    static constexpr size_t kMaxObservedKeys = size_t{1} << 16;

    /**
     * Calibration-free static cost in abstract units. Monotone in
     * every feature: more ops or more warps never predicts cheaper.
     */
    static double staticUnits(const CostFeatures &f);

    /** prev EWMA (count samples) merged with one new sample. */
    static double ewmaMerge(double prev, uint64_t prevCount,
                            double sample, double alpha = kAlpha);

    /**
     * Predicted cost (approximate ms) for a cell: the observed EWMA
     * for @p key when one exists, else staticUnits scaled by the
     * learned ms-per-unit factor.
     */
    double estimate(const std::string &key,
                    const CostFeatures &f) const;

    /** The static fallback alone (key unknown or never observed). */
    double estimateStatic(const CostFeatures &f) const;

    /**
     * Record one measured wall time for @p key, refining both the
     * per-key EWMA and the static-units-to-ms factor. A new key
     * arriving at kMaxObservedKeys first clears every per-key EWMA.
     */
    void observe(const std::string &key, const CostFeatures &f,
                 double ms);

    /** |predicted - measured| accumulation for the stats surface. */
    double predictionErrorAbsSum() const;
    uint64_t predictionSamples() const;

  private:
    struct Observation
    {
        double ewmaMs = 0.0;
        uint64_t count = 0;
    };

    mutable std::mutex mutex_;
    std::unordered_map<std::string, Observation> observations_;
    double msPerUnit_ = kDefaultMsPerUnit;
    uint64_t msPerUnitCount_ = 0;
    double errorAbsSum_ = 0.0;
    uint64_t errorSamples_ = 0;
};

} // namespace sched
} // namespace gpuperf

#endif // GPUPERF_SCHED_COST_H
