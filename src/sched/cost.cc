#include "sched/cost.h"

#include <cmath>

namespace gpuperf {
namespace sched {

double
CostModel::staticUnits(const CostFeatures &f)
{
    // Replay wall time is dominated by the warp-op count of the
    // trace; resident warps add scheduler pressure on top. Additive
    // terms keep the estimate monotone in each feature and give a
    // floor of one unit so an all-zero cell still has a cost.
    return 1.0 + static_cast<double>(f.warpOps) +
           0.25 * static_cast<double>(f.warps);
}

double
CostModel::ewmaMerge(double prev, uint64_t prevCount, double sample,
                     double alpha)
{
    if (prevCount == 0)
        return sample;
    return alpha * sample + (1.0 - alpha) * prev;
}

double
CostModel::estimate(const std::string &key, const CostFeatures &f) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = observations_.find(key);
    if (it != observations_.end() && it->second.count > 0)
        return it->second.ewmaMs;
    return staticUnits(f) * msPerUnit_;
}

double
CostModel::estimateStatic(const CostFeatures &f) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return staticUnits(f) * msPerUnit_;
}

void
CostModel::observe(const std::string &key, const CostFeatures &f,
                   double ms)
{
    if (!(ms >= 0.0) || !std::isfinite(ms))
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = observations_.find(key);
    const double predicted =
        (it != observations_.end() && it->second.count > 0)
            ? it->second.ewmaMs
            : staticUnits(f) * msPerUnit_;
    errorAbsSum_ += std::fabs(predicted - ms);
    ++errorSamples_;

    if (it == observations_.end() &&
        observations_.size() >= kMaxObservedKeys)
        observations_.clear();
    Observation &obs = observations_[key];
    obs.ewmaMs = ewmaMerge(obs.ewmaMs, obs.count, ms);
    ++obs.count;

    const double units = staticUnits(f);
    if (units > 0.0 && ms > 0.0) {
        msPerUnit_ =
            ewmaMerge(msPerUnit_, msPerUnitCount_, ms / units);
        ++msPerUnitCount_;
    }
}

double
CostModel::predictionErrorAbsSum() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return errorAbsSum_;
}

uint64_t
CostModel::predictionSamples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return errorSamples_;
}

} // namespace sched
} // namespace gpuperf
