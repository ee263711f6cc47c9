/**
 * @file
 * Percentiles for the benchmark's latency metrics. One definition,
 * nearest rank, so every metric the benchmark prints is a sample that
 * was actually measured.
 */

#ifndef GPUPERF_BENCH_GPUPERF_SUMMARY_H
#define GPUPERF_BENCH_GPUPERF_SUMMARY_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace gpuperf {
namespace perfbench {

/**
 * Nearest-rank percentile of @p sorted (ascending), with the rank
 * given in per-mille (500 = median, 990 = p99): the smallest sample
 * that at least that share of samples does not exceed. Integer rank
 * arithmetic, so p90 of 100 samples is exactly the 90th. 0.0 on an
 * empty set.
 */
inline double
percentileSorted(const std::vector<double> &sorted, size_t per_mille)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = (per_mille * sorted.size() + 999) / 1000;
    rank = std::max<size_t>(rank, 1);
    return sorted[std::min(rank, sorted.size()) - 1];
}

/**
 * p99 (in per-mille) when it leaves at least 10 of @p count samples
 * beyond it, else p90 when that does, else p50. A tail read from fewer
 * samples than that is one outlier, not a percentile. The search stops
 * at p99, the tail the small_req_ms_p99 metric names: deeper tails are
 * the file system's rare stalls, which swing from run to run.
 */
inline size_t
tailPerMille(size_t count)
{
    for (size_t pm : {990u, 900u}) {
        const size_t rank = (pm * count + 999) / 1000;
        if (count >= rank + 10)
            return pm;
    }
    return 500;
}

/** Count and the percentiles the benchmark reports of one sample set. */
struct Summary
{
    size_t count = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    /** The tail percentile tailPerMille(count) picks, and its value. */
    size_t tailPm = 500;
    double tail = 0.0;

    static Summary of(std::vector<double> samples)
    {
        std::sort(samples.begin(), samples.end());
        Summary s;
        s.count = samples.size();
        s.p50 = percentileSorted(samples, 500);
        s.p90 = percentileSorted(samples, 900);
        s.p99 = percentileSorted(samples, 990);
        s.tailPm = tailPerMille(samples.size());
        s.tail = percentileSorted(samples, s.tailPm);
        return s;
    }
};

} // namespace perfbench
} // namespace gpuperf

#endif // GPUPERF_BENCH_GPUPERF_SUMMARY_H
