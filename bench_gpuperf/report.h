/**
 * @file
 * What one benchmark run reports: named metrics with units, the cells
 * attempted and failed, failed checks, and a digest of the responses.
 * The last line the run prints is this report as one JSON object.
 */

#ifndef GPUPERF_BENCH_GPUPERF_REPORT_H
#define GPUPERF_BENCH_GPUPERF_REPORT_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "api/request.h"

namespace gpuperf {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** Responses folded into a run's digest (a deterministic prefix). */
constexpr size_t kDigestResponses = 20;

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Sample count or provenance, printed beside the value. */
    std::string note;
};

class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit, const std::string &note = "");
    /** A failed check: the run is not correct. */
    void problem(const std::string &what);
    /** A printed line that is not a metric (counters, sample sizes). */
    void info(const std::string &line) { infos_.push_back(line); }

    /**
     * Count @p expected cells as attempted; every one missing from
     * @p resp or not ok counts as failed.
     */
    void account(const api::AnalysisResponse &resp, size_t expected);
    /** Cells of a request the program refused or lost. */
    void refused(size_t cells);
    /** Cells that were delivered but differ from the reference. */
    void mismatched(size_t cells);
    /** Fold @p resp's binary encoding into the digest (first few). */
    void fold(const api::AnalysisResponse &resp);
    /** Merge another thread's counts and problems. */
    void merge(const Report &other);

    bool correct() const { return failed_ == 0 && problemCount_ == 0; }
    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const;

    /** Human-readable lines, then the JSON object as the last line. */
    void print(const std::string &title) const;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> problems_;
    std::vector<std::string> infos_;
    size_t problemCount_ = 0;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t digest_ = 0xcbf29ce484222325ULL;
    size_t digested_ = 0;
};

/** |predicted - simulated| / simulated, in percent, of one cell. */
double modelErrPct(const driver::BatchResult &cell);

/** Peak resident set of this process, in MB. */
double peakRssMb();

} // namespace perfbench
} // namespace gpuperf

#endif // GPUPERF_BENCH_GPUPERF_REPORT_H
