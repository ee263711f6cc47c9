/**
 * @file
 * Shared helpers for the throughput, latency and scheduling benches:
 * --full/--csv parsing, table output and latency percentiles.
 *
 * The paper's tables and figures are not benches: tests/test_paper.cc
 * asserts their claims, and a paper-scale run is a JSON request naming
 * the `gemm`, `cyclic-reduction` or `spmv` factory, sent to
 * `gpuperf-worker run`.
 */

#ifndef GPUPERF_BENCH_BENCH_COMMON_H
#define GPUPERF_BENCH_BENCH_COMMON_H

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.h"

namespace gpuperf {
namespace bench {

/** Parsed command-line options. */
struct BenchOptions
{
    bool full = false;
    bool csv = false;
};

inline BenchOptions
parseArgs(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--full") == 0) {
            opts.full = true;
        } else if (std::strcmp(argv[i], "--csv") == 0) {
            opts.csv = true;
        } else if (std::strcmp(argv[i], "--help") == 0) {
            std::cout << "usage: " << argv[0] << " [--full] [--csv]\n"
                      << "  --full  paper-scale problem sizes\n"
                      << "  --csv   machine-readable output\n";
            std::exit(0);
        } else {
            std::cerr << "unknown option " << argv[i] << "\n";
            std::exit(2);
        }
    }
    return opts;
}

/** Print a table honoring --csv. */
inline void
emit(const Table &t, const BenchOptions &opts)
{
    if (opts.csv)
        t.printCsv(std::cout);
    else
        t.print(std::cout);
}

/**
 * Nearest-rank percentile of @p samples (unsorted is fine; 0.0 on an
 * empty set). One definition for every bench, so p50/p99 columns in
 * different bench_*.json files are comparable.
 */
inline double
percentileMs(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t idx = static_cast<size_t>(
        p * static_cast<double>(samples.size() - 1) + 0.5);
    return samples[std::min(idx, samples.size() - 1)];
}

/** {"count": N, "p50": X, "p99": Y} for one latency sample set. */
inline std::string
latencyClassJson(const std::vector<double> &ms)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "{\"count\": %zu, \"p50\": %.2f, \"p99\": %.2f}",
                  ms.size(), percentileMs(ms, 0.50),
                  percentileMs(ms, 0.99));
    return buf;
}

/**
 * Per-size-class latency recorder: mixed-load benches tag each
 * request small or large and report the tails separately — a combined
 * p99 hides exactly the thing scheduling policies change (how long
 * SMALL work waits behind big work).
 */
struct LatencyBreakdown
{
    std::vector<double> smallMs;
    std::vector<double> largeMs;

    void add(bool large, double ms)
    {
        (large ? largeMs : smallMs).push_back(ms);
    }

    std::vector<double> all() const
    {
        std::vector<double> both = smallMs;
        both.insert(both.end(), largeMs.begin(), largeMs.end());
        return both;
    }

    /** {"all": {...}, "small": {...}, "large": {...}} */
    std::string json() const
    {
        return "{\"all\": " + latencyClassJson(all()) +
               ", \"small\": " + latencyClassJson(smallMs) +
               ", \"large\": " + latencyClassJson(largeMs) + "}";
    }
};

} // namespace bench
} // namespace gpuperf

#endif // GPUPERF_BENCH_BENCH_COMMON_H
