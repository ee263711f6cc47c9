/**
 * @file
 * Cache-health telemetry for the persistent stores: every store keeps
 * one StoreCounters (thread-safe monotonic counters bumped on the hot
 * path), snapshotted into plain StoreStats values that ride
 * AnalysisService -> Server::stats() -> `gpuperf-serve --stats-json`,
 * the admin `gpuperf-worker stats` verb, and the batch bench JSON. A
 * fleet operator reads hit rates, byte traffic and lease steals per
 * store kind without attaching a debugger to any worker.
 *
 * Counters are process-local (each process counts what IT did to the
 * shared store); the disk-side complement — entry counts, live bytes,
 * lease/temp/quarantine populations — comes from scanning the store
 * root (store/lifecycle/lifecycle.h, StoreUsage).
 */

#ifndef GPUPERF_STORE_STATS_H
#define GPUPERF_STORE_STATS_H

#include <atomic>
#include <cstdint>
#include <string>

namespace gpuperf {
namespace store {

/** One store's counters as plain values (snapshot or aggregate). */
struct StoreStats
{
    uint64_t hits = 0;         ///< loads served (entry decoded + valid)
    uint64_t misses = 0;       ///< loads that recompute (absent/stale/corrupt)
    uint64_t writes = 0;       ///< entries persisted (atomic publishes)
    uint64_t writeFailures = 0;///< publishes that failed (degraded to miss)
    uint64_t writesSkipped = 0;///< saves whose bytes were already on disk
    uint64_t bytesRead = 0;    ///< file bytes read (loads, headers, compares)
    uint64_t bytesWritten = 0; ///< file bytes written
    uint64_t leaseSteals = 0;  ///< stale leases this process broke

    StoreStats &operator+=(const StoreStats &o)
    {
        hits += o.hits;
        misses += o.misses;
        writes += o.writes;
        writeFailures += o.writeFailures;
        writesSkipped += o.writesSkipped;
        bytesRead += o.bytesRead;
        bytesWritten += o.bytesWritten;
        leaseSteals += o.leaseSteals;
        return *this;
    }
};

/**
 * The live counter block each store owns. Relaxed atomics: these are
 * telemetry — torn cross-field reads are fine, lost increments are
 * not (hence atomics, not plain ints).
 */
class StoreCounters
{
  public:
    void hit() { hits_.fetch_add(1, std::memory_order_relaxed); }
    void miss() { misses_.fetch_add(1, std::memory_order_relaxed); }
    void wrote(uint64_t bytes)
    {
        writes_.fetch_add(1, std::memory_order_relaxed);
        bytesWritten_.fetch_add(bytes, std::memory_order_relaxed);
    }
    void writeFailed()
    {
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
    }
    void skippedWrite()
    {
        writesSkipped_.fetch_add(1, std::memory_order_relaxed);
    }
    void read(uint64_t bytes)
    {
        bytesRead_.fetch_add(bytes, std::memory_order_relaxed);
    }
    void stoleLease()
    {
        leaseSteals_.fetch_add(1, std::memory_order_relaxed);
    }

    uint64_t hits() const
    {
        return hits_.load(std::memory_order_relaxed);
    }
    uint64_t misses() const
    {
        return misses_.load(std::memory_order_relaxed);
    }

    StoreStats snapshot() const
    {
        StoreStats s;
        s.hits = hits_.load(std::memory_order_relaxed);
        s.misses = misses_.load(std::memory_order_relaxed);
        s.writes = writes_.load(std::memory_order_relaxed);
        s.writeFailures =
            writeFailures_.load(std::memory_order_relaxed);
        s.writesSkipped =
            writesSkipped_.load(std::memory_order_relaxed);
        s.bytesRead = bytesRead_.load(std::memory_order_relaxed);
        s.bytesWritten = bytesWritten_.load(std::memory_order_relaxed);
        s.leaseSteals = leaseSteals_.load(std::memory_order_relaxed);
        return s;
    }

  private:
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> writes_{0};
    std::atomic<uint64_t> writeFailures_{0};
    std::atomic<uint64_t> writesSkipped_{0};
    std::atomic<uint64_t> bytesRead_{0};
    std::atomic<uint64_t> bytesWritten_{0};
    std::atomic<uint64_t> leaseSteals_{0};
};

/**
 * The four stores' counters side by side — what one BatchRunner (and,
 * summed across executors, one AnalysisService) reports.
 */
struct StoreLayerStats
{
    StoreStats profiles;
    StoreStats calibrations;
    StoreStats timings;
    StoreStats results;

    StoreStats total() const
    {
        StoreStats t;
        t += profiles;
        t += calibrations;
        t += timings;
        t += results;
        return t;
    }

    StoreLayerStats &operator+=(const StoreLayerStats &o)
    {
        profiles += o.profiles;
        calibrations += o.calibrations;
        timings += o.timings;
        results += o.results;
        return *this;
    }
};

/**
 * One deterministic JSON object for @p stats (keys in declaration
 * order) — shared by statsToJson, the stats admin verb and the batch
 * bench. @p indent prefixes every line (nesting under a parent
 * object).
 */
std::string storeStatsJson(const StoreStats &stats,
                           const std::string &indent = "");

/** The layer as JSON: per-kind objects plus a "total". */
std::string storeLayerStatsJson(const StoreLayerStats &stats,
                                const std::string &indent = "");

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_STATS_H
