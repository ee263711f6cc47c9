/**
 * @file
 * Persistent binary store of microbenchmark calibration tables, keyed
 * by the FULL GpuSpec fingerprint (calibration measures the timing
 * simulator, so every spec field matters — unlike profiles, which key
 * on the funcsim sub-fingerprint only). Lets repeated batch runs skip
 * the calibration sweep across process restarts.
 */

#ifndef GPUPERF_STORE_CALIBRATION_STORE_H
#define GPUPERF_STORE_CALIBRATION_STORE_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arch/gpu_spec.h"
#include "model/calibration.h"
#include "store/lease.h"
#include "store/stats.h"

namespace gpuperf {
namespace store {

/**
 * The calibration store's lease handle IS the generic store::Lease
 * (ProfileStore and TimingStore share the same mechanism). The alias
 * keeps older callers compiling.
 */
using CalibrationLease = Lease;

/** Thread-safe; load/save may be called from any worker. */
class CalibrationStore
{
  public:
    /**
     * Bump on ANY change that alters what a cached entry would
     * contain — the payload encoding OR the calibration behaviour
     * (microbenchmarks, sweep shapes, the simulators they measure);
     * see ProfileStore::kFormatVersion.
     */
    static constexpr uint32_t kFormatVersion = 1;

    /** @param dir store directory, created if absent. */
    explicit CalibrationStore(std::string dir);

    /** Stored tables for @p spec, or nullptr on any miss. */
    std::shared_ptr<const model::CalibrationTables>
    load(const arch::GpuSpec &spec) const;

    bool save(const arch::GpuSpec &spec,
              const model::CalibrationTables &tables) const;

    /** One synthetic global-benchmark memo entry, as persisted. */
    using BenchEntry =
        std::pair<std::tuple<int, int, int>, model::GlobalBenchResult>;

    /**
     * Persist the synthetic global-memory benchmark results measured
     * for @p spec (the memoized half of calibration the tables do not
     * cover). Entries accumulate across saves: a batch that measured
     * new launch shapes merges them into the stored set, so repeated
     * runs converge on zero microbenchmark work. The load-merge-write
     * is not atomic across processes — two writers racing on one
     * store can each persist only their own merge (last rename wins),
     * which costs a re-measurement on a later run, never wrong data.
     */
    bool saveBenchResults(const arch::GpuSpec &spec,
                          std::vector<BenchEntry> entries) const;

    /** The stored benchmark results for @p spec (empty on a miss). */
    std::vector<BenchEntry>
    loadBenchResults(const arch::GpuSpec &spec) const;

    uint64_t hits() const { return counters_.hits(); }
    uint64_t misses() const { return counters_.misses(); }

    /** Full cache-health snapshot (hits, misses, bytes, steals...). */
    StoreStats stats() const { return counters_.snapshot(); }

    const std::string &dir() const { return dir_; }

    // --- Cross-process calibration lease ------------------------------
    //
    // Sharded processes pointing at one store directory split the
    // microbenchmark sweep instead of duplicating it: before
    // calibrating a spec, a process takes the spec's lease — an
    // advisory marker file (O_CREAT|O_EXCL, so exactly one creator
    // wins) recording its pid and start time next to the calibration
    // entry. Processes that lose the race poll the store until the
    // entry appears, instead of re-running the sweep.
    //
    // The lock is ADVISORY and crash-safe by staleness: a lease whose
    // pid is no longer alive (same-host check) or whose file is older
    // than the stale timeout is broken and re-acquired. The worst
    // case of every race here — two writers after a broken lease, a
    // holder dying mid-sweep — is one duplicated calibration, never
    // wrong data (entries stay self-validating and atomically
    // renamed into place).

    /**
     * Try to take the calibration lease for @p spec. Returns a held
     * lease on success; an empty (not held) one while another LIVE
     * process holds it. A stale lease is broken and re-acquired.
     */
    CalibrationLease tryAcquireLease(const arch::GpuSpec &spec) const;

    /**
     * True while some process (possibly this one) holds a fresh
     * lease on @p spec's calibration.
     */
    bool leaseHeld(const arch::GpuSpec &spec) const;

    /**
     * Age threshold beyond which a lease whose holder cannot be
     * probed is considered abandoned. The default (15 min) is far
     * above any real sweep; tests shrink it to exercise stealing.
     */
    void setLeaseStaleAfter(std::chrono::milliseconds age)
    {
        leaseStaleAfterMs_ = age.count();
    }

  private:
    std::string path(const arch::GpuSpec &spec,
                     const std::string &key) const;
    std::string leasePath(const arch::GpuSpec &spec) const;

    std::string dir_;
    int64_t leaseStaleAfterMs_ = kLeaseStaleAfterMsDefault;
    mutable StoreCounters counters_;
};

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_CALIBRATION_STORE_H
