/**
 * @file
 * Advisory cross-process lease markers — the in-flight protocol every
 * store shares (calibrations, profiles and timings).
 *
 * A lease is a marker file created with O_CREAT|O_EXCL (so exactly one
 * creator wins) recording the holder's pid, start time and hostname.
 * Cooperating processes take a key's lease before computing the keyed
 * artifact; processes that lose the race poll the store for the
 * published entry instead of duplicating the work.
 *
 * The lock is ADVISORY and crash-safe by staleness: a lease whose pid
 * is no longer alive (same-host check) or whose marker is older than
 * the stale threshold is broken and re-acquired. The worst case of
 * every race — two writers after a broken lease, a holder dying
 * mid-compute — is one duplicated computation, never wrong data
 * (store entries stay self-validating and atomically renamed into
 * place, so a duplicate write is a bit-identical overwrite).
 */

#ifndef GPUPERF_STORE_LEASE_H
#define GPUPERF_STORE_LEASE_H

#include <cstdint>
#include <string>

#include "store/stats.h"

namespace gpuperf {
namespace store {

/** Default staleness threshold: far above any real sweep or replay. */
constexpr int64_t kLeaseStaleAfterMsDefault = 15 * 60 * 1000;

/**
 * RAII handle on one key's lease (the advisory cross-process in-flight
 * marker). Releasing (or destroying) a held lease removes the marker
 * file so waiters stop polling.
 */
class Lease
{
  public:
    Lease() = default;
    ~Lease() { release(); }

    Lease(Lease &&other) noexcept
        : path_(std::move(other.path_)), held_(other.held_)
    {
        other.path_.clear();
        other.held_ = false;
    }
    Lease &operator=(Lease &&other) noexcept;
    Lease(const Lease &) = delete;
    Lease &operator=(const Lease &) = delete;

    /**
     * True when the caller owns the right to compute. Usually backed
     * by a marker file; on an unwritable store directory the lease is
     * held WITHOUT a marker (the safe degradation: possibly duplicated
     * work, never a stuck waiter).
     */
    bool held() const { return held_; }

    /** Remove the marker file, if any (idempotent). */
    void release();

  private:
    friend Lease tryAcquireLease(const std::string &, int64_t,
                                 StoreCounters *);
    Lease(std::string path, bool held)
        : path_(std::move(path)), held_(held)
    {
    }

    std::string path_; ///< marker file; empty = none to remove
    bool held_ = false;
};

/**
 * Try to take the lease at @p marker_path. Returns a held lease on
 * success; an empty (not held) one while another LIVE process holds
 * it. A stale marker — older than @p stale_after_ms, or written by a
 * dead same-host pid — is broken and re-acquired; each break bumps
 * @p counters (optional) lease-steal telemetry.
 */
Lease tryAcquireLease(const std::string &marker_path,
                      int64_t stale_after_ms = kLeaseStaleAfterMsDefault,
                      StoreCounters *counters = nullptr);

/**
 * True while some process (possibly this one) holds a fresh lease at
 * @p marker_path.
 */
bool leaseFresh(const std::string &marker_path,
                int64_t stale_after_ms = kLeaseStaleAfterMsDefault);

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_LEASE_H
