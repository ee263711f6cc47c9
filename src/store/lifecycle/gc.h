/**
 * @file
 * Size- and age-bounded garbage collection for a store root. Eviction
 * is LRU on the last-access sidecar (file mtime as the fallback), and
 * LEASE-AWARE: an entry whose in-flight lease is fresh — some process
 * is computing or publishing it right now — is never touched, and
 * neither is anything younger than the min-age guard (an entry
 * between its writer's rename and its reader's first load looks idle
 * but isn't). The worst case of every race is over-RETENTION until
 * the next sweep; an evicted entry is always recomputable by
 * construction, so GC can never lose data, only warmth.
 *
 * One GC runs against a directory at a time (the per-directory
 * janitor lease, lifecycle.h); a second janitor skips it and reports
 * rather than waits.
 */

#ifndef GPUPERF_STORE_LIFECYCLE_GC_H
#define GPUPERF_STORE_LIFECYCLE_GC_H

#include <cstdint>
#include <string>

#include "store/stats.h"

namespace gpuperf {
namespace store {

struct GcOptions
{
    /** Live-byte budget for the whole root; 0 = no size bound. */
    uint64_t maxBytes = 0;
    /** Evict anything idle longer than this; 0 = no age bound. */
    int64_t maxAgeMs = 0;
    /**
     * Never evict an entry younger than this, whatever the budget
     * says — the publish-to-first-read window must not be collectable
     * (a racing writer's rename landing just before the sweep).
     */
    int64_t minAgeMs = 60 * 1000;
    /** Report what WOULD be evicted without touching anything. */
    bool dryRun = false;
};

struct GcReport
{
    uint64_t scanned = 0;       ///< candidate entries considered
    uint64_t evicted = 0;       ///< entries removed (or would-be, dry run)
    uint64_t evictedBytes = 0;
    uint64_t keptLeased = 0;    ///< spared: fresh in-flight lease
    uint64_t keptYoung = 0;     ///< spared: under the min-age guard
    uint64_t dirsSkippedBusy = 0; ///< another janitor held the dir
    uint64_t liveBytesBefore = 0;
    uint64_t liveBytesAfter = 0;
    bool ok = true;             ///< false: some eviction failed to apply

    /** Deterministic JSON (keys in declaration order). */
    std::string json(const std::string &indent = "") const;
};

/**
 * Collect @p root to within @p opts. Safe against live readers and
 * writers sharing the store (see file comment for the race story).
 */
GcReport runGc(const std::string &root, const GcOptions &opts,
               StoreCounters *counters = nullptr);

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_LIFECYCLE_GC_H
