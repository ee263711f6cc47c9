/**
 * @file
 * Segment compaction: folds a store directory's loose entry files
 * into one indexed segment (store/lifecycle/segment.h) so a
 * 10^5-entry directory stops costing 10^5 inodes and per-file opens.
 * Writes always stay loose — the atomic rename IS the store's
 * publication protocol — and the compactor periodically folds them
 * in, so a directory converges to "a few segments plus the newest
 * loose writes".
 *
 * Safety order per directory, all under the compact lease:
 *   1. read every loose entry (remembering its size+mtime) and every
 *      existing segment slice (when merging);
 *   2. publish the new segment (atomic temp+rename) — from this
 *      instant readers can resolve every folded name;
 *   3. re-stat each loose file and unlink ONLY the unchanged ones —
 *      a file rewritten mid-fold (a .bench merge, a re-published
 *      entry) survives as the fresher loose version, which readers
 *      prefer over any segment slice.
 * A crash between 2 and 3 leaves duplicates (loose + slice), which
 * readers resolve loose-first and the next compaction folds again —
 * over-retention, never loss.
 */

#ifndef GPUPERF_STORE_LIFECYCLE_COMPACTOR_H
#define GPUPERF_STORE_LIFECYCLE_COMPACTOR_H

#include <cstdint>
#include <string>

#include "store/stats.h"

namespace gpuperf {
namespace store {

struct CompactOptions
{
    /** Leave directories with fewer loose entries than this alone. */
    uint64_t minLooseEntries = 64;
    /** Merge existing segments once a directory holds more of them. */
    uint64_t maxSegments = 4;
    /** Compact every directory regardless of the thresholds. */
    bool force = false;
    /**
     * Entries leased or younger than this stay loose — their writer
     * (or a waiter polling for them) is still active.
     */
    int64_t minAgeMs = 60 * 1000;
};

struct CompactReport
{
    uint64_t foldedEntries = 0;  ///< loose files folded into segments
    uint64_t foldedBytes = 0;
    uint64_t segmentsMerged = 0; ///< old segments folded forward
    uint64_t segmentsWritten = 0;
    uint64_t keptLoose = 0;      ///< spared: leased, young, or changed
    uint64_t dirsSkippedBusy = 0;
    bool ok = true;

    /** Deterministic JSON (keys in declaration order). */
    std::string json(const std::string &indent = "") const;
};

/** Compact every subdirectory of @p root per @p opts. */
CompactReport runCompact(const std::string &root,
                         const CompactOptions &opts,
                         StoreCounters *counters = nullptr);

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_LIFECYCLE_COMPACTOR_H
