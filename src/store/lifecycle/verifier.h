/**
 * @file
 * Integrity scan for a store root. Walks every entry file,
 * re-validating the full entry framing (magic, internal lengths,
 * checksum trailer when present — entries from before the trailer
 * existed get the structural checks only), and:
 *
 *  - QUARANTINES corrupt entries into <dir>/quarantine/ — readers
 *    already treat them as misses; moving them aside keeps the
 *    evidence for a post-mortem without the scan cost forever;
 *  - sweeps stale lease markers (holder dead or past the staleness
 *    threshold) and orphaned atomic-write temp files older than the
 *    stale age — the debris a crashed writer leaves behind;
 *  - removes legacy pack-*.seg segment files, which older builds'
 *    compactors wrote and nothing reads any more. They are not
 *    corruption: their entries simply miss and are recomputed.
 *
 * Verify never deletes a valid entry and never blocks a live store:
 * in-flight leases and young temps are left exactly as found.
 */

#ifndef GPUPERF_STORE_LIFECYCLE_VERIFIER_H
#define GPUPERF_STORE_LIFECYCLE_VERIFIER_H

#include <cstdint>
#include <string>

#include "store/lease.h"
#include "store/stats.h"

namespace gpuperf {
namespace store {

struct VerifyOptions
{
    /**
     * Move corrupt entries aside, sweep debris and remove legacy
     * segments (false = report only).
     */
    bool fix = true;
    /** Temp files older than this are orphans from a dead writer. */
    int64_t tempStaleMs = kLeaseStaleAfterMsDefault;
    /** Lease markers staler than this are swept (see leaseFresh()). */
    int64_t leaseStaleMs = kLeaseStaleAfterMsDefault;
};

struct VerifyReport
{
    uint64_t scannedEntries = 0;
    uint64_t scannedBytes = 0;
    uint64_t corruptEntries = 0;   ///< entries that failed validation
    uint64_t quarantined = 0;      ///< moved into quarantine/ (fix mode)
    uint64_t legacySegments = 0;   ///< pack-*.seg files (removed in fix mode)
    uint64_t staleLeases = 0;      ///< lease markers swept
    uint64_t staleTemps = 0;       ///< orphaned temp files reaped
    bool ok = true;                ///< false: a fix failed to apply

    /** True when the store is clean (nothing corrupt found). */
    bool clean() const { return corruptEntries == 0; }

    /** Deterministic JSON (keys in declaration order). */
    std::string json(const std::string &indent = "") const;
};

/** Scan (and with opts.fix, repair) the store at @p root. */
VerifyReport runVerify(const std::string &root,
                       const VerifyOptions &opts,
                       StoreCounters *counters = nullptr);

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_LIFECYCLE_VERIFIER_H
