/**
 * @file
 * Persistent on-disk store of finished batch-analysis results, keyed
 * by the full content identity of one cell: kernel-case name, profile
 * key (kernel hash x launch x options x funcsim fingerprint), target
 * spec fingerprint, and sweep-grid fingerprint. A warm store lets a
 * repeated batch skip the whole cell — timing replay, extraction,
 * prediction and sweep — and still return bit-identical results,
 * because every number round-trips through the binary codec exactly.
 *
 * Only successful (ok) results are stored; failures are recomputed so
 * transient errors never stick.
 */

#ifndef GPUPERF_STORE_RESULT_STORE_H
#define GPUPERF_STORE_RESULT_STORE_H

#include <cstdint>
#include <memory>
#include <string>

#include "driver/batch_runner.h"
#include "store/codecs.h"
#include "store/serializer.h"
#include "store/stats.h"

namespace gpuperf {
namespace wire {

// Driver-layer walks: store/codecs.h stays below the driver layer.

inline constexpr const char *kWhatIfKindNames[] = {
    "no-bank-conflicts", "warps-per-sm", "coalescing-fraction"};
template <>
struct EnumWire<driver::SweepPoint::Kind> : ByName<kWhatIfKindNames> {};

template <class V>
void
fields(V &v, driver::RankedWhatIf &x)
{
    v("kind", x.point.kind);
    v("value", x.point.value);
    v("before", x.result.before);
    v("after", x.result.after);
}

/**
 * A finished cell. Its ok/error status leads a binary response cell,
 * follows the names in JSON, and is absent from the result store,
 * which keeps only successes (load() re-stamps ok).
 */
template <class V>
void
fields(V &v, driver::BatchResult &x)
{
    const auto status = [&] {
        v("ok", x.ok);
        v("error", x.error);
    };
    if constexpr (V::kBinary) {
        if (v.cellStatus)
            status();
    }
    v("kernel", x.kernelName);
    v("spec", x.specName);
    if constexpr (!V::kBinary)
        status();
    v("analysis", x.analysis);
    v("whatifs", x.whatifs);
}

} // namespace wire

namespace store {

/** Thread-safe; load/save may be called from any worker. */
class ResultStore
{
  public:
    /**
     * Bump on ANY change that alters what a cached entry would
     * contain — the payload encoding OR the pipeline behaviour that
     * computed it (timing simulator, extractor, model, sweep
     * evaluation); see ProfileStore::kFormatVersion.
     */
    static constexpr uint32_t kFormatVersion = 1;

    /** @param dir store directory, created if absent. */
    explicit ResultStore(std::string dir);

    /** The stored result for @p key, or nullptr on any miss. */
    std::unique_ptr<driver::BatchResult>
    load(const std::string &key) const;

    /** Persist @p result (callers only pass ok results). */
    bool save(const std::string &key,
              const driver::BatchResult &result) const;

    uint64_t hits() const { return counters_.hits(); }
    uint64_t misses() const { return counters_.misses(); }

    /** Full cache-health snapshot (hits, misses, bytes, steals...). */
    StoreStats stats() const { return counters_.snapshot(); }

    const std::string &dir() const { return dir_; }

  private:
    std::string dir_;
    mutable StoreCounters counters_;
};

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_RESULT_STORE_H
