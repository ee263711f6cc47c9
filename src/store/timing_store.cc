#include "store/timing_store.h"

#include "sched/cost.h"
#include "store/codecs.h"
#include "store/lifecycle/segment.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

std::string
TimingStore::keyFor(const funcsim::ProfileKey &key,
                    const arch::TimingFingerprint &fp)
{
    return key.str() + "|timing=" + fp.key();
}

TimingStore::TimingStore(std::string dir) : dir_(std::move(dir))
{
    makeDirs(dir_);
}

std::shared_ptr<const timing::TimingResult>
TimingStore::load(const funcsim::ProfileKey &key,
                  const arch::TimingFingerprint &fp) const
{
    const std::string key_str = keyFor(key, fp);
    std::string payload;
    if (!readStoreEntry(dir_, fileStem("timing", key_str) + ".timing",
                        kFormatVersion, key_str, &payload,
                        &counters_)) {
        counters_.miss();
        return nullptr;
    }
    auto result = std::make_shared<timing::TimingResult>();
    ByteReader r(payload);
    if (!wire::decode(r, result.get()) || !r.atEnd()) {
        counters_.miss();
        return nullptr;
    }
    counters_.hit();
    return result;
}

bool
TimingStore::exists(const funcsim::ProfileKey &key,
                    const arch::TimingFingerprint &fp) const
{
    const std::string key_str = keyFor(key, fp);
    return storeEntryExists(dir_,
                            fileStem("timing", key_str) + ".timing",
                            kFormatVersion, key_str, &counters_);
}

std::string
TimingStore::leasePath(const std::string &key_str) const
{
    return dir_ + "/" + fileStem("timing", key_str) + ".lease";
}

Lease
TimingStore::tryAcquireLease(const funcsim::ProfileKey &key,
                             const arch::TimingFingerprint &fp) const
{
    return store::tryAcquireLease(leasePath(keyFor(key, fp)),
                                  leaseStaleAfterMs_, &counters_);
}

bool
TimingStore::leaseHeld(const funcsim::ProfileKey &key,
                       const arch::TimingFingerprint &fp) const
{
    return leaseFresh(leasePath(keyFor(key, fp)), leaseStaleAfterMs_);
}

bool
TimingStore::recordObservationMs(const funcsim::ProfileKey &key,
                                 const arch::TimingFingerprint &fp,
                                 double ms) const
{
    const std::string key_str = keyFor(key, fp);
    const std::string name = fileStem("obs", key_str) + ".obs";
    double ewma = 0.0;
    uint64_t count = 0;
    std::string payload;
    // Read through segments (a compacted .obs history keeps merging)
    // but ALWAYS write loose: the atomic loose write is the
    // last-write-wins arbiter, and the compactor folds it back in
    // later.
    if (readStoreEntry(dir_, name, kObservationFormatVersion, key_str,
                       &payload, &counters_)) {
        ByteReader r(payload);
        std::pair<double, uint64_t> stored;
        if (wire::decode(r, &stored) && r.atEnd())
            std::tie(ewma, count) = stored;
    }
    ewma = sched::CostModel::ewmaMerge(ewma, count, ms);
    ++count;
    ByteWriter w;
    wire::encode(w, std::make_pair(ewma, count));
    return writeEntryFile(dir_ + "/" + name, kObservationFormatVersion,
                          key_str, w.bytes(), &counters_);
}

bool
TimingStore::loadObservationMs(const funcsim::ProfileKey &key,
                               const arch::TimingFingerprint &fp,
                               double *ms, uint64_t *count) const
{
    const std::string key_str = keyFor(key, fp);
    std::string payload;
    if (!readStoreEntry(dir_, fileStem("obs", key_str) + ".obs",
                        kObservationFormatVersion, key_str, &payload,
                        &counters_))
        return false;
    ByteReader r(payload);
    std::pair<double, uint64_t> stored; // (EWMA ms, sample count)
    if (!wire::decode(r, &stored) || !r.atEnd() || stored.second == 0)
        return false;
    if (ms)
        *ms = stored.first;
    if (count)
        *count = stored.second;
    return true;
}

bool
TimingStore::save(const funcsim::ProfileKey &key,
                  const arch::TimingFingerprint &fp,
                  const timing::TimingResult &result) const
{
    const std::string key_str = keyFor(key, fp);
    const std::string path =
        dir_ + "/" + fileStem("timing", key_str) + ".timing";
    ByteWriter w;
    wire::encode(w, result);
    return writeEntryFile(path, kFormatVersion, key_str, w.bytes(),
                          &counters_);
}

} // namespace store
} // namespace gpuperf
