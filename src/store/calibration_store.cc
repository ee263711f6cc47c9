#include "store/calibration_store.h"

#include "store/codecs.h"
#include "store/lifecycle/lifecycle.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

CalibrationStore::CalibrationStore(std::string dir)
    : dir_(std::move(dir))
{
    makeDirs(dir_);
}

std::shared_ptr<const model::CalibrationTables>
CalibrationStore::load(const arch::GpuSpec &spec) const
{
    const std::string key = spec.fingerprint();
    std::string payload;
    if (!readStoreEntry(dir_, fileStem(spec.name, key) + ".calibration",
                        kFormatVersion, key, &payload, &counters_)) {
        counters_.miss();
        return nullptr;
    }
    auto tables = std::make_shared<model::CalibrationTables>();
    ByteReader r(payload);
    if (!wire::decode(r, tables.get()) || !r.atEnd()) {
        counters_.miss();
        return nullptr;
    }
    counters_.hit();
    return tables;
}

bool
CalibrationStore::save(const arch::GpuSpec &spec,
                       const model::CalibrationTables &tables) const
{
    const std::string key = spec.fingerprint();
    ByteWriter w;
    wire::encode(w, tables);
    return writeStoreEntry(dir_, fileStem(spec.name, key) + ".calibration",
                           kFormatVersion, key, w.bytes(), &counters_);
}

namespace {

/** A .bench payload's entries; empty when it does not decode. */
std::vector<CalibrationStore::BenchEntry>
decodeBenchEntries(const std::string &payload)
{
    ByteReader r(payload);
    std::vector<CalibrationStore::BenchEntry> entries;
    if (!wire::decode(r, &entries) || !r.atEnd())
        return {};
    return entries;
}

} // namespace

bool
CalibrationStore::saveBenchResults(const arch::GpuSpec &spec,
                                   std::vector<BenchEntry> entries) const
{
    // Merge with what is already stored so shapes measured by earlier
    // batches survive a batch that happened not to need them. It runs
    // on every save (a merge that adds nothing is a skipped write), so
    // a shape lost to a racing saver's rename comes back. One read of
    // the file gives both the merge base and the skip's byte compare.
    const std::string key = "bench|" + spec.fingerprint();
    std::string payload;
    const auto merge = [&entries, &payload](
                           const std::string *stored) -> const std::string & {
        std::vector<BenchEntry> merged;
        if (stored)
            merged = decodeBenchEntries(*stored);
        for (BenchEntry &e : entries) {
            bool known = false;
            for (const BenchEntry &m : merged) {
                if (m.first == e.first) {
                    known = true;
                    break;
                }
            }
            if (!known)
                merged.push_back(std::move(e));
        }
        ByteWriter w;
        wire::encode(w, merged);
        payload = w.bytes();
        return payload;
    };
    return updateStoreEntry(dir_, fileStem(spec.name, key) + ".bench",
                            kFormatVersion, key, merge, &counters_);
}

std::string
CalibrationStore::leasePath(const arch::GpuSpec &spec) const
{
    return dir_ + "/" + fileStem(spec.name, spec.fingerprint()) +
           ".lease";
}

Lease
CalibrationStore::tryAcquireLease(const arch::GpuSpec &spec) const
{
    return store::tryAcquireLease(leasePath(spec), leaseStaleAfterMs_,
                                  &counters_);
}

bool
CalibrationStore::leaseHeld(const arch::GpuSpec &spec) const
{
    return leaseFresh(leasePath(spec), leaseStaleAfterMs_);
}

std::vector<CalibrationStore::BenchEntry>
CalibrationStore::loadBenchResults(const arch::GpuSpec &spec) const
{
    const std::string key = "bench|" + spec.fingerprint();
    std::string payload;
    if (!readStoreEntry(dir_, fileStem(spec.name, key) + ".bench",
                        kFormatVersion, key, &payload, &counters_)) {
        return {};
    }
    return decodeBenchEntries(payload);
}

} // namespace store
} // namespace gpuperf
