#include "store/result_store.h"

#include "store/codecs.h"
#include "store/lifecycle/lifecycle.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir))
{
    makeDirs(dir_);
}

std::unique_ptr<driver::BatchResult>
ResultStore::load(const std::string &key) const
{
    std::string payload;
    if (!readStoreEntry(dir_, fileStem("result", key) + ".result",
                        kFormatVersion, key, &payload, &counters_)) {
        counters_.miss();
        return nullptr;
    }
    auto result = std::make_unique<driver::BatchResult>();
    ByteReader r(payload);
    if (!wire::decode(r, result.get()) || !r.atEnd()) {
        counters_.miss();
        return nullptr;
    }
    // Only ok results are ever persisted; re-stamp that on the way
    // out (the payload carries no ok/error status).
    result->ok = true;
    result->error.clear();
    counters_.hit();
    return result;
}

bool
ResultStore::save(const std::string &key,
                  const driver::BatchResult &result) const
{
    ByteWriter w;
    wire::encode(w, result);
    return writeStoreEntry(dir_, fileStem("result", key) + ".result",
                           kFormatVersion, key, w.bytes(), &counters_);
}

} // namespace store
} // namespace gpuperf
