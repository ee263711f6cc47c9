#include "store/profile_store.h"

#include "store/codecs.h"
#include "store/lifecycle/lifecycle.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

ProfileStore::ProfileStore(std::string dir) : dir_(std::move(dir))
{
    makeDirs(dir_);
}

std::shared_ptr<const funcsim::KernelProfile>
ProfileStore::load(const funcsim::ProfileKey &key) const
{
    const std::string key_str = key.str();
    std::string payload;
    if (!readStoreEntry(dir_, fileStem("profile", key_str) + ".profile",
                        kFormatVersion, key_str, &payload,
                        &counters_)) {
        counters_.miss();
        return nullptr;
    }
    auto profile = std::make_shared<funcsim::KernelProfile>();
    ByteReader r(payload);
    if (!wire::decode(r, profile.get()) || !r.atEnd() ||
        profile->key != key) {
        counters_.miss();
        return nullptr;
    }
    counters_.hit();
    return profile;
}

bool
ProfileStore::readKey(const funcsim::ProfileKey &key) const
{
    const std::string key_str = key.str();
    return storeEntryExists(dir_,
                            fileStem("profile", key_str) + ".profile",
                            kFormatVersion, key_str, &counters_);
}

std::string
ProfileStore::leasePath(const funcsim::ProfileKey &key) const
{
    return dir_ + "/" + fileStem("profile", key.str()) + ".lease";
}

Lease
ProfileStore::tryAcquireLease(const funcsim::ProfileKey &key) const
{
    return store::tryAcquireLease(leasePath(key), leaseStaleAfterMs_,
                                  &counters_);
}

bool
ProfileStore::leaseHeld(const funcsim::ProfileKey &key) const
{
    return leaseFresh(leasePath(key), leaseStaleAfterMs_);
}

bool
ProfileStore::save(const funcsim::KernelProfile &profile) const
{
    const std::string key_str = profile.key.str();
    ByteWriter w;
    wire::encode(w, profile);
    return writeStoreEntry(dir_, fileStem("profile", key_str) + ".profile",
                           kFormatVersion, key_str, w.bytes(),
                           &counters_);
}

} // namespace store
} // namespace gpuperf
