#include "store/lifecycle/lifecycle.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "store/serializer.h"

namespace gpuperf {
namespace store {

const char kAccessIndexName[] = "access.idx";
const char kQuarantineDirName[] = "quarantine";
const char kJanitorLeaseName[] = "compact.lease";

namespace {

// ".obs": written only by older builds, read by nothing, aged out by GC.
const char *const kEntrySuffixes[] = {
    ".profile", ".calibration", ".bench", ".timing", ".obs", ".result",
};

constexpr uint32_t kAccessIndexVersion = 1;
constexpr size_t kAccessFlushEvery = 256;

bool
hasSuffix(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) ==
               0;
}

int64_t
wallClockMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/** Parse dir/access.idx alone (no in-memory merge). */
void
loadAccessIndexFile(const std::string &dir,
                    std::map<std::string, int64_t> *out)
{
    std::string data;
    if (!readWholeFile(dir + "/" + kAccessIndexName, &data))
        return;
    ByteReader r(data);
    if (r.u32() != kAccessIndexVersion)
        return;
    const uint64_t n = r.u64();
    std::map<std::string, int64_t> parsed;
    for (uint64_t i = 0; i < n && r.ok(); ++i) {
        const std::string name = r.str();
        const int64_t ms = r.i64();
        if (!name.empty())
            parsed[name] = ms;
    }
    if (!r.atEnd())
        return; // torn sidecar: mtime fallback covers it
    for (const auto &e : parsed) {
        auto it = out->find(e.first);
        if (it == out->end() || it->second < e.second)
            (*out)[e.first] = e.second;
    }
}

/**
 * The process-wide touch buffer. One mutexed map insert per store
 * read; the disk write happens every kAccessFlushEvery touches per
 * directory (and on flushAccessIndexes()), merge-max against the
 * sidecar so concurrent processes never regress a timestamp. Flushes
 * hold flushMu_ from taking the pending touches to the rename: two
 * unserialized flushes of one directory would share a temp name and
 * each rewrite the sidecar without the other's touches.
 */
class AccessTracker
{
  public:
    static AccessTracker &instance()
    {
        static AccessTracker t;
        return t;
    }

    void touch(const std::string &dir, const std::string &name)
    {
        std::string flush_dir;
        {
            std::lock_guard<std::mutex> lock(mu_);
            Buffer &buf = buffers_[dir];
            buf.touches[name] = wallClockMs();
            if (++buf.sinceFlush >= kAccessFlushEvery) {
                buf.sinceFlush = 0;
                flush_dir = dir;
            }
        }
        if (!flush_dir.empty()) {
            std::lock_guard<std::mutex> flush(flushMu_);
            flushDir(flush_dir);
        }
    }

    void flushAll()
    {
        // Taken first, so a flush already in flight lands before the
        // caller (GC) reads the sidecars.
        std::lock_guard<std::mutex> flush(flushMu_);
        std::vector<std::string> dirs;
        {
            std::lock_guard<std::mutex> lock(mu_);
            for (const auto &e : buffers_)
                if (!e.second.touches.empty())
                    dirs.push_back(e.first);
        }
        for (const std::string &dir : dirs)
            flushDir(dir);
    }

    void merge(const std::string &dir,
               std::map<std::string, int64_t> *out)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = buffers_.find(dir);
        if (it == buffers_.end())
            return;
        for (const auto &e : it->second.touches) {
            auto jt = out->find(e.first);
            if (jt == out->end() || jt->second < e.second)
                (*out)[e.first] = e.second;
        }
    }

  private:
    struct Buffer
    {
        std::map<std::string, int64_t> touches;
        size_t sinceFlush = 0;
    };

    /** The load-merge-write-rename; the caller holds flushMu_. */
    void flushDir(const std::string &dir)
    {
        std::map<std::string, int64_t> pending;
        {
            std::lock_guard<std::mutex> lock(mu_);
            auto it = buffers_.find(dir);
            if (it == buffers_.end() || it->second.touches.empty())
                return;
            pending.swap(it->second.touches);
            it->second.sinceFlush = 0;
        }
        std::map<std::string, int64_t> merged;
        loadAccessIndexFile(dir, &merged);
        for (const auto &e : pending) {
            auto it = merged.find(e.first);
            if (it == merged.end() || it->second < e.second)
                merged[e.first] = e.second;
        }
        ByteWriter w;
        w.u32(kAccessIndexVersion);
        w.u64(merged.size());
        for (const auto &e : merged) {
            w.str(e.first);
            w.i64(e.second);
        }
        const std::string path = dir + "/" + kAccessIndexName;
        const std::string tmp =
            path + ".tmp." + std::to_string(::getpid());
        std::ofstream out(tmp, std::ios::binary);
        if (!out) {
            // Unwritable dir: drop the touches (mtime fallback).
            return;
        }
        out.write(w.bytes().data(),
                  static_cast<std::streamsize>(w.bytes().size()));
        out.close();
        if (!out || std::rename(tmp.c_str(), path.c_str()) != 0)
            std::remove(tmp.c_str());
    }

    std::mutex flushMu_; ///< taken before mu_, never after
    std::mutex mu_;
    std::map<std::string, Buffer> buffers_;
};

} // namespace

bool
isEntryFileName(const std::string &name)
{
    if (isTempFileName(name))
        return false;
    for (const char *suffix : kEntrySuffixes)
        if (hasSuffix(name, suffix))
            return true;
    return false;
}

bool
isTempFileName(const std::string &name)
{
    return name.find(".tmp.") != std::string::npos;
}

bool
isLeaseFileName(const std::string &name)
{
    return !isTempFileName(name) && hasSuffix(name, ".lease");
}

std::string
leaseNameFor(const std::string &entry_name)
{
    const size_t dot = entry_name.rfind('.');
    if (dot == std::string::npos)
        return entry_name + ".lease";
    return entry_name.substr(0, dot) + ".lease";
}

std::vector<std::string>
listStoreSubdirs(const std::string &root)
{
    std::vector<std::string> out;
    DIR *d = ::opendir(root.c_str());
    if (!d)
        return out;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name == "." || name == ".." || name == kQuarantineDirName)
            continue;
        struct stat st;
        if (::stat((root + "/" + name).c_str(), &st) == 0 &&
            S_ISDIR(st.st_mode))
            out.push_back(name);
    }
    ::closedir(d);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::string>
listDirFiles(const std::string &dir)
{
    std::vector<std::string> out;
    DIR *d = ::opendir(dir.c_str());
    if (!d)
        return out;
    while (struct dirent *ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name == "." || name == "..")
            continue;
        struct stat st;
        if (::stat((dir + "/" + name).c_str(), &st) == 0 &&
            S_ISREG(st.st_mode))
            out.push_back(name);
    }
    ::closedir(d);
    return out;
}

uint64_t
fileSizeOf(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<uint64_t>(st.st_size);
}

int64_t
fileMtimeMs(const std::string &path)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return 0;
    return static_cast<int64_t>(st.st_mtime) * 1000;
}

bool
readStoreEntry(const std::string &dir, const std::string &name,
               uint32_t version, const std::string &key,
               std::string *payload, StoreCounters *counters)
{
    if (!readEntryFile(dir + "/" + name, version, key, payload,
                       counters))
        return false;
    recordAccess(dir, name);
    return true;
}

bool
storeEntryExists(const std::string &dir, const std::string &name,
                 uint32_t version, const std::string &key,
                 StoreCounters *counters)
{
    if (!readEntryHeader(dir + "/" + name, version, key, counters))
        return false;
    recordAccess(dir, name);
    return true;
}

bool
updateStoreEntry(
    const std::string &dir, const std::string &name, uint32_t version,
    const std::string &key,
    const std::function<const std::string &(const std::string *stored)>
        &update,
    StoreCounters *counters)
{
    const std::string path = dir + "/" + name;
    std::string on_disk, stored_key, stored;
    const bool present = readWholeFile(path, &on_disk);
    if (present && counters)
        counters->read(on_disk.size());
    const bool valid =
        present && parseEntryBlob(on_disk, version, &stored_key, &stored) &&
        stored_key == key;
    const std::string &payload = update(valid ? &stored : nullptr);
    // The file is byte for byte the blob writeEntryFile() would
    // publish exactly when it parsed to this key and payload with a
    // checksum trailer (a legacy entry is one trailer short): no
    // second blob to build, no second checksum pass.
    if (valid && payload == stored &&
        on_disk.size() ==
            key.size() + payload.size() + kEntryFramingBytes) {
        if (counters)
            counters->skippedWrite();
        recordAccess(dir, name);
        return true;
    }
    return writeEntryFile(path, version, key, payload, counters);
}

bool
writeStoreEntry(const std::string &dir, const std::string &name,
                uint32_t version, const std::string &key,
                const std::string &payload, StoreCounters *counters)
{
    return updateStoreEntry(
        dir, name, version, key,
        [&payload](const std::string *) -> const std::string & {
            return payload;
        },
        counters);
}

void
recordAccess(const std::string &dir, const std::string &name)
{
    AccessTracker::instance().touch(dir, name);
}

void
flushAccessIndexes()
{
    AccessTracker::instance().flushAll();
}

void
loadAccessIndex(const std::string &dir,
                std::map<std::string, int64_t> *out)
{
    loadAccessIndexFile(dir, out);
    AccessTracker::instance().merge(dir, out);
}

uint64_t
StoreUsage::entries() const
{
    uint64_t n = 0;
    for (const auto &e : dirs)
        n += e.second.entries;
    return n;
}

uint64_t
StoreUsage::liveBytes() const
{
    uint64_t n = 0;
    for (const auto &e : dirs)
        n += e.second.liveBytes;
    return n;
}

uint64_t
StoreUsage::leases() const
{
    uint64_t n = 0;
    for (const auto &e : dirs)
        n += e.second.leases;
    return n;
}

uint64_t
StoreUsage::quarantined() const
{
    uint64_t n = 0;
    for (const auto &e : dirs)
        n += e.second.quarantined;
    return n;
}

StoreUsage
scanStoreUsage(const std::string &root)
{
    StoreUsage usage;
    for (const std::string &sub : listStoreSubdirs(root)) {
        const std::string dir = root + "/" + sub;
        DirUsage du;
        for (const std::string &name : listDirFiles(dir)) {
            if (isTempFileName(name)) {
                ++du.tempFiles;
            } else if (isLeaseFileName(name)) {
                ++du.leases;
            } else if (isEntryFileName(name)) {
                ++du.entries;
                du.liveBytes += fileSizeOf(dir + "/" + name);
            }
        }
        for (const std::string &name :
             listDirFiles(dir + "/" + kQuarantineDirName))
            (void)name, ++du.quarantined;
        usage.dirs[sub] = du;
    }
    return usage;
}

namespace {

void
appendUsageField(std::string *out, const std::string &indent,
                 const char *name, uint64_t value, bool last)
{
    char line[128];
    std::snprintf(line, sizeof(line), "%s  \"%s\": %llu%s\n",
                  indent.c_str(), name,
                  static_cast<unsigned long long>(value),
                  last ? "" : ",");
    out->append(line);
}

std::string
dirUsageJson(const DirUsage &du, const std::string &indent)
{
    std::string out = "{\n";
    appendUsageField(&out, indent, "entries", du.entries, false);
    appendUsageField(&out, indent, "live_bytes", du.liveBytes, false);
    appendUsageField(&out, indent, "leases", du.leases, false);
    appendUsageField(&out, indent, "temp_files", du.tempFiles, false);
    appendUsageField(&out, indent, "quarantined", du.quarantined,
                     true);
    out += indent + "}";
    return out;
}

} // namespace

std::string
storeUsageJson(const StoreUsage &usage, const std::string &indent)
{
    const std::string inner = indent + "  ";
    std::string out = "{\n";
    for (const auto &e : usage.dirs) {
        out += inner + "\"" + e.first + "\": " +
               dirUsageJson(e.second, inner) + ",\n";
    }
    out += inner + "\"entries\": " + std::to_string(usage.entries()) +
           ",\n";
    out += inner + "\"live_bytes\": " +
           std::to_string(usage.liveBytes()) + ",\n";
    out += inner + "\"leases\": " + std::to_string(usage.leases()) +
           ",\n";
    out += inner + "\"quarantined\": " +
           std::to_string(usage.quarantined()) + "\n";
    out += indent + "}";
    return out;
}

} // namespace store
} // namespace gpuperf
