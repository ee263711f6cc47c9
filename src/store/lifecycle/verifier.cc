#include "store/lifecycle/verifier.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>

#include "store/lifecycle/lifecycle.h"
#include "store/serializer.h"

namespace gpuperf {
namespace store {

namespace {

int64_t
wallClockMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
}

/** A segment file an older build's compactor wrote (pack-*.seg). */
bool
isLegacySegmentName(const std::string &name)
{
    static const std::string kPrefix = "pack-", kSuffix = ".seg";
    return name.size() >= kPrefix.size() + kSuffix.size() &&
           name.compare(0, kPrefix.size(), kPrefix) == 0 &&
           name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                        kSuffix) == 0;
}

/**
 * Validate one entry blob whose format version is whatever the blob
 * SAYS it is. The verifier scans entries of every store and version
 * side by side; an entry of an older format version is stale, not
 * corrupt (stores miss on it, GC ages it out), so the scan checks
 * structure and checksum against the blob's own declared version.
 */
bool
entryBlobValid(const std::string &blob)
{
    if (blob.size() < 8 + 4)
        return false;
    ByteReader r(blob);
    (void)r.u64(); // magic re-checked by parseEntryBlob
    const uint32_t declared = r.u32();
    std::string key, payload;
    return parseEntryBlob(blob, declared, &key, &payload);
}

/**
 * Move @p path into dir/quarantine/, keeping the filename (a stamp
 * suffix resolves a collision with an earlier quarantine of the same
 * name). False when the move failed.
 */
bool
quarantineFile(const std::string &dir, const std::string &name)
{
    const std::string qdir = dir + "/" + kQuarantineDirName;
    if (!makeDirs(qdir))
        return false;
    const std::string from = dir + "/" + name;
    std::string to = qdir + "/" + name;
    if (std::rename(from.c_str(), to.c_str()) == 0)
        return true;
    to += "." + std::to_string(wallClockMs());
    return std::rename(from.c_str(), to.c_str()) == 0;
}

void
appendJsonField(std::string *out, const std::string &indent,
                const char *name, uint64_t value, bool last)
{
    char line[128];
    std::snprintf(line, sizeof(line), "%s  \"%s\": %llu%s\n",
                  indent.c_str(), name,
                  static_cast<unsigned long long>(value),
                  last ? "" : ",");
    out->append(line);
}

} // namespace

std::string
VerifyReport::json(const std::string &indent) const
{
    std::string out = "{\n";
    appendJsonField(&out, indent, "scanned_entries", scannedEntries,
                    false);
    appendJsonField(&out, indent, "scanned_bytes", scannedBytes,
                    false);
    appendJsonField(&out, indent, "corrupt_entries", corruptEntries,
                    false);
    appendJsonField(&out, indent, "quarantined", quarantined, false);
    appendJsonField(&out, indent, "legacy_segments", legacySegments,
                    false);
    appendJsonField(&out, indent, "stale_leases", staleLeases, false);
    appendJsonField(&out, indent, "stale_temps", staleTemps, false);
    out += indent + "  \"ok\": " + (ok ? "true" : "false") + ",\n";
    out += indent +
           "  \"clean\": " + (clean() ? "true" : "false") + "\n";
    out += indent + "}";
    return out;
}

VerifyReport
runVerify(const std::string &root, const VerifyOptions &opts,
          StoreCounters *counters)
{
    VerifyReport report;
    const int64_t now = wallClockMs();

    for (const std::string &sub : listStoreSubdirs(root)) {
        const std::string dir = root + "/" + sub;

        // Entries, debris and markers in one directory walk.
        for (const std::string &name : listDirFiles(dir)) {
            const std::string path = dir + "/" + name;
            if (isTempFileName(name)) {
                // An in-flight atomic write lives milliseconds; a
                // temp past the stale age belongs to a dead writer.
                if (now - fileMtimeMs(path) > opts.tempStaleMs) {
                    ++report.staleTemps;
                    if (opts.fix && ::unlink(path.c_str()) != 0)
                        report.ok = false;
                }
                continue;
            }
            if (isLeaseFileName(name)) {
                if (!leaseFresh(path, opts.leaseStaleMs)) {
                    ++report.staleLeases;
                    // A failed unlink of a since-released marker is
                    // fine; one that is still there is not.
                    if (opts.fix && ::unlink(path.c_str()) != 0 &&
                        errno != ENOENT)
                        report.ok = false;
                }
                continue;
            }
            if (isLegacySegmentName(name)) {
                ++report.legacySegments;
                if (opts.fix && ::unlink(path.c_str()) != 0 &&
                    errno != ENOENT)
                    report.ok = false;
                continue;
            }
            if (!isEntryFileName(name))
                continue;
            ++report.scannedEntries;
            std::string blob;
            const bool read_ok = readWholeFile(path, &blob);
            report.scannedBytes += blob.size();
            if (counters)
                counters->read(blob.size());
            if (read_ok && entryBlobValid(blob))
                continue;
            ++report.corruptEntries;
            if (!opts.fix)
                continue;
            if (quarantineFile(dir, name))
                ++report.quarantined;
            else
                report.ok = false;
        }
    }
    return report;
}

} // namespace store
} // namespace gpuperf
