#include "store/lifecycle/gc.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "store/lease.h"
#include "store/lifecycle/lifecycle.h"

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

/** One evictable entry file. */
struct Candidate
{
    std::string sub;  ///< store subdirectory (e.g. "profiles")
    std::string name; ///< entry filename
    uint64_t bytes = 0;
    int64_t lastMs = 0;
};

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
GcReport::json(const std::string &indent) const
{
    std::string out = "{\n";
    appendJsonField(&out, indent, "scanned", scanned, false);
    appendJsonField(&out, indent, "evicted", evicted, false);
    appendJsonField(&out, indent, "evicted_bytes", evictedBytes,
                    false);
    appendJsonField(&out, indent, "kept_leased", keptLeased, false);
    appendJsonField(&out, indent, "kept_young", keptYoung, false);
    appendJsonField(&out, indent, "dirs_skipped_busy",
                    dirsSkippedBusy, false);
    appendJsonField(&out, indent, "live_bytes_before",
                    liveBytesBefore, false);
    appendJsonField(&out, indent, "live_bytes_after", liveBytesAfter,
                    false);
    out += indent + "  \"ok\": " + (ok ? "true" : "false") + "\n";
    out += indent + "}";
    return out;
}

GcReport
runGc(const std::string &root, const GcOptions &opts,
      StoreCounters *counters)
{
    GcReport report;
    const int64_t now = wallClockMs();

    // This process's buffered recency must be on disk before the scan
    // reads the sidecars, or a hot entry could look months idle.
    flushAccessIndexes();

    // Gather candidates across every subdirectory. Entries that must
    // never be evicted (fresh lease, under min-age) still count
    // toward live bytes — a budget met only by evicting in-flight
    // work is simply not met this sweep.
    std::vector<Candidate> evictable;
    uint64_t protected_bytes = 0;
    for (const std::string &sub : listStoreSubdirs(root)) {
        const std::string dir = root + "/" + sub;
        std::map<std::string, int64_t> access;
        loadAccessIndex(dir, &access);
        for (const std::string &name : listDirFiles(dir)) {
            if (!isEntryFileName(name))
                continue;
            Candidate c;
            c.sub = sub;
            c.name = name;
            c.bytes = fileSizeOf(dir + "/" + name);
            c.lastMs = fileMtimeMs(dir + "/" + name);
            auto it = access.find(c.name);
            if (it != access.end() && it->second > c.lastMs)
                c.lastMs = it->second;
            ++report.scanned;
            if (leaseFresh(dir + "/" + leaseNameFor(c.name))) {
                ++report.keptLeased;
                protected_bytes += c.bytes;
                continue;
            }
            if (now - c.lastMs < opts.minAgeMs) {
                ++report.keptYoung;
                protected_bytes += c.bytes;
                continue;
            }
            evictable.push_back(std::move(c));
        }
    }

    uint64_t evictable_bytes = 0;
    for (const Candidate &c : evictable)
        evictable_bytes += c.bytes;
    report.liveBytesBefore = protected_bytes + evictable_bytes;

    // Selection: the age pass takes everything idle past maxAgeMs;
    // the size pass then walks the remainder oldest-access-first
    // until the whole root fits the budget.
    std::sort(evictable.begin(), evictable.end(),
              [](const Candidate &a, const Candidate &b) {
                  if (a.lastMs != b.lastMs)
                      return a.lastMs < b.lastMs;
                  if (a.sub != b.sub)
                      return a.sub < b.sub;
                  return a.name < b.name;
              });
    std::vector<Candidate> victims;
    uint64_t remaining = report.liveBytesBefore;
    for (Candidate &c : evictable) {
        const bool too_old =
            opts.maxAgeMs > 0 && now - c.lastMs > opts.maxAgeMs;
        const bool over_budget =
            opts.maxBytes > 0 && remaining > opts.maxBytes;
        if (!too_old && !over_budget)
            continue;
        remaining -= c.bytes;
        victims.push_back(std::move(c));
    }

    for (const Candidate &c : victims) {
        report.evicted += 1;
        report.evictedBytes += c.bytes;
    }
    report.liveBytesAfter = report.liveBytesBefore;

    if (opts.dryRun || victims.empty()) {
        if (!opts.dryRun)
            report.liveBytesAfter = remaining;
        return report;
    }

    // Apply per directory under the janitor lease, so two GCs (or
    // this GC and an older build's compactor) never sweep one
    // directory at once. A busy directory keeps its victims this
    // sweep.
    std::map<std::string, std::vector<Candidate>> by_dir;
    for (Candidate &c : victims)
        by_dir[c.sub].push_back(std::move(c));
    for (auto &e : by_dir) {
        const std::string dir = root + "/" + e.first;
        Lease janitor = tryAcquireLease(dir + "/" + kJanitorLeaseName,
                                        kLeaseStaleAfterMsDefault,
                                        counters);
        if (!janitor.held()) {
            ++report.dirsSkippedBusy;
            for (const Candidate &c : e.second) {
                report.evicted -= 1;
                report.evictedBytes -= c.bytes;
            }
            continue;
        }
        // A victim already gone (a concurrent verify quarantined
        // it) is evicted all the same.
        for (const Candidate &c : e.second)
            if (::unlink((dir + "/" + c.name).c_str()) != 0 &&
                errno != ENOENT)
                report.ok = false;
    }
    report.liveBytesAfter =
        report.liveBytesBefore - report.evictedBytes;
    return report;
}

} // namespace store
} // namespace gpuperf
