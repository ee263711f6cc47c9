#include "store/lifecycle/compactor.h"

#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common/logging.h"
#include "store/lease.h"
#include "store/lifecycle/lifecycle.h"
#include "store/lifecycle/segment.h"

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

bool
readWholeFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out->assign((std::istreambuf_iterator<char>(in)),
                std::istreambuf_iterator<char>());
    return in.good() || in.eof();
}

/** A loose file queued for folding, with its pre-fold identity. */
struct FoldedFile
{
    std::string name;
    uint64_t size = 0;
    int64_t mtimeMs = 0;
};

bool
statIdentity(const std::string &path, uint64_t *size, int64_t *mtime)
{
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return false;
    *size = static_cast<uint64_t>(st.st_size);
    // Nanosecond mtime: a .bench merge rewritten within the same
    // second (same size, same st_mtime) must still read as "changed",
    // or the unlink below would eat the newer merge.
    *mtime = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
             static_cast<int64_t>(st.st_mtim.tv_nsec);
    return true;
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
CompactReport::json(const std::string &indent) const
{
    std::string out = "{\n";
    appendJsonField(&out, indent, "folded_entries", foldedEntries,
                    false);
    appendJsonField(&out, indent, "folded_bytes", foldedBytes, false);
    appendJsonField(&out, indent, "segments_merged", segmentsMerged,
                    false);
    appendJsonField(&out, indent, "segments_written", segmentsWritten,
                    false);
    appendJsonField(&out, indent, "kept_loose", keptLoose, false);
    appendJsonField(&out, indent, "dirs_skipped_busy",
                    dirsSkippedBusy, false);
    out += indent + "  \"ok\": " + (ok ? "true" : "false") + "\n";
    out += indent + "}";
    return out;
}

CompactReport
runCompact(const std::string &root, const CompactOptions &opts,
           StoreCounters *counters)
{
    CompactReport report;
    const int64_t now = wallClockMs();

    for (const std::string &sub : listStoreSubdirs(root)) {
        const std::string dir = root + "/" + sub;

        // Eligible loose entries: not leased, not fresh off a writer.
        std::vector<std::string> loose;
        for (const std::string &name : listDirFiles(dir)) {
            if (!isEntryFileName(name))
                continue;
            if (leaseFresh(dir + "/" + leaseNameFor(name)) ||
                now - fileMtimeMs(dir + "/" + name) < opts.minAgeMs) {
                ++report.keptLoose;
                continue;
            }
            loose.push_back(name);
        }
        const std::vector<std::string> segments =
            listSegmentFiles(dir);
        const bool merge_segments =
            opts.force || segments.size() > opts.maxSegments;
        if (!opts.force && loose.size() < opts.minLooseEntries &&
            !merge_segments) {
            report.keptLoose += loose.size();
            continue;
        }
        if (loose.empty() && !merge_segments)
            continue;

        Lease janitor = tryAcquireLease(dir + "/" + kCompactLeaseName,
                                        kLeaseStaleAfterMsDefault,
                                        counters);
        if (!janitor.held()) {
            ++report.dirsSkippedBusy;
            continue;
        }

        SegmentWriter writer;
        // Old segments first (oldest to newest), then loose files:
        // SegmentWriter::add keeps the LAST version of a duplicated
        // name, which is exactly the loose-shadows-segment rule the
        // readers apply.
        std::vector<std::string> merged_segments;
        if (merge_segments) {
            for (const std::string &seg : segments) {
                const std::string seg_path = dir + "/" + seg;
                std::vector<SegmentEntry> index;
                if (!readSegmentIndex(seg_path, &index))
                    continue; // torn: verify quarantines it, not us
                bool whole = true;
                std::vector<std::pair<std::string, std::string>>
                    slices;
                for (const SegmentEntry &e : index) {
                    std::string blob;
                    if (!readSegmentSlice(seg_path, e.offset,
                                          e.length, &blob)) {
                        whole = false;
                        break;
                    }
                    slices.emplace_back(e.name, std::move(blob));
                }
                if (!whole)
                    continue;
                for (auto &s : slices)
                    writer.add(s.first, s.second);
                merged_segments.push_back(seg_path);
            }
        }
        std::vector<FoldedFile> folded;
        for (const std::string &name : loose) {
            const std::string path = dir + "/" + name;
            FoldedFile f;
            f.name = name;
            if (!statIdentity(path, &f.size, &f.mtimeMs))
                continue; // vanished (GC'd) mid-walk
            std::string blob;
            if (!readWholeFile(path, &blob) ||
                blob.size() != f.size) {
                ++report.keptLoose;
                continue;
            }
            if (counters)
                counters->read(blob.size());
            writer.add(name, blob);
            folded.push_back(std::move(f));
        }

        if (writer.count() == 0)
            continue;
        if (writer.publish(dir, counters).empty()) {
            report.ok = false;
            continue; // nothing visible changed; loose files stand
        }
        ++report.segmentsWritten;

        // The fold is durable; now retire the sources. A loose file
        // whose identity changed since we read it was republished
        // mid-fold (a .bench merge, a duplicate writer) — its fresher
        // loose version must keep shadowing our stale slice.
        for (const FoldedFile &f : folded) {
            const std::string path = dir + "/" + f.name;
            uint64_t size = 0;
            int64_t mtime = 0;
            if (!statIdentity(path, &size, &mtime) ||
                size != f.size || mtime != f.mtimeMs) {
                ++report.keptLoose;
                continue;
            }
            if (::unlink(path.c_str()) == 0) {
                ++report.foldedEntries;
                report.foldedBytes += f.size;
            }
        }
        for (const std::string &seg_path : merged_segments) {
            if (::unlink(seg_path.c_str()) == 0)
                ++report.segmentsMerged;
        }
        invalidateSegmentCatalog(dir);
    }
    return report;
}

} // namespace store
} // namespace gpuperf
