/**
 * @file
 * Store lifecycle tests (src/store/lifecycle/): corrupt entries read
 * as misses and are quarantined by the verifier, never crash a
 * reader; segment files older builds compacted into are read by
 * nothing and removed by the verifier; a save skips only a file that
 * already holds its exact bytes, and the skip counts as an access;
 * GC evicts to its size/age budget in LRU order without ever touching
 * a leased or in-flight entry, on an access index that concurrent
 * flushes never thin out; the janitors (GC + verifier) racing a live
 * batch leave its response bit-identical to an undisturbed run; and
 * the admin reports keep their keys.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>
#include <utime.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "api/codecs.h"
#include "api/endpoint.h"
#include "api/request.h"
#include "api/server.h"
#include "api/service.h"
#include "common/fnv.h"
#include "model/session.h"
#include "store/lifecycle/gc.h"
#include "store/lifecycle/lifecycle.h"
#include "store/lifecycle/verifier.h"
#include "store/serializer.h"
#include "store/stats.h"

namespace gpuperf {
namespace {

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "gpuperf-lc-" +
                            name + "-" + std::to_string(::getpid());
    // Process-unique roots; a rerun in the same process reuses them,
    // so tests scrub their own root first.
    (void)std::system(("rm -rf " + dir).c_str());
    return dir;
}

std::string
readWhole(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string s((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
    return s;
}

bool
writeWhole(const std::string &path, const std::string &data)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    return static_cast<bool>(out);
}

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

void
backdateMtime(const std::string &path, int64_t seconds_ago)
{
    struct utimbuf times;
    times.actime = ::time(nullptr) - seconds_ago;
    times.modtime = times.actime;
    ASSERT_EQ(::utime(path.c_str(), &times), 0) << path;
}

constexpr uint32_t kTestVersion = 7;

/** A store root with one "profiles" subdir of synthetic entries. */
std::string
syntheticRoot(const std::string &name, int entries,
              size_t payload_bytes, std::vector<std::string> *names)
{
    const std::string root = freshDir(name);
    const std::string dir = root + "/profiles";
    EXPECT_TRUE(store::makeDirs(dir));
    for (int i = 0; i < entries; ++i) {
        const std::string entry =
            "entry-" + std::to_string(i) + ".profile";
        const std::string payload(payload_bytes,
                                  static_cast<char>('a' + i % 26));
        EXPECT_TRUE(store::writeEntryFile(dir + "/" + entry,
                                          kTestVersion,
                                          "key-" + std::to_string(i),
                                          payload));
        if (names)
            names->push_back(entry);
    }
    return root;
}

// --- File-kind classification and checksum framing --------------------

TEST(Lifecycle, ClassifiesEveryStoreCitizen)
{
    for (const char *entry :
         {"a.profile", "a.calibration", "a.bench", "a.timing", "a.obs",
          "a.result"})
        EXPECT_TRUE(store::isEntryFileName(entry)) << entry;
    EXPECT_FALSE(store::isEntryFileName("a.lease"));
    EXPECT_FALSE(store::isEntryFileName("a.profile.tmp.123.4"))
        << "in-flight temp files are not entries";
    EXPECT_FALSE(store::isEntryFileName("pack-0001-2-3.seg"));

    EXPECT_TRUE(store::isTempFileName("a.profile.tmp.123.4"));
    EXPECT_FALSE(store::isTempFileName("a.profile"));

    EXPECT_TRUE(store::isLeaseFileName("a.lease"));
    EXPECT_STREQ(store::kJanitorLeaseName, "compact.lease")
        << "older builds' compactors take this name: GC must too";
    EXPECT_TRUE(store::isLeaseFileName(store::kJanitorLeaseName));
    EXPECT_EQ(store::leaseNameFor("saxpy-0123.profile"),
              "saxpy-0123.lease");
    EXPECT_EQ(store::leaseNameFor("ewma-0123.obs"), "ewma-0123.lease");
}

TEST(Checksum, LegacyTrailerlessEntriesStayReadable)
{
    const std::string root = freshDir("legacy");
    ASSERT_TRUE(store::makeDirs(root));
    const std::string path = root + "/legacy.profile";

    // The pre-checksum format: magic + version + key + payload, no
    // trailer. Old stores on shared disks still hold these.
    store::ByteWriter w;
    w.u64(0x53465245'50555047ull);
    w.u32(kTestVersion);
    w.str("legacy-key");
    const std::string payload = "legacy payload bytes";
    w.u64(payload.size());
    ASSERT_TRUE(writeWhole(path, w.bytes() + payload));

    std::string got;
    EXPECT_TRUE(store::readEntryFile(path, kTestVersion, "legacy-key",
                                     &got));
    EXPECT_EQ(got, payload);
    EXPECT_TRUE(store::readEntryHeader(path, kTestVersion,
                                       "legacy-key"));
}

TEST(Checksum, TrailerCatchesSilentPayloadCorruption)
{
    const std::string root = freshDir("bitflip");
    ASSERT_TRUE(store::makeDirs(root));
    const std::string path = root + "/entry.profile";
    const std::string payload(256, 'x');
    ASSERT_TRUE(store::writeEntryFile(path, kTestVersion, "k",
                                      payload));

    // Flip one payload bit on disk. Every length still matches, so
    // only the checksum trailer can catch it.
    std::string bytes = readWhole(path);
    ASSERT_GT(bytes.size(), store::kChecksumTrailerBytes + 32);
    bytes[bytes.size() - store::kChecksumTrailerBytes - 8] ^= 0x01;
    ASSERT_TRUE(writeWhole(path, bytes));

    std::string got;
    EXPECT_FALSE(store::readEntryFile(path, kTestVersion, "k", &got))
        << "a bit-flipped payload must read as a miss, not as data";
}

// --- Store writes: skipped only when the bytes are already there ------

ino_t
inodeOf(const std::string &path)
{
    struct stat st;
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return st.st_ino;
}

TEST(Lifecycle, WriteStoreEntrySkipsOnlyByteIdenticalEntries)
{
    const std::string dir = freshDir("write-skip");
    ASSERT_TRUE(store::makeDirs(dir));
    const std::string name = "entry.result";
    const std::string path = dir + "/" + name;
    const std::string payload(300, 'r');
    const std::string blob =
        store::encodeEntryBlob(kTestVersion, "k", payload);
    ASSERT_EQ(blob.size(), 1 + payload.size() + store::kEntryFramingBytes);
    store::StoreCounters counters;

    ASSERT_TRUE(store::writeStoreEntry(dir, name, kTestVersion, "k",
                                       payload, &counters));
    EXPECT_EQ(counters.snapshot().writes, 1u);
    EXPECT_EQ(counters.snapshot().bytesRead, 0u)
        << "an absent entry is written without a compare";
    const ino_t first = inodeOf(path);

    // The same bytes again: nothing is published.
    ASSERT_TRUE(store::writeStoreEntry(dir, name, kTestVersion, "k",
                                       payload, &counters));
    store::StoreStats s = counters.snapshot();
    EXPECT_EQ(s.writes, 1u);
    EXPECT_EQ(s.writesSkipped, 1u);
    EXPECT_EQ(s.bytesWritten, blob.size());
    EXPECT_EQ(s.bytesRead, blob.size());
    EXPECT_EQ(inodeOf(path), first) << "an identical save renamed";

    // A different payload under the same key is a recompute whose
    // bytes differ: it replaces the entry.
    const std::string other(300, 'R');
    ASSERT_TRUE(store::writeStoreEntry(dir, name, kTestVersion, "k",
                                       other, &counters));
    EXPECT_EQ(counters.snapshot().writes, 2u);
    std::string got;
    ASSERT_TRUE(store::readEntryFile(path, kTestVersion, "k", &got));
    EXPECT_EQ(got, other);

    // A damaged entry (trailing garbage) is replaced by the clean blob.
    ASSERT_TRUE(writeWhole(path, blob + "GARBAGE"));
    ASSERT_TRUE(store::writeStoreEntry(dir, name, kTestVersion, "k",
                                       payload, &counters));
    EXPECT_EQ(counters.snapshot().writes, 3u);
    EXPECT_EQ(readWhole(path), blob);

    // A legacy trailer-less entry with the same payload reads fine,
    // but is not the blob: it is upgraded with the checksum trailer.
    ASSERT_TRUE(writeWhole(
        path, blob.substr(0, blob.size() - store::kChecksumTrailerBytes)));
    ASSERT_TRUE(store::readEntryFile(path, kTestVersion, "k", &got));
    ASSERT_TRUE(store::writeStoreEntry(dir, name, kTestVersion, "k",
                                       payload, &counters));
    EXPECT_EQ(counters.snapshot().writes, 4u);
    EXPECT_EQ(counters.snapshot().writesSkipped, 1u);
    EXPECT_EQ(readWhole(path), blob);
}

// --- Corruption injection: reads degrade, verify quarantines ----------

TEST(Verifier, QuarantinesEveryCorruptionShapeAndKeepsValidEntries)
{
    const std::string root = freshDir("verify");
    const std::string dir = root + "/profiles";
    ASSERT_TRUE(store::makeDirs(dir));

    const std::string payload(512, 'p');
    ASSERT_TRUE(store::writeEntryFile(dir + "/good.profile",
                                      kTestVersion, "good", payload));

    // Four corruption shapes, all with entry suffixes so readers and
    // the verifier actually consider them.
    ASSERT_TRUE(writeWhole(dir + "/zero.profile", ""));
    ASSERT_TRUE(writeWhole(dir + "/magic.result",
                           std::string(64, 'Z')));
    const std::string good_bytes =
        readWhole(dir + "/good.profile");
    ASSERT_TRUE(writeWhole(dir + "/trunc.timing",
                           good_bytes.substr(0, good_bytes.size() / 2)));
    std::string flipped = good_bytes;
    flipped[flipped.size() - store::kChecksumTrailerBytes - 5] ^= 0x40;
    ASSERT_TRUE(writeWhole(dir + "/flip.obs", flipped));

    // Every corrupt shape is a miss for a reader, never an abort.
    for (const char *name :
         {"zero.profile", "magic.result", "trunc.timing", "flip.obs"}) {
        std::string got;
        EXPECT_FALSE(store::readStoreEntry(dir, name, kTestVersion,
                                           "good", &got))
            << name;
    }

    const store::VerifyReport report = store::runVerify(root, {});
    EXPECT_TRUE(report.ok);
    EXPECT_FALSE(report.clean());
    EXPECT_EQ(report.corruptEntries, 4u);
    EXPECT_EQ(report.quarantined, 4u);

    // The valid entry survives in place; the corpses moved aside.
    std::string got;
    EXPECT_TRUE(store::readStoreEntry(dir, "good.profile",
                                      kTestVersion, "good", &got));
    EXPECT_EQ(got, payload);
    for (const char *name :
         {"zero.profile", "magic.result", "trunc.timing", "flip.obs"}) {
        EXPECT_FALSE(fileExists(dir + "/" + name)) << name;
        EXPECT_TRUE(fileExists(dir + "/" +
                               store::kQuarantineDirName + "/" + name))
            << name;
    }

    // A second scan of the repaired store is clean.
    const store::VerifyReport again = store::runVerify(root, {});
    EXPECT_TRUE(again.clean());
    EXPECT_EQ(again.scannedEntries, 1u);
}

TEST(Verifier, SweepsStaleTempsAndLeasesButSparesFreshOnes)
{
    const std::string root = freshDir("sweep");
    const std::string dir = root + "/timing";
    ASSERT_TRUE(store::makeDirs(dir));

    // A dead writer's temp (old) and a live writer's temp (fresh).
    ASSERT_TRUE(writeWhole(dir + "/a.obs.tmp.999.0", "orphan"));
    backdateMtime(dir + "/a.obs.tmp.999.0", 3600);
    ASSERT_TRUE(writeWhole(dir + "/b.obs.tmp.999.1", "in-flight"));

    // A stale lease (hostname-less, governed by age alone) and a
    // fresh one.
    ASSERT_TRUE(writeWhole(dir + "/stale.lease", "999 1 \n"));
    const store::Lease fresh =
        store::tryAcquireLease(dir + "/fresh.lease");
    ASSERT_TRUE(fresh.held());

    const store::VerifyReport report = store::runVerify(root, {});
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.staleTemps, 1u);
    EXPECT_EQ(report.staleLeases, 1u);
    EXPECT_FALSE(fileExists(dir + "/a.obs.tmp.999.0"));
    EXPECT_TRUE(fileExists(dir + "/b.obs.tmp.999.1"))
        << "a fresh temp belongs to a live writer";
    EXPECT_FALSE(fileExists(dir + "/stale.lease"));
    EXPECT_TRUE(fileExists(dir + "/fresh.lease"));
}

/**
 * A segment file as older builds' compactors wrote it: the entry
 * blobs back to back, an index (u32 count; per slice str name, u64
 * offset, u64 length), then a 32-byte footer (u64 index offset, u64
 * index length, u64 fnv1a64 of the index, u64 segment magic).
 */
std::string
legacySegmentBytes(const std::string &name, const std::string &blob)
{
    store::ByteWriter index;
    index.u32(1);
    index.str(name);
    index.u64(0);
    index.u64(blob.size());
    store::ByteWriter footer;
    footer.u64(blob.size());
    footer.u64(index.bytes().size());
    footer.u64(fnv1a64(index.bytes()));
    footer.u64(0x47465245'50555047ull);
    return blob + index.bytes() + footer.bytes();
}

TEST(Verifier, RemovesLegacySegmentFilesAndNothingReadsThem)
{
    std::vector<std::string> names;
    const std::string root =
        syntheticRoot("legacy-seg", 3, 200, &names);
    const std::string dir = root + "/profiles";

    // An older build folded "folded.profile" into a segment and
    // unlinked the loose file: the name now exists only in there.
    const std::string folded = "folded.profile";
    ASSERT_TRUE(store::writeEntryFile(dir + "/" + folded, kTestVersion,
                                      "folded-key", "folded payload"));
    const std::string seg = dir + "/pack-0000018f2a6b3c00-42-0.seg";
    ASSERT_TRUE(writeWhole(
        seg, legacySegmentBytes(folded, readWhole(dir + "/" + folded))));
    ASSERT_EQ(::unlink((dir + "/" + folded).c_str()), 0);

    std::string payload;
    EXPECT_FALSE(store::readStoreEntry(dir, folded, kTestVersion,
                                       "folded-key", &payload))
        << "a store read opens the entry file and nothing else";
    EXPECT_FALSE(store::storeEntryExists(dir, folded, kTestVersion,
                                         "folded-key"));

    store::VerifyOptions report_only;
    report_only.fix = false;
    const store::VerifyReport counted =
        store::runVerify(root, report_only);
    EXPECT_TRUE(counted.ok);
    EXPECT_TRUE(counted.clean()) << "a legacy segment is not corruption";
    EXPECT_EQ(counted.legacySegments, 1u);
    EXPECT_EQ(counted.scannedEntries, 3u);
    EXPECT_TRUE(fileExists(seg)) << "report-only must leave it in place";

    const store::VerifyReport fixed = store::runVerify(root, {});
    EXPECT_TRUE(fixed.ok);
    EXPECT_TRUE(fixed.clean());
    EXPECT_EQ(fixed.legacySegments, 1u);
    EXPECT_EQ(fixed.quarantined, 0u);
    EXPECT_FALSE(fileExists(seg));
    EXPECT_EQ(store::runVerify(root, {}).legacySegments, 0u);

    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(store::readStoreEntry(dir, names[i], kTestVersion,
                                          "key-" + std::to_string(i),
                                          &payload))
            << names[i];
        EXPECT_EQ(payload,
                  std::string(200, static_cast<char>('a' + i)));
    }
}

// --- GC: budget, LRU order, lease- and age-protection -----------------

TEST(Gc, EvictsLeastRecentlyUsedToTheByteBudget)
{
    std::vector<std::string> names;
    const std::string root =
        syntheticRoot("gc-budget", 8, 1000, &names);
    const std::string dir = root + "/profiles";
    const uint64_t per_entry =
        store::fileSizeOf(dir + "/" + names[0]);

    // Ages 80..10 minutes: entry-0 oldest, entry-7 newest.
    for (int i = 0; i < 8; ++i)
        backdateMtime(dir + "/" + names[i], (8 - i) * 600);

    store::GcOptions opts;
    opts.maxBytes = per_entry * 3;
    opts.minAgeMs = 0;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.evicted, 5u);
    EXPECT_LE(report.liveBytesAfter, opts.maxBytes);

    // LRU: the three NEWEST survive.
    for (int i = 0; i < 5; ++i)
        EXPECT_FALSE(fileExists(dir + "/" + names[i])) << names[i];
    for (int i = 5; i < 8; ++i)
        EXPECT_TRUE(fileExists(dir + "/" + names[i])) << names[i];
}

TEST(Gc, NeverEvictsLeasedOrYoungEntriesEvenOverBudget)
{
    std::vector<std::string> names;
    const std::string root =
        syntheticRoot("gc-lease", 4, 1000, &names);
    const std::string dir = root + "/profiles";

    // All old enough to evict — but entry-0 is leased (in flight)
    // and entry-1 is younger than the min-age guard.
    for (int i = 0; i < 4; ++i)
        backdateMtime(dir + "/" + names[i], 3600);
    const store::Lease held = store::tryAcquireLease(
        dir + "/" + store::leaseNameFor(names[0]));
    ASSERT_TRUE(held.held());
    backdateMtime(dir + "/" + names[1], 10);

    store::GcOptions opts;
    opts.maxBytes = 1; // evict everything evictable
    opts.minAgeMs = 60 * 1000;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.keptLeased, 1u);
    EXPECT_EQ(report.keptYoung, 1u);
    EXPECT_EQ(report.evicted, 2u);
    EXPECT_TRUE(fileExists(dir + "/" + names[0]))
        << "a leased entry must never be evicted";
    EXPECT_TRUE(fileExists(dir + "/" + names[1]))
        << "an entry under the min-age guard must never be evicted";
}

TEST(Gc, DryRunReportsWithoutTouchingAnything)
{
    std::vector<std::string> names;
    const std::string root = syntheticRoot("gc-dry", 4, 1000, &names);
    const std::string dir = root + "/profiles";
    for (const std::string &n : names)
        backdateMtime(dir + "/" + n, 3600);

    store::GcOptions opts;
    opts.maxBytes = 1;
    opts.minAgeMs = 0;
    opts.dryRun = true;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_EQ(report.evicted, 4u);
    for (const std::string &n : names)
        EXPECT_TRUE(fileExists(dir + "/" + n)) << n;
}

TEST(Gc, AccessIndexBeatsMtimeForRecency)
{
    std::vector<std::string> names;
    const std::string root =
        syntheticRoot("gc-access", 2, 1000, &names);
    const std::string dir = root + "/profiles";
    // entry-0 has the OLDER mtime but was just read; entry-1 looks
    // newer on disk but is cold. LRU must trust the access index.
    backdateMtime(dir + "/" + names[0], 7200);
    backdateMtime(dir + "/" + names[1], 3600);
    store::recordAccess(dir, names[0]);
    store::flushAccessIndexes();

    store::GcOptions opts;
    opts.maxBytes = store::fileSizeOf(dir + "/" + names[0]);
    opts.minAgeMs = 0;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_EQ(report.evicted, 1u);
    EXPECT_TRUE(fileExists(dir + "/" + names[0]))
        << "the just-read entry must survive";
    EXPECT_FALSE(fileExists(dir + "/" + names[1]));
}

TEST(Gc, ConcurrentAccessFlushesKeepEveryTouch)
{
    // Readers flush their directory every few hundred touches while a
    // server's GC thread flushes everything: no flush may drop
    // another's touches from the sidecar.
    const std::string dir = freshDir("access-race") + "/profiles";
    ASSERT_TRUE(store::makeDirs(dir));
    constexpr int kReaders = 4;
    constexpr int kTouchesEach = 5000;
    std::atomic<int> finished{0};
    std::thread gc_thread([&finished] {
        while (finished.load() < kReaders)
            store::flushAccessIndexes();
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < kReaders; ++t)
        readers.emplace_back([t, &dir, &finished] {
            for (int i = 0; i < kTouchesEach; ++i)
                store::recordAccess(dir, "t" + std::to_string(t) + "-" +
                                             std::to_string(i) +
                                             ".profile");
            finished.fetch_add(1);
        });
    for (std::thread &r : readers)
        r.join();
    gc_thread.join();
    store::flushAccessIndexes();

    // Every buffered touch is flushed, so this is the sidecar alone.
    std::map<std::string, int64_t> index;
    store::loadAccessIndex(dir, &index);
    EXPECT_EQ(index.size(),
              static_cast<size_t>(kReaders * kTouchesEach));
}

TEST(Gc, SkippedWriteCountsAsAnAccess)
{
    // A save the store skips leaves the old mtime in place; the GC
    // must still see the entry as just used, as it did when every
    // save rewrote the file.
    std::vector<std::string> names;
    const std::string root = syntheticRoot("gc-skip", 1, 1000, &names);
    const std::string dir = root + "/profiles";
    const std::string path = dir + "/" + names[0];
    backdateMtime(path, 7200);
    const int64_t stale_ms = store::fileMtimeMs(path);

    store::StoreCounters counters;
    ASSERT_TRUE(store::writeStoreEntry(dir, names[0], kTestVersion,
                                       "key-0", std::string(1000, 'a'),
                                       &counters));
    ASSERT_EQ(counters.snapshot().writesSkipped, 1u);
    EXPECT_EQ(store::fileMtimeMs(path), stale_ms);

    std::map<std::string, int64_t> index;
    store::loadAccessIndex(dir, &index);
    ASSERT_EQ(index.count(names[0]), 1u) << "the skip recorded no touch";
    EXPECT_GT(index[names[0]], stale_ms + 3600 * 1000);

    store::GcOptions opts;
    opts.maxAgeMs = 3600 * 1000;
    opts.minAgeMs = 0;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_EQ(report.evicted, 0u);
    EXPECT_TRUE(fileExists(path));
}

TEST(Gc, AgeBoundEvictsIdleEntriesOnly)
{
    std::vector<std::string> names;
    const std::string root = syntheticRoot("gc-age", 3, 1000, &names);
    const std::string dir = root + "/profiles";
    backdateMtime(dir + "/" + names[0], 7200);
    backdateMtime(dir + "/" + names[1], 7200);
    // names[2] keeps its fresh mtime.

    store::GcOptions opts;
    opts.maxAgeMs = 3600 * 1000;
    opts.minAgeMs = 0;
    const store::GcReport report = store::runGc(root, opts);
    EXPECT_EQ(report.evicted, 2u);
    EXPECT_TRUE(fileExists(dir + "/" + names[2]));
}

// --- Full-batch acceptance: janitors racing a live batch --------------

arch::GpuSpec
tinySpec()
{
    arch::GpuSpec tiny = arch::GpuSpec::gtx285();
    tiny.name = "GTX tiny lifecycle";
    tiny.numSms = 3;
    tiny.maxWarpsPerSm = 8;
    tiny.maxThreadsPerSm = 256;
    tiny.maxThreadsPerBlock = 256;
    tiny.validate();
    return tiny;
}

model::CalibrationTables
fakeTables()
{
    model::CalibrationTables t;
    t.maxWarps = 32;
    t.bytesPerPass = 64;
    for (int type = 0; type < arch::kNumInstrTypes; ++type) {
        t.instrThroughput[type].assign(33, 0.0);
        for (int w = 1; w <= 32; ++w)
            t.instrThroughput[type][w] =
                1e10 * std::min(1.0, w / 8.0) + type * 0.125;
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 8.0);
    return t;
}

api::AnalysisRequest
lifecycleRequest(const std::string &store_dir)
{
    api::AnalysisRequest req;
    req.jobName = "lifecycle-batch";
    req.kernels.push_back(api::KernelJob::fromRef(
        "saxpy-small", api::CaseRef{"saxpy", {8, 128}, {2.0}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "conflicted",
        api::CaseRef{"shared-conflict", {8, 128, 8, 32}, {}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "hist", api::CaseRef{"histogram", {6, 128, 8, 4}, {}}));
    req.specs.push_back(tinySpec());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0};
    req.store.storeDir = store_dir;
    req.exec.numThreads = 2;
    return req;
}

void
adoptAll(api::AnalysisService &service, const api::AnalysisRequest &req)
{
    const auto tables =
        std::make_shared<const model::CalibrationTables>(fakeTables());
    for (const arch::GpuSpec &spec : req.specs)
        service.adoptCalibration(req, spec, tables);
}

TEST(Lifecycle, JanitorsRacingALiveBatchStayBitIdentical)
{
    // The reference: an undisturbed run on its own store.
    const std::string ref_root = freshDir("race-ref");
    api::AnalysisService ref_service;
    const api::AnalysisRequest ref_req = lifecycleRequest(ref_root);
    adoptAll(ref_service, ref_req);
    const api::AnalysisResponse ref = ref_service.run(ref_req);

    // The contested store: GC under maximal byte pressure (the
    // min-age guard is the only protection for in-flight entries) and
    // a fixing verifier, both looping while the batch runs.
    const std::string root = freshDir("race-live");
    std::atomic<bool> stop{false};
    std::thread janitor([&root, &stop] {
        store::GcOptions gc;
        gc.maxBytes = 1;
        while (!stop.load()) {
            (void)store::runGc(root, gc);
            (void)store::runVerify(root, {});
        }
    });

    api::AnalysisService service;
    const api::AnalysisRequest req = lifecycleRequest(root);
    adoptAll(service, req);
    const api::AnalysisResponse first = service.run(req);
    service.reset();
    adoptAll(service, req);
    const api::AnalysisResponse second = service.run(req);
    stop.store(true);
    janitor.join();

    std::string why;
    EXPECT_TRUE(api::responsesEqual(ref, first, &why))
        << "cold run raced by janitors: " << why;
    EXPECT_TRUE(api::responsesEqual(ref, second, &why))
        << "warm run raced by janitors: " << why;

    // The contested store must still verify clean afterwards.
    const store::VerifyReport report = store::runVerify(root, {});
    EXPECT_TRUE(report.clean());
}

// --- Admin reports ----------------------------------------------------

/** The object keys of @p json in document order. */
std::vector<std::string>
jsonKeys(const std::string &json)
{
    static const std::regex key_re("\"([^\"]+)\":");
    std::vector<std::string> keys;
    for (std::sregex_iterator it(json.begin(), json.end(), key_re), end;
         it != end; ++it)
        keys.push_back((*it)[1]);
    return keys;
}

TEST(Lifecycle, AdminReportsNameExactlyTheseKeys)
{
    // gpuperf-worker gc|verify|stats print these for cron jobs and
    // alerts to read: changing a key must be a deliberate edit here.
    const std::string root = syntheticRoot("report-keys", 1, 100, nullptr);
    using Keys = std::vector<std::string>;

    store::GcOptions gc;
    gc.dryRun = true;
    EXPECT_EQ(jsonKeys(store::runGc(root, gc).json()),
              (Keys{"scanned", "evicted", "evicted_bytes", "kept_leased",
                    "kept_young", "dirs_skipped_busy",
                    "live_bytes_before", "live_bytes_after", "ok"}));

    store::VerifyOptions verify;
    verify.fix = false;
    EXPECT_EQ(jsonKeys(store::runVerify(root, verify).json()),
              (Keys{"scanned_entries", "scanned_bytes",
                    "corrupt_entries", "quarantined", "legacy_segments",
                    "stale_leases", "stale_temps", "ok", "clean"}));

    EXPECT_EQ(jsonKeys(store::storeUsageJson(store::scanStoreUsage(root))),
              (Keys{"profiles", "entries", "live_bytes", "leases",
                    "temp_files", "quarantined", "entries", "live_bytes",
                    "leases", "quarantined"}));
}

// --- Telemetry plumbing -----------------------------------------------

TEST(StoreStats, ServiceAggregatesAcrossResetWithoutGoingBackwards)
{
    const std::string root = freshDir("stats");
    api::AnalysisService service;
    const api::AnalysisRequest req = lifecycleRequest(root);
    adoptAll(service, req);
    (void)service.run(req);

    // The repeat stores nothing new: its saves are skipped.
    (void)service.run(req);

    const store::StoreLayerStats before = service.storeStats();
    EXPECT_GT(before.total().writes, 0u);
    EXPECT_GT(before.total().writesSkipped, 0u);

    // reset() retires every executor; its counters must fold into
    // the accumulator, not vanish.
    service.reset();
    const store::StoreLayerStats after = service.storeStats();
    EXPECT_GE(after.total().writes, before.total().writes);
    EXPECT_GE(after.total().writesSkipped, before.total().writesSkipped);
    EXPECT_GE(after.total().hits + after.total().misses,
              before.total().hits + before.total().misses);
}

TEST(StoreStats, JsonCarriesEveryCounterAndTheLayerTotals)
{
    store::StoreStats s;
    s.hits = 3;
    s.writesSkipped = 4;
    s.leaseSteals = 1;
    const std::string json = store::storeStatsJson(s);
    EXPECT_NE(json.find("\"hits\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"writes_skipped\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"lease_steals\": 1"), std::string::npos);
    EXPECT_EQ(jsonKeys(json),
              (std::vector<std::string>{
                  "hits", "misses", "writes", "write_failures",
                  "writes_skipped", "bytes_read", "bytes_written",
                  "lease_steals"}));

    store::StoreLayerStats layer;
    layer.profiles.hits = 2;
    layer.results.writes = 5;
    const std::string layer_json = store::storeLayerStatsJson(layer);
    for (const char *key :
         {"\"profiles\"", "\"calibrations\"", "\"timings\"",
          "\"results\"", "\"total\""})
        EXPECT_NE(layer_json.find(key), std::string::npos) << key;

    api::ServerStats stats;
    const std::string server_json = api::statsToJson(stats);
    EXPECT_NE(server_json.find("\"store\""), std::string::npos);
    EXPECT_NE(server_json.find("\"gc_runs\""), std::string::npos);
}

TEST(StoreStats, EndpointParsesGcOptionsIntoServerOptions)
{
    const api::Endpoint ep = api::Endpoint::parse(
        "unix:/tmp/x.sock?store=/tmp/s&gc-bytes=1048576&gc-age=7200&"
        "gc-interval=30",
        api::Endpoint::Role::kServer);
    EXPECT_EQ(ep.limits.gcBytes, 1048576u);
    EXPECT_EQ(ep.timeouts.gcAgeSeconds, 7200.0);
    EXPECT_EQ(ep.timeouts.gcIntervalSeconds, 30.0);

    const api::ServerOptions opts = api::serverOptionsFor({ep});
    EXPECT_EQ(opts.gcBytes, 1048576u);
    EXPECT_EQ(opts.gcAgeSeconds, 7200.0);
    EXPECT_EQ(opts.gcIntervalSeconds, 30.0);
    EXPECT_EQ(opts.forceStoreDir, "/tmp/s");

    EXPECT_THROW(api::Endpoint::parse("inproc:?gc-bytes=never"),
                 std::runtime_error)
        << "a non-numeric gc budget must fail fast";
}

} // namespace
} // namespace gpuperf
