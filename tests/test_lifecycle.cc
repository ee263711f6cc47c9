/**
 * @file
 * Store lifecycle tests (src/store/lifecycle/): corrupt entries read
 * as misses and are quarantined by the verifier, never crash a
 * reader; GC evicts to its size/age budget in LRU order without ever
 * touching a leased or in-flight entry; compaction folds loose
 * entries into segments that every store reads through transparently
 * (warm runs over a compacted store stay bit-identical); and the
 * janitors (GC + compactor + verifier) racing a live batch leave its
 * response bit-identical to an undisturbed run.
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
#include <string>
#include <thread>
#include <vector>

#include "api/codecs.h"
#include "api/endpoint.h"
#include "api/request.h"
#include "api/server.h"
#include "api/service.h"
#include "driver/demo_cases.h"
#include "model/session.h"
#include "store/lifecycle/compactor.h"
#include "store/lifecycle/gc.h"
#include "store/lifecycle/lifecycle.h"
#include "store/lifecycle/segment.h"
#include "store/lifecycle/verifier.h"
#include "store/profile_store.h"
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
    EXPECT_TRUE(store::isLeaseFileName("compact.lease"));
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

// --- Compaction: segments served transparently ------------------------

TEST(Compactor, FoldsLooseEntriesIntoASegmentServedTransparently)
{
    std::vector<std::string> names;
    const std::string root =
        syntheticRoot("compact", 10, 300, &names);
    const std::string dir = root + "/profiles";

    store::CompactOptions opts;
    opts.force = true;
    opts.minAgeMs = 0;
    const store::CompactReport report = store::runCompact(root, opts);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.foldedEntries, 10u);
    EXPECT_EQ(report.segmentsWritten, 1u);
    EXPECT_EQ(store::listSegmentFiles(dir).size(), 1u);

    // Loose files are gone; every entry still reads, byte for byte.
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(fileExists(dir + "/" + names[i]));
        std::string payload;
        ASSERT_TRUE(store::readStoreEntry(dir, names[i], kTestVersion,
                                          "key-" + std::to_string(i),
                                          &payload))
            << names[i];
        EXPECT_EQ(payload,
                  std::string(300, static_cast<char>('a' + i % 26)));
        EXPECT_TRUE(store::storeEntryExists(dir, names[i],
                                            kTestVersion,
                                            "key-" + std::to_string(i)));
    }
}

TEST(Compactor, LooseRewriteShadowsItsSegmentSlice)
{
    std::vector<std::string> names;
    const std::string root = syntheticRoot("shadow", 4, 100, &names);
    const std::string dir = root + "/profiles";
    store::CompactOptions opts;
    opts.force = true;
    opts.minAgeMs = 0;
    ASSERT_TRUE(store::runCompact(root, opts).ok);

    // Republished after the fold (an .obs merge, a newer profile):
    // the loose file must win over the stale slice.
    ASSERT_TRUE(store::writeEntryFile(dir + "/" + names[2],
                                      kTestVersion, "key-2",
                                      "fresher payload"));
    std::string payload;
    ASSERT_TRUE(store::readStoreEntry(dir, names[2], kTestVersion,
                                      "key-2", &payload));
    EXPECT_EQ(payload, "fresher payload");

    // The next compaction folds the rewrite forward and the segment
    // keeps serving the fresher bytes.
    ASSERT_TRUE(store::runCompact(root, opts).ok);
    EXPECT_EQ(store::listSegmentFiles(dir).size(), 1u);
    payload.clear();
    ASSERT_TRUE(store::readStoreEntry(dir, names[2], kTestVersion,
                                      "key-2", &payload));
    EXPECT_EQ(payload, "fresher payload");
}

TEST(Compactor, GcEvictsFromSegmentsViaRewrite)
{
    std::vector<std::string> names;
    const std::string root = syntheticRoot("seg-gc", 6, 500, &names);
    const std::string dir = root + "/profiles";
    for (const std::string &n : names)
        backdateMtime(dir + "/" + n, 3600);
    store::CompactOptions copts;
    copts.force = true;
    copts.minAgeMs = 0;
    ASSERT_TRUE(store::runCompact(root, copts).ok);

    store::GcOptions gopts;
    gopts.maxBytes = 1;
    gopts.minAgeMs = 0;
    const store::GcReport report = store::runGc(root, gopts);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.evicted, 6u);
    for (const std::string &n : names) {
        std::string payload;
        EXPECT_FALSE(store::readStoreEntry(
            dir, n, kTestVersion,
            "key-" + n.substr(6, n.find('.') - 6), &payload))
            << n;
    }
    const store::StoreUsage usage = store::scanStoreUsage(root);
    EXPECT_EQ(usage.entries(), 0u);
}

// --- The real stores over a compacted root ----------------------------

TEST(Compactor, ProfileStoreServesCompactedEntriesBitExactly)
{
    const std::string dir = freshDir("ps-compact") + "/profiles";
    auto kc = driver::makeStencil1dCase("stencil", 8, 128);
    auto launch = kc.make();
    funcsim::FunctionalSimulator sim(arch::GpuSpec::gtx285());
    const funcsim::KernelProfile profile = funcsim::profileKernel(
        sim, launch.kernel, launch.cfg, *launch.gmem);
    {
        store::ProfileStore ps(dir);
        ASSERT_TRUE(ps.save(profile));
    }
    store::CompactOptions opts;
    opts.force = true;
    opts.minAgeMs = 0;
    // The store root is the PARENT of profiles/.
    const std::string root = dir.substr(0, dir.rfind('/'));
    ASSERT_TRUE(store::runCompact(root, opts).ok);
    ASSERT_EQ(store::listSegmentFiles(dir).size(), 1u);

    store::ProfileStore warm(dir);
    auto loaded = warm.load(profile.key);
    ASSERT_NE(loaded, nullptr)
        << "a compacted profile must load through the segment";
    EXPECT_EQ(warm.hits(), 1u);
    EXPECT_EQ(loaded->kernelName, profile.kernelName);
    EXPECT_EQ(loaded->trace.totalOps(), profile.trace.totalOps());
    EXPECT_GT(warm.stats().bytesRead, 0u);
}

// --- Full-batch acceptance: warm over compacted, racing janitors ------

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

TEST(Lifecycle, WarmRunOverCompactedStoreIsBitIdentical)
{
    const std::string root = freshDir("warm-compacted");
    api::AnalysisService service;
    const api::AnalysisRequest req = lifecycleRequest(root);
    adoptAll(service, req);
    const api::AnalysisResponse cold = service.run(req);
    for (const auto &cell : cold.cells)
        ASSERT_TRUE(cell.ok) << cell.error;

    // Compact EVERYTHING, then replay from a fresh process image.
    store::CompactOptions opts;
    opts.force = true;
    opts.minAgeMs = 0;
    const store::CompactReport report = store::runCompact(root, opts);
    ASSERT_TRUE(report.ok);
    ASSERT_GT(report.foldedEntries, 0u);

    service.reset();
    api::AnalysisService warm_service;
    adoptAll(warm_service, req);
    const api::AnalysisResponse warm = warm_service.run(req);
    std::string why;
    EXPECT_TRUE(api::responsesEqual(cold, warm, &why)) << why;

    // Every loose file was folded, so ANY warm hit was served
    // through a segment (cells come warm from the result store, so
    // the hits land there rather than in profiles).
    const store::StoreLayerStats stats = warm_service.storeStats();
    EXPECT_GT(stats.total().hits, 0u)
        << "the warm run must be served through the segments";
    EXPECT_GT(stats.total().bytesRead, 0u);
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
    // min-age guard is the only protection for in-flight entries),
    // forced compaction, and a fixing verifier, all looping while
    // the batch runs.
    const std::string root = freshDir("race-live");
    std::atomic<bool> stop{false};
    std::thread janitor([&root, &stop] {
        store::GcOptions gc;
        gc.maxBytes = 1;
        store::CompactOptions compact;
        compact.force = true;
        compact.minAgeMs = 0;
        while (!stop.load()) {
            (void)store::runGc(root, gc);
            (void)store::runCompact(root, compact);
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

// --- Telemetry plumbing -----------------------------------------------

TEST(StoreStats, ServiceAggregatesAcrossResetWithoutGoingBackwards)
{
    const std::string root = freshDir("stats");
    api::AnalysisService service;
    const api::AnalysisRequest req = lifecycleRequest(root);
    adoptAll(service, req);
    (void)service.run(req);

    const store::StoreLayerStats before = service.storeStats();
    EXPECT_GT(before.total().writes, 0u);

    // reset() retires every executor; its counters must fold into
    // the accumulator, not vanish.
    service.reset();
    const store::StoreLayerStats after = service.storeStats();
    EXPECT_GE(after.total().writes, before.total().writes);
    EXPECT_GE(after.total().hits + after.total().misses,
              before.total().hits + before.total().misses);
}

TEST(StoreStats, JsonCarriesEveryCounterAndTheLayerTotals)
{
    store::StoreStats s;
    s.hits = 3;
    s.leaseSteals = 1;
    const std::string json = store::storeStatsJson(s);
    EXPECT_NE(json.find("\"hits\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"lease_steals\": 1"), std::string::npos);

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
