/**
 * @file
 * Persistent-store tests: the binary serializer round-trips every
 * value bit-exactly, each store rejects stale/corrupt/foreign entries
 * (degrading to a recompute, never wrong data), a warm store
 * drives BatchRunner to results bit-identical to a cold run while
 * skipping functional simulation and calibration, and a rerun
 * replaces only the entries whose bytes it does not reproduce.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <thread>
#include <tuple>

#include "driver/batch_runner.h"
#include "driver/demo_cases.h"
#include "model/session.h"
#include "store/calibration_store.h"
#include "store/codecs.h"
#include "store/lease.h"
#include "store/lifecycle/lifecycle.h"
#include "store/profile_store.h"
#include "store/result_store.h"
#include "store/serializer.h"
#include "store/timing_store.h"

#include "reference_pipeline.h"

namespace gpuperf {
namespace {

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

std::shared_ptr<const model::CalibrationTables>
sharedFakeTables()
{
    return std::make_shared<const model::CalibrationTables>(fakeTables());
}

/** One functional simulation of @p launch under @p spec, shareable. */
std::shared_ptr<const funcsim::KernelProfile>
profileOf(driver::PreparedLaunch &launch, const arch::GpuSpec &spec)
{
    funcsim::FunctionalSimulator sim(spec);
    return std::make_shared<const funcsim::KernelProfile>(
        funcsim::profileKernel(sim, launch.kernel, launch.cfg,
                               *launch.gmem));
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "gpuperf-" + name +
                            "-" + std::to_string(::getpid());
    // Tests reuse process-unique names; stale files from a previous
    // case in this process are fine (keys disambiguate).
    return dir;
}

TEST(Serializer, RoundTripsScalarsBitExactly)
{
    store::ByteWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefull);
    w.i32(-42);
    w.b(true);
    w.f64(0.1);
    w.f64(-0.0);
    w.f64(1e-300);
    w.f64(6.02214076e23);
    w.str("hello|world");
    w.str("");

    store::ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_TRUE(r.b());
    // Bit-level equality, not approximate: the whole point of the
    // binary format is exact reproduction of model outputs.
    EXPECT_EQ(r.f64(), 0.1);
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_EQ(r.f64(), 1e-300);
    EXPECT_EQ(r.f64(), 6.02214076e23);
    EXPECT_EQ(r.str(), "hello|world");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(Serializer, OverrunSticksAndReturnsZeros)
{
    store::ByteWriter w;
    w.u32(7);
    store::ByteReader r(w.bytes());
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_EQ(r.u64(), 0u) << "reading past the end yields zero";
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.u8(), 0) << "failure is sticky";
}

TEST(Serializer, EntryFilesRejectForeignKeysAndVersions)
{
    const std::string dir = freshDir("entries");
    ASSERT_TRUE(store::makeDirs(dir));
    const std::string path = dir + "/entry.bin";
    ASSERT_TRUE(store::writeEntryFile(path, 3, "the-key", "payload"));

    std::string payload;
    EXPECT_TRUE(store::readEntryFile(path, 3, "the-key", &payload));
    EXPECT_EQ(payload, "payload");
    EXPECT_FALSE(store::readEntryFile(path, 4, "the-key", &payload))
        << "format-version bump invalidates the entry";
    EXPECT_FALSE(store::readEntryFile(path, 3, "another-key", &payload))
        << "key mismatch (e.g. filename hash collision) is a miss";
    EXPECT_FALSE(
        store::readEntryFile(dir + "/absent.bin", 3, "k", &payload));

    std::ofstream(path, std::ios::binary) << "garbage";
    EXPECT_FALSE(store::readEntryFile(path, 3, "the-key", &payload))
        << "a corrupt entry is a miss, not an error";
}

TEST(ProfileStore, RoundTripDrivesBitIdenticalPredictions)
{
    auto kc = driver::makeStencil1dCase("stencil", 8, 128);
    auto launch = kc.make();
    model::AnalysisSession session(arch::GpuSpec::gtx285());
    session.adoptCalibration(sharedFakeTables());
    auto profile = profileOf(launch, session.spec());

    store::ProfileStore ps(freshDir("profiles"));
    ASSERT_TRUE(ps.save(*profile));
    auto loaded = ps.load(profile->key);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(ps.hits(), 1u);

    // The loaded artifact is the same object, field for field...
    EXPECT_EQ(loaded->key, profile->key);
    EXPECT_EQ(loaded->kernelName, profile->kernelName);
    EXPECT_EQ(loaded->resources.registersPerThread,
              profile->resources.registersPerThread);
    ASSERT_EQ(loaded->stats.stages.size(), profile->stats.stages.size());
    for (size_t i = 0; i < loaded->stats.stages.size(); ++i)
        EXPECT_TRUE(loaded->stats.stages[i] == profile->stats.stages[i]);
    ASSERT_EQ(loaded->trace.pool.size(), profile->trace.pool.size());
    for (size_t i = 0; i < loaded->trace.pool.size(); ++i)
        EXPECT_TRUE(loaded->trace.pool[i] == profile->trace.pool[i]);
    ASSERT_EQ(loaded->trace.blocks.size(), profile->trace.blocks.size());
    EXPECT_EQ(loaded->trace.totalOps(), profile->trace.totalOps());

    // ...so serialize -> load -> replay -> predict is exact.
    const model::Analysis from_memory = session.analyze(
        profile, std::make_shared<const timing::TimingResult>(
                     session.device().timingSim().run(*profile)));
    const model::Analysis from_disk = session.analyze(
        loaded, std::make_shared<const timing::TimingResult>(
                    session.device().timingSim().run(*loaded)));
    EXPECT_EQ(from_disk.prediction.totalSeconds,
              from_memory.prediction.totalSeconds);
    EXPECT_EQ(from_disk.measurement.timing.cycles,
              from_memory.measurement.timing.cycles);
    EXPECT_EQ(from_disk.metrics.coalescingEfficiency,
              from_memory.metrics.coalescingEfficiency);
}

TEST(ProfileStore, MissesOnDifferentKey)
{
    auto kc = driver::makeSaxpyCase("saxpy", 4, 128, 2.0f);
    auto launch = kc.make();
    auto profile = profileOf(launch, arch::GpuSpec::gtx285());

    store::ProfileStore ps(freshDir("profile-miss"));
    ASSERT_TRUE(ps.save(*profile));
    funcsim::ProfileKey other = profile->key;
    other.cfg.gridDim += 1;
    EXPECT_EQ(ps.load(other), nullptr);
    other = profile->key;
    other.fingerprint.numSharedBanks = 17;
    EXPECT_EQ(ps.load(other), nullptr)
        << "funcsim fingerprint mismatch must recompute";
    EXPECT_EQ(ps.misses(), 2u);
}

TEST(CalibrationStore, RoundTripsTablesExactly)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    store::CalibrationStore cs(freshDir("calibrations"));
    EXPECT_EQ(cs.load(spec), nullptr);
    ASSERT_TRUE(cs.save(spec, fakeTables()));
    auto loaded = cs.load(spec);
    ASSERT_NE(loaded, nullptr);
    const model::CalibrationTables want = fakeTables();
    EXPECT_EQ(loaded->maxWarps, want.maxWarps);
    EXPECT_EQ(loaded->bytesPerPass, want.bytesPerPass);
    for (int type = 0; type < arch::kNumInstrTypes; ++type)
        EXPECT_EQ(loaded->instrThroughput[type],
                  want.instrThroughput[type]);
    EXPECT_EQ(loaded->sharedPassThroughput, want.sharedPassThroughput);

    arch::GpuSpec other = spec;
    other.aluDepCycles += 1;
    EXPECT_EQ(cs.load(other), nullptr)
        << "calibration keys on the FULL spec fingerprint";
}

TEST(CalibrationStore, BenchSavesReadTheEntryOnceAndPublishOnlyNewShapes)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    const std::string dir = freshDir("bench-save-once");
    (void)::system(("rm -rf " + dir).c_str());
    store::CalibrationStore cs(dir);
    model::GlobalBenchResult measured;
    measured.seconds = 1.5e-6;
    measured.transactions = 96;
    const store::CalibrationStore::BenchEntry first{{64, 4, 1}, measured};
    ASSERT_TRUE(cs.saveBenchResults(spec, {first}));

    std::string entry;
    for (const std::string &name : store::listDirFiles(dir))
        if (store::isEntryFileName(name))
            entry = name;
    ASSERT_FALSE(entry.empty());
    const std::string path = dir + "/" + entry;
    const auto inode = [&path] {
        struct stat st;
        EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
        return st.st_ino;
    };
    const ino_t published = inode();

    // A save that adds no shape: one read gives the merge base and
    // the byte compare, and nothing is renamed over the entry.
    const store::StoreStats before = cs.stats();
    ASSERT_TRUE(cs.saveBenchResults(spec, {first}));
    store::StoreStats after = cs.stats();
    EXPECT_EQ(after.bytesRead - before.bytesRead,
              store::fileSizeOf(path));
    EXPECT_EQ(after.writesSkipped - before.writesSkipped, 1u);
    EXPECT_EQ(after.writes, before.writes);
    EXPECT_EQ(inode(), published);

    // A save that adds a shape publishes the union.
    const store::CalibrationStore::BenchEntry second{{128, 8, 2},
                                                     measured};
    ASSERT_TRUE(cs.saveBenchResults(spec, {second}));
    EXPECT_EQ(cs.stats().writes, after.writes + 1);
    EXPECT_NE(inode(), published);
    const auto stored = cs.loadBenchResults(spec);
    ASSERT_EQ(stored.size(), 2u);
    EXPECT_EQ(stored[0].first, first.first);
    EXPECT_EQ(stored[1].first, second.first);
}

TEST(ResultStore, RoundTripsABatchResultBitExactly)
{
    driver::BatchRunner runner;
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    runner.adoptCalibration(spec, sharedFakeTables());
    driver::SweepSpec sweep;
    sweep.noBankConflicts = true;
    sweep.warpsPerSm = {8.0, 32.0};
    const auto results = runner.run(
        {driver::makeStridedSaxpyCase("strided", 8, 128, 4)}, {spec},
        sweep);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok) << results[0].error;

    store::ResultStore rs(freshDir("results"));
    ASSERT_TRUE(rs.save("cell-key", results[0]));
    auto loaded = rs.load("cell-key");
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(loaded->ok);
    EXPECT_EQ(loaded->kernelName, results[0].kernelName);
    EXPECT_EQ(loaded->analysis.prediction.totalSeconds,
              results[0].analysis.prediction.totalSeconds);
    EXPECT_EQ(loaded->analysis.measurement.timing.cycles,
              results[0].analysis.measurement.timing.cycles);
    EXPECT_EQ(loaded->analysis.measurement.stats.totalGlobalBytes(),
              results[0].analysis.measurement.stats.totalGlobalBytes());
    ASSERT_EQ(loaded->whatifs.size(), results[0].whatifs.size());
    for (size_t j = 0; j < loaded->whatifs.size(); ++j) {
        EXPECT_EQ(loaded->whatifs[j].point.kind,
                  results[0].whatifs[j].point.kind);
        EXPECT_EQ(loaded->whatifs[j].point.value,
                  results[0].whatifs[j].point.value);
        EXPECT_EQ(loaded->whatifs[j].result.before.totalSeconds,
                  results[0].whatifs[j].result.before.totalSeconds);
        EXPECT_EQ(loaded->whatifs[j].result.after.totalSeconds,
                  results[0].whatifs[j].result.after.totalSeconds);
        EXPECT_EQ(loaded->whatifs[j].speedup(),
                  results[0].whatifs[j].speedup());
    }
    EXPECT_EQ(rs.load("other-key"), nullptr);
}

TEST(ProfileStore, ReadKeyValidatesWithoutDeserializing)
{
    auto kc = driver::makeSaxpyCase("saxpy", 4, 128, 2.0f);
    auto launch = kc.make();
    auto profile = profileOf(launch, arch::GpuSpec::gtx285());

    store::ProfileStore ps(freshDir("profile-readkey"));
    EXPECT_FALSE(ps.readKey(profile->key)) << "nothing stored yet";
    ASSERT_TRUE(ps.save(*profile));
    EXPECT_TRUE(ps.readKey(profile->key));

    // Any key mutation misses, exactly like a full load.
    funcsim::ProfileKey other = profile->key;
    other.cfg.blockDim *= 2;
    EXPECT_FALSE(ps.readKey(other));
    other = profile->key;
    other.kernelHash ^= 1;
    EXPECT_FALSE(ps.readKey(other));

    // The key-only path is not a load: hit/miss counters untouched.
    EXPECT_EQ(ps.hits(), 0u);
    EXPECT_EQ(ps.misses(), 0u);

    // A truncated entry (torn write) is a miss, not a false positive.
    const std::string key_str = profile->key.str();
    const std::string path = ps.dir() + "/" +
                             store::fileStem("profile", key_str) +
                             ".profile";
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(data.size(), 16u);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(),
              static_cast<std::streamsize>(data.size() - 7));
    out.close();
    EXPECT_FALSE(ps.readKey(profile->key));
}

TEST(TimingStore, RoundTripsReplaysBitExactlyPerFingerprint)
{
    auto kc = driver::makeStencil1dCase("stencil", 8, 128);
    auto launch = kc.make();
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    auto profile = profileOf(launch, spec);
    const timing::TimingResult replay =
        timing::TimingSimulator(spec).run(*profile);

    store::TimingStore ts(freshDir("timing-store"));
    const arch::TimingFingerprint fp = arch::TimingFingerprint::of(spec);
    EXPECT_EQ(ts.load(profile->key, fp), nullptr);
    ASSERT_TRUE(ts.save(profile->key, fp, replay));
    auto loaded = ts.load(profile->key, fp);
    ASSERT_NE(loaded, nullptr);
    EXPECT_TRUE(*loaded == replay) << "codec must round-trip exactly";

    // A different timing fingerprint (same profile) is a distinct
    // entry: the paper's what-if variants never alias each other.
    arch::GpuSpec slow = spec;
    slow.globalLatencyCycles *= 2;
    EXPECT_EQ(ts.load(profile->key,
                      arch::TimingFingerprint::of(slow)),
              nullptr);
    // ...and a timing-irrelevant spec edit maps to the same entry.
    arch::GpuSpec renamed = spec;
    renamed.name = "same machine, other label";
    EXPECT_NE(ts.load(profile->key,
                      arch::TimingFingerprint::of(renamed)),
              nullptr);
    EXPECT_EQ(ts.hits(), 2u);
    EXPECT_EQ(ts.misses(), 2u);
}

class WarmStoreTest : public ::testing::Test
{
  protected:
    WarmStoreTest()
    {
        kernels_.push_back(driver::makeSaxpyCase("saxpy", 8, 128, 2.0f));
        kernels_.push_back(
            driver::makeStencil1dCase("stencil", 8, 128));
        specs_ = {arch::GpuSpec::gtx285(),
                  arch::GpuSpec::gtx285MoreBlocks(),
                  arch::GpuSpec::gtx285BigResources(),
                  arch::GpuSpec::gtx285PrimeBanks()};
        sweep_.noBankConflicts = true;
        sweep_.warpsPerSm = {16.0};
    }

    std::unique_ptr<driver::BatchRunner>
    makeRunner(const std::string &store_dir, bool reuse_results = true)
    {
        driver::BatchRunner::Options opts;
        opts.numThreads = 2;
        opts.storeDir = store_dir;
        opts.reuseStoredResults = reuse_results;
        auto runner = std::make_unique<driver::BatchRunner>(opts);
        for (const auto &spec : specs_)
            runner->adoptCalibration(spec, sharedFakeTables());
        return runner;
    }

    void expectSame(const std::vector<driver::BatchResult> &got,
                    const std::vector<driver::BatchResult> &want)
    {
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE("cell " + std::to_string(i));
            ASSERT_TRUE(got[i].ok) << got[i].error;
            EXPECT_EQ(got[i].kernelName, want[i].kernelName);
            EXPECT_EQ(got[i].specName, want[i].specName);
            EXPECT_EQ(got[i].analysis.prediction.totalSeconds,
                      want[i].analysis.prediction.totalSeconds);
            EXPECT_EQ(got[i].analysis.measurement.timing.cycles,
                      want[i].analysis.measurement.timing.cycles);
            ASSERT_EQ(got[i].whatifs.size(), want[i].whatifs.size());
            for (size_t j = 0; j < got[i].whatifs.size(); ++j)
                EXPECT_EQ(got[i].whatifs[j].speedup(),
                          want[i].whatifs[j].speedup());
        }
    }

    /** Every entry file under @p dir: path -> (inode, mtime s, ns). */
    using EntryIds = std::map<std::string, std::tuple<ino_t, long, long>>;
    static EntryIds entryIds(const std::string &dir)
    {
        EntryIds ids;
        for (const std::string &sub : store::listStoreSubdirs(dir)) {
            for (const std::string &name :
                 store::listDirFiles(dir + "/" + sub)) {
                if (!store::isEntryFileName(name))
                    continue;
                const std::string path = dir + "/" + sub + "/" + name;
                struct stat st;
                EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
                ids[sub + "/" + name] =
                    std::make_tuple(st.st_ino, long(st.st_mtim.tv_sec),
                                    long(st.st_mtim.tv_nsec));
            }
        }
        return ids;
    }

    std::vector<driver::KernelCase> kernels_;
    std::vector<arch::GpuSpec> specs_;
    driver::SweepSpec sweep_;
};

TEST_F(WarmStoreTest, WarmRunsAreBitIdenticalAndSkipFunctionalSim)
{
    const std::string dir = freshDir("warm-store");

    auto cold = makeRunner(dir);
    const auto cold_results = cold->run(kernels_, specs_, sweep_);
    // Cold: every profile lookup missed, then was stored. 3 of the 4
    // specs share one funcsim fingerprint, so 2 kernels x 2 distinct
    // fingerprints = 4 profile builds for 8 cells.
    ASSERT_NE(cold->profileStore(), nullptr);
    EXPECT_EQ(cold->profileStore()->hits(), 0u);
    EXPECT_EQ(cold->profileStore()->misses(), 4u);

    // Warm, results reused: whole cells come from the store.
    auto warm = makeRunner(dir);
    const auto warm_results = warm->run(kernels_, specs_, sweep_);
    expectSame(warm_results, cold_results);
    EXPECT_EQ(warm->resultStore()->hits(),
              kernels_.size() * specs_.size());

    // Warm, result reuse off: profiles still come from the store
    // (functional simulation skipped), the rest recomputes — and the
    // numbers still match bit for bit.
    auto warm_profiles_only = makeRunner(dir, false);
    const auto reran = warm_profiles_only->run(kernels_, specs_, sweep_);
    expectSame(reran, cold_results);
    EXPECT_EQ(warm_profiles_only->profileStore()->hits(), 4u);
    EXPECT_EQ(warm_profiles_only->profileStore()->misses(), 0u);
    EXPECT_EQ(warm_profiles_only->resultStore()->hits(), 0u);
}

TEST_F(WarmStoreTest, WarmResultCellsTakeTheKeyOnlyPath)
{
    const std::string dir = freshDir("warm-keyonly");
    auto cold = makeRunner(dir);
    const auto cold_results = cold->run(kernels_, specs_, sweep_);

    // Every cell is served from the result store, and the result key
    // is derived from the profile key alone: the profile files are
    // never opened, let alone deserialized.
    auto warm = makeRunner(dir);
    const auto warm_results = warm->run(kernels_, specs_, sweep_);
    expectSame(warm_results, cold_results);
    EXPECT_EQ(warm->resultStore()->hits(),
              kernels_.size() * specs_.size());
    EXPECT_EQ(warm->profileStore()->hits(), 0u)
        << "warm result cells must not load profiles";
    EXPECT_EQ(warm->profileStore()->misses(), 0u);
    EXPECT_EQ(warm->timingStore()->hits(), 0u)
        << "warm result cells skip the timing memo too";
}

TEST_F(WarmStoreTest, TimingMemoPersistsAcrossProcesses)
{
    const std::string dir = freshDir("warm-timing");
    auto cold = makeRunner(dir);
    (void)cold->run(kernels_, specs_, sweep_);
    // 3 of the 4 specs share a funcsim fingerprint but all 4 have
    // distinct TIMING fingerprints, so the cold run replays (and
    // persists) one timing result per cell.
    ASSERT_NE(cold->timingStore(), nullptr);
    EXPECT_EQ(cold->timingStore()->misses(),
              kernels_.size() * specs_.size());

    // A "new process" with result reuse off: profiles and timing
    // replays both come from disk — the cells recompute only
    // extraction, prediction and the sweep.
    auto warm = makeRunner(dir, false);
    const auto warm_results = warm->run(kernels_, specs_, sweep_);
    for (const auto &r : warm_results)
        ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(warm->timingStore()->hits(),
              kernels_.size() * specs_.size());
    EXPECT_EQ(warm->timingStore()->misses(), 0u);
}

TEST_F(WarmStoreTest, SyntheticBenchResultsPersistAcrossRunners)
{
    const std::string dir = freshDir("bench-memo");
    auto cold = makeRunner(dir);
    (void)cold->run(kernels_, specs_, sweep_);

    // The cold batch measured synthetic global benchmarks (the model's
    // global component needs them); they must now be on disk...
    ASSERT_NE(cold->calibrationStore(), nullptr);
    const auto persisted =
        cold->calibrationStore()->loadBenchResults(specs_[0]);
    EXPECT_FALSE(persisted.empty());

    // ...and a fresh runner must serve them from the store, producing
    // identical results without re-measuring (bit-identity is checked
    // by the sibling tests; here we pin the round trip itself).
    auto warm = makeRunner(dir, false);
    auto memo = warm->benchMemoFor(specs_[0]);
    for (const auto &entry : persisted) {
        bool ran_compute = false;
        const auto served = memo->getOrCompute(entry.first, [&]() {
            ran_compute = true;
            return model::GlobalBenchResult{};
        });
        EXPECT_FALSE(ran_compute)
            << "persisted benchmark was re-measured";
        EXPECT_EQ(served.seconds, entry.second.seconds);
        EXPECT_EQ(served.xactThroughput, entry.second.xactThroughput);
    }
}

TEST_F(WarmStoreTest, IdenticalRerunsWriteNothing)
{
    const std::string dir = freshDir("rerun-writes");
    auto cold = makeRunner(dir);
    const auto cold_results = cold->run(kernels_, specs_, sweep_);
    const EntryIds published = entryIds(dir);
    ASSERT_FALSE(published.empty());

    // Reused results, then recomputed ones: every save reproduces the
    // bytes already stored, so no entry file is replaced (a rename
    // always brings a new inode).
    for (const bool reuse : {true, false}) {
        SCOPED_TRACE(reuse ? "reuseStoredResults" : "recompute");
        auto rerun = makeRunner(dir, reuse);
        expectSame(rerun->run(kernels_, specs_, sweep_), cold_results);
        EXPECT_EQ(entryIds(dir), published);

        const store::StoreLayerStats stats = rerun->storeStats();
        EXPECT_EQ(stats.total().writes, 0u);
        EXPECT_EQ(stats.total().bytesWritten, 0u);
        EXPECT_EQ(stats.total().writeFailures, 0u);
        EXPECT_EQ(stats.calibrations.writesSkipped, specs_.size())
            << "one skipped .bench save per spec";
        EXPECT_EQ(stats.results.writesSkipped,
                  reuse ? 0u : kernels_.size() * specs_.size())
            << "one skipped .result save per recomputed cell";
    }
}

TEST_F(WarmStoreTest, ARecomputeReplacesAStoredResultWhoseBytesDiffer)
{
    // A stored result that is intact and carries the right key but
    // whose bytes differ from what the pipeline now computes — the
    // state a model change without a kFormatVersion bump leaves.
    // Recomputing must replace it: the skip compares bytes, not keys.
    const std::string dir = freshDir("rerun-replaces");
    auto cold = makeRunner(dir);
    const auto cold_results = cold->run(kernels_, specs_, sweep_);

    const std::string results_dir = dir + "/results";
    std::string entry;
    for (const std::string &name : store::listDirFiles(results_dir))
        if (store::isEntryFileName(name))
            entry = name;
    ASSERT_FALSE(entry.empty());
    std::ifstream in(results_dir + "/" + entry, std::ios::binary);
    const std::string blob((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string key, payload;
    ASSERT_TRUE(store::parseEntryBlob(
        blob, store::ResultStore::kFormatVersion, &key, &payload));

    store::ResultStore rs(results_dir);
    const auto stored = rs.load(key);
    ASSERT_NE(stored, nullptr);
    driver::BatchResult stale = *stored;
    stale.analysis.prediction.totalSeconds *= 2;
    ASSERT_TRUE(rs.save(key, stale));
    EXPECT_EQ(rs.stats().writes, 1u);
    const auto planted = rs.load(key);
    ASSERT_NE(planted, nullptr);
    ASSERT_EQ(planted->analysis.prediction.totalSeconds,
              stale.analysis.prediction.totalSeconds);

    auto rerun = makeRunner(dir, false);
    expectSame(rerun->run(kernels_, specs_, sweep_), cold_results);
    EXPECT_EQ(rerun->resultStore()->stats().writes, 1u);
    EXPECT_EQ(rerun->resultStore()->stats().writesSkipped,
              kernels_.size() * specs_.size() - 1);
    const auto replaced = rs.load(key);
    ASSERT_NE(replaced, nullptr);
    EXPECT_EQ(replaced->analysis.prediction.totalSeconds,
              stored->analysis.prediction.totalSeconds)
        << "the recomputed bytes must replace the stale entry";
}

TEST_F(WarmStoreTest, SerialReferenceMatchesStoreServedResults)
{
    // The acceptance bar: store-served batches equal the per-cell
    // reference pipeline bit for bit, under the same adopted tables.
    const std::string dir = freshDir("store-vs-reference");
    auto cold = makeRunner(dir);
    (void)cold->run(kernels_, specs_, sweep_);
    auto warm = makeRunner(dir);
    const auto warm_results = warm->run(kernels_, specs_, sweep_);
    EXPECT_EQ(warm->resultStore()->hits(),
              kernels_.size() * specs_.size());

    const auto want = reference::runPerCell(kernels_, specs_, sweep_,
                                            sharedFakeTables());
    expectSame(warm_results, want);
}

// --- Cross-process calibration lease -----------------------------------

TEST(CalibrationLease, ExactlyOneProcessHoldsAFreshLease)
{
    const std::string dir = freshDir("lease-basic");
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    // Two store objects = two cooperating processes' views.
    store::CalibrationStore a(dir);
    store::CalibrationStore b(dir);

    EXPECT_FALSE(a.leaseHeld(spec));
    store::Lease held = a.tryAcquireLease(spec);
    ASSERT_TRUE(held.held());
    EXPECT_TRUE(b.leaseHeld(spec))
        << "the marker must be visible through any store object";

    store::Lease lost = b.tryAcquireLease(spec);
    EXPECT_FALSE(lost.held())
        << "a fresh lease held by a live pid must not be taken";

    held.release();
    EXPECT_FALSE(b.leaseHeld(spec));
    store::Lease second = b.tryAcquireLease(spec);
    EXPECT_TRUE(second.held()) << "released leases are re-acquirable";
}

TEST(CalibrationLease, StaleLeasesAreBrokenAndRetaken)
{
    const std::string dir = freshDir("lease-stale");
    ASSERT_TRUE(store::makeDirs(dir));
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    store::CalibrationStore store(dir);

    const std::string lease_path =
        dir + "/" + store::fileStem(spec.name, spec.fingerprint()) +
        ".lease";

    // A lease from a process that no longer exists: broken at once.
    {
        std::ofstream marker(lease_path);
        marker << 999999999 << " " << 1 << "\n"; // dead pid, ancient
    }
    EXPECT_FALSE(store.leaseHeld(spec));
    store::Lease stolen = store.tryAcquireLease(spec);
    EXPECT_TRUE(stolen.held());
    stolen.release();

    // A lease from a LIVE pid (ours) but older than the stale
    // threshold: the holder is assumed wedged and the lease broken.
    const auto one_minute_ago =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count() -
        60'000;
    {
        std::ofstream marker(lease_path);
        marker << ::getpid() << " " << one_minute_ago << "\n";
    }
    EXPECT_TRUE(store.leaseHeld(spec))
        << "under the default 15-min threshold the lease is fresh";
    store.setLeaseStaleAfter(std::chrono::milliseconds(10));
    EXPECT_FALSE(store.leaseHeld(spec));
    store::Lease aged = store.tryAcquireLease(spec);
    EXPECT_TRUE(aged.held());
}

TEST(LeaseMarker, HostnameLessMarkersAreGovernedByAgeAlone)
{
    const std::string dir = freshDir("lease-legacy");
    ASSERT_TRUE(store::makeDirs(dir));
    const std::string marker = dir + "/legacy.lease";
    const int64_t now_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();

    // A hostname-less (legacy) marker names a pid of unknown
    // provenance: it may be recycled by an unrelated local process,
    // or probe as EPERM ("alive"), keeping a dead holder's lease
    // fresh forever. The pid probe must NOT apply — a young legacy
    // marker is fresh and an old one stale, pid notwithstanding.
    {
        std::ofstream out(marker);
        out << 999999999 << " " << now_ms << "\n"; // dead pid, young
    }
    EXPECT_TRUE(store::leaseFresh(marker))
        << "young legacy marker must be fresh even with a dead pid";
    {
        std::ofstream out(marker, std::ios::trunc);
        out << 999999999 << " " << now_ms - 60'000 << "\n";
    }
    EXPECT_FALSE(store::leaseFresh(marker, /*stale_after_ms=*/1000))
        << "aged-out legacy marker must be stale";

    // The same dead pid WITH a local hostname is probed and broken
    // immediately: provenance is known, so liveness can be trusted.
    char host[256] = {0};
    ASSERT_EQ(::gethostname(host, sizeof(host) - 1), 0);
    {
        std::ofstream out(marker, std::ios::trunc);
        out << 999999999 << " " << now_ms << " " << host << "\n";
    }
    EXPECT_FALSE(store::leaseFresh(marker))
        << "dead same-host holder must break the lease at once";

    // A live same-host holder (us) stays fresh.
    {
        std::ofstream out(marker, std::ios::trunc);
        out << ::getpid() << " " << now_ms << " " << host << "\n";
    }
    EXPECT_TRUE(store::leaseFresh(marker));
}

TEST(CalibrationLease, ConcurrentRunnersSplitTheMicrobenchmarkSweep)
{
    // Two runners sharing one storeDir — stand-ins for two sharded
    // processes — calibrate the same spec concurrently: the lease
    // must hand the sweep to exactly one of them, the other waits
    // and loads the published entry. Pinned on the runners' computed
    // counter, not on timing.
    const std::string dir = freshDir("lease-split");
    arch::GpuSpec tiny = arch::GpuSpec::gtx285();
    tiny.name = "GTX tiny lease";
    tiny.numSms = 3;
    tiny.maxWarpsPerSm = 8;
    tiny.maxThreadsPerSm = 256;
    tiny.maxThreadsPerBlock = 256;
    tiny.validate();

    driver::BatchRunner::Options opts;
    opts.numThreads = 1;
    opts.storeDir = dir;
    driver::BatchRunner first(opts);
    driver::BatchRunner second(opts);

    std::shared_ptr<const model::CalibrationTables> ta, tb;
    std::thread t1([&]() { ta = first.calibrationFor(tiny); });
    std::thread t2([&]() { tb = second.calibrationFor(tiny); });
    t1.join();
    t2.join();

    ASSERT_NE(ta, nullptr);
    ASSERT_NE(tb, nullptr);
    EXPECT_EQ(first.calibrationsComputed() +
                  second.calibrationsComputed(),
              1u)
        << "the sweep must run at most once between the two runners";

    // Both ended with the SAME calibration content: the waiter's
    // tables came from the holder's persisted entry.
    EXPECT_EQ(store::tablesDigest(*ta), store::tablesDigest(*tb));

    // A third, later runner starts fully warm.
    driver::BatchRunner third(opts);
    auto tc = third.calibrationFor(tiny);
    ASSERT_NE(tc, nullptr);
    EXPECT_EQ(third.calibrationsComputed(), 0u);
    EXPECT_EQ(store::tablesDigest(*tc), store::tablesDigest(*ta));
}

// --- Profile / timing in-flight leases (the generalized mechanism) ------

TEST(ProfileLease, ExactlyOneProcessHoldsAFreshLease)
{
    const std::string dir = freshDir("profile-lease");
    store::ProfileStore a(dir);
    store::ProfileStore b(dir);
    funcsim::ProfileKey key;
    key.kernelHash = 0xabcdef;
    key.inputHash = 42;

    EXPECT_FALSE(a.leaseHeld(key));
    store::Lease held = a.tryAcquireLease(key);
    ASSERT_TRUE(held.held());
    EXPECT_TRUE(b.leaseHeld(key))
        << "the marker must be visible through any store object";
    store::Lease lost = b.tryAcquireLease(key);
    EXPECT_FALSE(lost.held());

    // A DIFFERENT key's lease is independent.
    funcsim::ProfileKey other = key;
    other.inputHash = 43;
    store::Lease independent = b.tryAcquireLease(other);
    EXPECT_TRUE(independent.held());

    held.release();
    EXPECT_FALSE(b.leaseHeld(key));
    store::Lease second = b.tryAcquireLease(key);
    EXPECT_TRUE(second.held()) << "released leases are re-acquirable";
}

TEST(ProfileLease, StaleLeasesAreBrokenAndRetaken)
{
    const std::string dir = freshDir("profile-lease-stale");
    ASSERT_TRUE(store::makeDirs(dir));
    store::ProfileStore store(dir);
    funcsim::ProfileKey key;
    key.kernelHash = 7;

    const std::string lease_path =
        dir + "/" + store::fileStem("profile", key.str()) + ".lease";
    {
        std::ofstream marker(lease_path);
        marker << 999999999 << " " << 1 << "\n"; // dead pid, ancient
    }
    EXPECT_FALSE(store.leaseHeld(key));
    store::Lease stolen = store.tryAcquireLease(key);
    EXPECT_TRUE(stolen.held());
    stolen.release();

    // A live-pid lease ages out under a shrunk threshold.
    const auto one_minute_ago =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count() -
        60'000;
    {
        std::ofstream marker(lease_path);
        marker << ::getpid() << " " << one_minute_ago << "\n";
    }
    EXPECT_TRUE(store.leaseHeld(key));
    store.setLeaseStaleAfter(std::chrono::milliseconds(10));
    EXPECT_FALSE(store.leaseHeld(key));
    store::Lease aged = store.tryAcquireLease(key);
    EXPECT_TRUE(aged.held());
}

TEST(TimingLease, KeyedByProfileKeyAndTimingFingerprint)
{
    const std::string dir = freshDir("timing-lease");
    store::TimingStore store(dir);
    funcsim::ProfileKey key;
    key.kernelHash = 11;
    const arch::TimingFingerprint fp =
        arch::TimingFingerprint::of(arch::GpuSpec::gtx285());
    const arch::TimingFingerprint fp2 =
        arch::TimingFingerprint::of(arch::GpuSpec::gtx285MoreBlocks());

    store::Lease held = store.tryAcquireLease(key, fp);
    ASSERT_TRUE(held.held());
    EXPECT_TRUE(store.leaseHeld(key, fp));
    EXPECT_FALSE(store.tryAcquireLease(key, fp).held());
    // The same profile under another timing fingerprint is another
    // replay — its lease is independent.
    EXPECT_TRUE(store.tryAcquireLease(key, fp2).held());

    held.release();
    EXPECT_FALSE(store.leaseHeld(key, fp));
}

/**
 * Run one cell on two runners sharing @p dir concurrently — stand-ins
 * for two sharded processes — and return them for their counters.
 */
std::pair<std::unique_ptr<driver::BatchRunner>,
          std::unique_ptr<driver::BatchRunner>>
runConcurrently(const std::string &dir, const driver::KernelCase &kc,
                const arch::GpuSpec &spec)
{
    driver::BatchRunner::Options opts;
    opts.numThreads = 1;
    opts.storeDir = dir;
    auto first = std::make_unique<driver::BatchRunner>(opts);
    auto second = std::make_unique<driver::BatchRunner>(opts);
    first->adoptCalibration(spec, sharedFakeTables());
    second->adoptCalibration(spec, sharedFakeTables());

    std::vector<driver::BatchResult> ra, rb;
    std::thread t1([&]() { ra = first->run({kc}, {spec}); });
    std::thread t2([&]() { rb = second->run({kc}, {spec}); });
    t1.join();
    t2.join();

    EXPECT_EQ(ra.size(), 1u);
    EXPECT_EQ(rb.size(), 1u);
    if (ra.size() == 1 && rb.size() == 1) {
        EXPECT_TRUE(ra[0].ok) << ra[0].error;
        EXPECT_TRUE(rb[0].ok) << rb[0].error;
        // Both sides produced the identical cell (bit-exact seconds).
        EXPECT_EQ(ra[0].analysis.measurement.timing.cycles,
                  rb[0].analysis.measurement.timing.cycles);
        EXPECT_EQ(ra[0].analysis.prediction.totalSeconds,
                  rb[0].analysis.prediction.totalSeconds);
    }
    return {std::move(first), std::move(second)};
}

TEST(ProfileLease, ConcurrentRunnersSplitTheFuncsim)
{
    // The lease must hand the functional simulation to exactly one of
    // the two runners; the other waits and loads the published
    // entry. Pinned on the runners' funcsimsComputed counter, not on
    // timing.
    const std::string dir = freshDir("profile-lease-split");
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    const auto kc = driver::makeSaxpyCase("lease-saxpy", 8, 128, 2.0f);

    const auto [first, second] = runConcurrently(dir, kc, spec);
    EXPECT_EQ(first->funcsimsComputed() + second->funcsimsComputed(),
              1u)
        << "the funcsim must run at most once between the runners";
}

TEST(TimingLease, ConcurrentRunnersSplitTheReplay)
{
    // A warm profile store, then two runners on a spec that shares
    // the profile's funcsim fingerprint but not its timing
    // fingerprint: neither simulates, and the timing lease hands the
    // replay to exactly one of them.
    const std::string dir = freshDir("timing-lease-split");
    const auto kc = driver::makeSaxpyCase("lease-saxpy-t", 8, 128,
                                          2.0f);
    const arch::GpuSpec warm_spec = arch::GpuSpec::gtx285();
    arch::GpuSpec spec = warm_spec;
    spec.name = "GTX 285 + 2x memory latency";
    spec.globalLatencyCycles *= 2;
    ASSERT_EQ(arch::FuncsimFingerprint::of(spec).key(),
              arch::FuncsimFingerprint::of(warm_spec).key());
    ASSERT_FALSE(arch::TimingFingerprint::of(spec) ==
                 arch::TimingFingerprint::of(warm_spec));

    driver::BatchRunner::Options opts;
    opts.storeDir = dir;
    driver::BatchRunner warmer(opts);
    warmer.adoptCalibration(warm_spec, sharedFakeTables());
    ASSERT_TRUE(warmer.run({kc}, {warm_spec})[0].ok);
    ASSERT_EQ(warmer.funcsimsComputed(), 1u);

    const auto [first, second] = runConcurrently(dir, kc, spec);
    EXPECT_EQ(first->funcsimsComputed() + second->funcsimsComputed(),
              0u)
        << "both runners must load the stored profile";
    EXPECT_EQ(first->timingsComputed() + second->timingsComputed(), 1u)
        << "the replay must run at most once between the runners";
}

} // namespace
} // namespace gpuperf
