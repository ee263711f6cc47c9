/**
 * @file
 * Golden wire fixtures. Every codec's bytes are pinned to committed
 * files under tests/golden/: requests and responses (binary and
 * JSON), every store payload, full store entries with and without the
 * checksum trailer, the store and cost keys derived from encoded
 * bytes, and the result-store key of one fixed cell. For each fixture
 * the test checks that encoding a fixed value reproduces the file
 * exactly, and that decoding the file and encoding the result gives
 * the same bytes again.
 *
 * The test never rewrites a fixture. On a mismatch it writes the bytes
 * the code produced to TempDir()/gpuperf-golden-actual/ for
 * inspection (tests/golden.h).
 * An intended wire change bumps kSchemaVersion (or the store's
 * kFormatVersion) and replaces the fixtures in the same commit.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <new>

#include "api/cell_cost.h"
#include "api/codecs.h"
#include "api/json.h"
#include "api/request.h"
#include "driver/batch_runner.h"
#include "driver/demo_cases.h"
#include "isa/builder.h"
#include "store/calibration_store.h"
#include "store/codecs.h"
#include "store/result_store.h"
#include "store/serializer.h"

#include "golden.h"

/** The largest single allocation this test binary has made. */
static std::atomic<size_t> g_largest_alloc{0};

[[gnu::noinline]] void *
operator new(size_t n)
{
    size_t seen = g_largest_alloc.load();
    while (n > seen && !g_largest_alloc.compare_exchange_weak(seen, n)) {
    }
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

/**
 * The nothrow form too (std::stable_sort's buffer uses it): otherwise a
 * sanitizer's own nothrow new would pair with the delete below.
 */
[[gnu::noinline]] void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    try {
        return operator new(n);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}

namespace gpuperf {
namespace {

using api::AnalysisRequest;
using api::AnalysisResponse;
using store::ByteReader;
using store::ByteWriter;

// --- Fixed values -------------------------------------------------------

isa::Kernel
goldenKernel()
{
    isa::KernelBuilder b("golden-kernel");
    const isa::Reg lane = b.reg();
    const isa::Reg addr = b.reg();
    const isa::Reg v = b.reg();
    const isa::Pred p = b.pred();
    b.s2r(lane, isa::SpecialReg::kLaneId);
    b.shlImm(addr, lane, 2);
    b.setpIImm(p, isa::CmpOp::kGe, lane, 7);
    b.beginIf(p, /*negate=*/true);
    b.ldg(v, addr, 256);
    b.iaddImm(v, v, -3);
    b.stg(addr, v, 256);
    b.endIf();
    return b.build(64);
}

/** A ref job and an inline job, every enum off its default. */
AnalysisRequest
goldenRequest()
{
    AnalysisRequest req;
    req.jobName = "golden \"job\"\n";
    req.clientId = "tenant-a";
    req.kernels.push_back(api::KernelJob::fromRef(
        "saxpy-ref", api::CaseRef{"saxpy",
                                  {8, 128, -3, int64_t{1} << 40},
                                  {2.0, 0.1, -0.0}}));
    api::InlineLaunch launch{goldenKernel(), funcsim::LaunchConfig{3, 64},
                             {}, 4096, {}};
    launch.options.collectTrace = true;
    launch.options.homogeneous = true;
    launch.options.sampleBlocks = 2;
    launch.options.maxWarpOps = (uint64_t{1} << 53) + 1;
    launch.memoryImage.resize(300);
    for (size_t i = 0; i < launch.memoryImage.size(); ++i)
        launch.memoryImage[i] = static_cast<char>(i * 37);
    req.kernels.push_back(
        api::KernelJob::fromInline("inline-job", std::move(launch)));

    arch::GpuSpec a = arch::GpuSpec::gtx285();
    a.coreClockHz = 1.4760000000000001e9;
    arch::GpuSpec b = arch::GpuSpec::gtx285PrimeBanks();
    b.textureCacheEnabled = true;
    b.issueOverheadCycles = 1.0 / 3.0;
    req.specs = {a, b};
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {4.0, 16.5};
    req.sweep.coalescingFractions = {0.25, 1.0};
    req.store.storeDir = "/var/tmp/golden-store";
    req.store.reuseStoredResults = false;
    req.exec.numThreads = 3;
    req.exec.engine = timing::ReplayEngine::kLegacyScan;
    req.exec.delivery = api::ExecutionPolicy::Delivery::kStream;
    return req;
}

model::Prediction
goldenPrediction(double scale)
{
    model::Prediction p;
    model::StagePrediction s0;
    s0.tInstr = 1e-6 * scale;
    s0.tShared = -0.0;
    s0.tGlobal = 2.5e-6 * scale;
    s0.bottleneck = model::Component::kGlobal;
    s0.stageTime = 2.5e-6 * scale;
    s0.activeWarpsPerSm = 12.0;
    s0.sharedBandwidth = 7.5e10;
    model::StagePrediction s1 = s0;
    s1.tShared = 3.0000000000000004e-6;
    s1.bottleneck = model::Component::kShared;
    s1.stageTime = s1.tShared;
    p.stages = {s0, s1};
    p.serialized = true;
    p.tInstrTotal = 2e-6 * scale;
    p.tSharedTotal = s1.tShared;
    p.tGlobalTotal = 5e-6 * scale;
    p.totalSeconds = 1.2345678901234567e-5 * scale;
    p.bottleneck = model::Component::kGlobal;
    p.nextBottleneck = model::Component::kShared;
    return p;
}

/** An ok cell: NaN/±Inf, -0.0, counters above 2^53, every what-if. */
driver::BatchResult
goldenCell()
{
    driver::BatchResult c;
    c.kernelName = "k0";
    c.specName = "GTX 285";
    c.ok = true;

    funcsim::StageStats s0;
    for (size_t i = 0; i < s0.typeCounts.size(); ++i)
        s0.typeCounts[i] = 100 + i;
    s0.typeCounts[1] = (uint64_t{1} << 60) + 12345;
    s0.madCount = 7;
    s0.totalWarpInstrs = (uint64_t{1} << 53) + 1;
    s0.sharedInstrs = 3;
    s0.globalInstrs = 4;
    s0.sharedTransactions = 5;
    s0.sharedTransactionsIdeal = 2;
    s0.sharedBytes = 1024;
    s0.globalTransactions = 9;
    s0.globalBytes = 288;
    s0.globalRequestBytes = 256;
    s0.globalXactBySize = {{32, 3}, {64, 0}, {128, (uint64_t{1} << 55) + 9}};
    s0.activeWarpsPerBlock = 0.30000000000000004;
    funcsim::StageStats s1 = s0;
    s1.globalXactBySize.clear();
    s1.activeWarpsPerBlock = -0.0;
    funcsim::DynamicStats &stats = c.analysis.measurement.stats;
    stats.stages = {s0, s1};
    stats.gridDim = 4;
    stats.blockDim = 128;
    stats.warpsPerBlock = 4;
    stats.barriersPerBlock = 1;
    stats.sampledBlocks = 2;

    timing::TimingResult &t = c.analysis.measurement.timing;
    t.cycles = 1.0 / 3.0;
    t.seconds = 5e-324;
    t.totalOps = (uint64_t{1} << 62) + 1;
    t.arithBusyCycles = HUGE_VAL;
    t.sharedBusyCycles = -HUGE_VAL;
    t.portBusyCycles = std::nan("");
    t.texHits = UINT64_MAX;
    t.texMisses = 0;
    t.occupancy = {1, 2, 3, 4, 5, 6, 7, arch::OccupancyLimit::Warps, 4};

    model::StageInput in0;
    for (size_t i = 0; i < in0.typeCounts.size(); ++i)
        in0.typeCounts[i] = 7 * i;
    in0.typeCounts[2] = (uint64_t{1} << 54) + 3;
    in0.madCount = 11;
    in0.totalWarpInstrs = 99;
    in0.sharedTransactions = 12;
    in0.sharedTransactionsIdeal = 6;
    in0.sharedBytes = 768;
    in0.globalTransactions = 13;
    in0.globalBytes = 416;
    in0.globalRequestBytes = 400;
    in0.effective64Xacts = std::nan("");
    in0.activeWarpsPerSm = HUGE_VAL;
    model::StageInput in1 = in0;
    in1.effective64Xacts = 6.5;
    in1.activeWarpsPerSm = -0.0;
    model::ModelInput &input = c.analysis.input;
    input.stages = {in0, in1};
    input.gridDim = 4;
    input.blockDim = 128;
    input.occupancy = {8, 7, 6, 5, 4, 3, 12,
                       arch::OccupancyLimit::SharedMemory, 4};
    input.concurrentBlocksPerSm = 3;
    input.stagesSerialized = true;

    c.analysis.prediction = goldenPrediction(1.0);
    c.analysis.metrics.computationalDensity = 0.1;
    c.analysis.metrics.bankConflictFactor = 16.000000000000004;
    c.analysis.metrics.coalescingEfficiency = 0.875;
    c.analysis.metrics.avgActiveWarpsPerBlock = -HUGE_VAL;

    const driver::SweepPoint::Kind kinds[] = {
        driver::SweepPoint::Kind::kWarpsPerSm,
        driver::SweepPoint::Kind::kCoalescingFraction,
        driver::SweepPoint::Kind::kNoBankConflicts};
    const double values[] = {16.0, 0.5, 0.0};
    for (int i = 0; i < 3; ++i) {
        driver::RankedWhatIf wi;
        wi.point.kind = kinds[i];
        wi.point.value = values[i];
        wi.result.before = c.analysis.prediction;
        wi.result.after = goldenPrediction(0.5 + 0.125 * i);
        c.whatifs.push_back(wi);
    }
    return c;
}

/** One ok cell and one failed cell. */
AnalysisResponse
goldenResponse()
{
    AnalysisResponse resp;
    resp.jobName = "golden";
    resp.numKernels = 2;
    resp.numSpecs = 1;
    resp.cells.push_back(goldenCell());
    driver::BatchResult failed;
    failed.kernelName = "k1";
    failed.specName = "GTX 285";
    failed.ok = false;
    failed.error = "factory exploded: \"quoted\"\npath\t/x";
    resp.cells.push_back(failed);
    return resp;
}

funcsim::KernelProfile
goldenProfile()
{
    funcsim::KernelProfile p;
    p.key.kernelHash = 0x0123456789abcdefull;
    p.key.inputHash = 0xfedcba9876543210ull;
    p.key.cfg = {30, 96};
    p.key.homogeneous = true;
    p.key.sampleBlocks = 2;
    p.key.maxWarpOps = uint64_t{1} << 32;
    p.key.fingerprint =
        arch::FuncsimFingerprint::of(arch::GpuSpec::gtx285());
    p.kernelName = "golden-kernel";
    p.resources = {12, 2064, 96};
    p.stats = goldenCell().analysis.measurement.stats;

    auto op = [](isa::UnitKind unit, uint8_t conflict, uint16_t dst,
                 uint16_t numXacts, uint32_t xactBytes, uint32_t texIdx) {
        funcsim::TraceOp o;
        o.unit = unit;
        o.conflict = conflict;
        o.sharedPasses = conflict > 1 ? 1 : 0;
        o.dst = dst;
        o.src[0] = 1;
        o.src[1] = 0xffff;
        o.src[2] = 3;
        o.numXacts = numXacts;
        o.xactBytes = xactBytes;
        o.texIdx = texIdx;
        return o;
    };
    funcsim::WarpTrace w0;
    w0.ops = {op(isa::UnitKind::kArithII, 1, 3, 0, 0, 0),
              op(isa::UnitKind::kSharedMem, 4, 0, 0, 0, 0),
              op(isa::UnitKind::kGlobalLoad, 1, 5, 2, 128, 0),
              op(isa::UnitKind::kTexLoad, 1, 6, 1, 32, 1),
              op(isa::UnitKind::kBarrier, 1, 0, 0, 0, 0),
              op(isa::UnitKind::kNone, 1, 0, 0, 0, 0)};
    w0.texLines = {7, 8, 0xffffffffu};
    funcsim::WarpTrace w1;
    w1.ops = {op(isa::UnitKind::kGlobalStore, 1, 0, 4, 512, 0)};
    p.trace.pool = {w0, w1};
    p.trace.blocks = {{{0, 1}}, {{1, 0}}, {{0, 0}}};
    p.trace.blockDim = 96;
    p.trace.warpsPerBlock = 3;
    p.trace.registersPerThread = 12;
    p.trace.sharedBytesPerBlock = 2064;
    return p;
}

model::CalibrationTables
goldenTables()
{
    model::CalibrationTables t;
    t.maxWarps = 4;
    t.bytesPerPass = 64;
    for (int type = 0; type < arch::kNumInstrTypes; ++type) {
        t.instrThroughput[type] = {0.0};
        for (int w = 1; w <= 4; ++w)
            t.instrThroughput[type].push_back(1e9 * (type + 1) * w / 3.0);
    }
    t.sharedPassThroughput = {0.0, 2e10, 4e10, 6e10, 8e10};
    return t;
}

std::vector<store::CalibrationStore::BenchEntry>
goldenBenchEntries()
{
    model::GlobalBenchResult a;
    a.seconds = 1e-4;
    a.transactions = (uint64_t{1} << 40) + 3;
    a.requestBytes = 4096;
    a.bandwidth = 2.5e10;
    a.xactThroughput = 1.0 / 3.0;
    model::GlobalBenchResult b;
    b.seconds = 3.5e-5;
    b.transactions = 17;
    b.requestBytes = 544;
    b.bandwidth = 1.5e10;
    b.xactThroughput = 4.857142857142857e5;
    return {{std::make_tuple(30, 256, 4), a},
            {std::make_tuple(60, 128, 1), b}};
}

// --- Fixture plumbing ---------------------------------------------------

using golden::matchesGolden;

/**
 * A scratch store directory per @p tag, created once per process and
 * emptied of its one entry file by the caller (decoders run once per
 * prefix, so no fresh directory per call).
 */
std::string
scratchDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "gpuperf-codecs-" +
                            std::to_string(::getpid()) + "/" + tag;
    store::makeDirs(dir);
    return dir;
}

/** The spec the .bench fixture is keyed under. */
arch::GpuSpec
storeSpec()
{
    return arch::GpuSpec::gtx285();
}

std::string
benchKey()
{
    return "bench|" + storeSpec().fingerprint();
}

std::string
benchPath(const std::string &dir)
{
    return dir + "/" + store::fileStem(storeSpec().name, benchKey()) +
           ".bench";
}

std::string
payloadAt(const std::string &path, uint32_t version,
          const std::string &key)
{
    std::string payload;
    EXPECT_TRUE(store::readEntryFile(path, version, key, &payload))
        << path;
    return payload;
}

const std::string kResultKey = "golden|result-key";

/** The one fixed cell behind the pinned result-store key. */
driver::KernelCase
keyedCase()
{
    return driver::makeSaxpyCase("saxpy-key", 4, 128, 2.0f);
}

driver::SweepSpec
keyedSweep()
{
    driver::SweepSpec sweep;
    sweep.noBankConflicts = true;
    sweep.warpsPerSm = {16.0};
    return sweep;
}

/**
 * keyedCase()'s result-store key under storeSpec() and goldenTables(),
 * built from public pieces in the format of BatchRunner's private
 * resultKey(), which bench_gpuperf/layers.cc copies:
 * len:name|profileKey|spec=...|cal=%016llx|sweep=...
 */
std::string
keyedResultKey()
{
    const driver::KernelCase kc = keyedCase();
    const driver::PreparedLaunch launch = kc.make();
    const funcsim::ProfileKey key =
        funcsim::makeProfileKey(launch.kernel, launch.cfg, launch.options,
                                storeSpec(), *launch.gmem);
    char cal[32];
    std::snprintf(cal, sizeof(cal), "%016llx",
                  static_cast<unsigned long long>(
                      store::tablesDigest(goldenTables())));
    return std::to_string(kc.name.size()) + ":" + kc.name + "|" +
           key.str() + "|spec=" + storeSpec().fingerprint() +
           "|cal=" + cal + "|sweep=" + keyedSweep().fingerprint();
}

/**
 * One fixture: how to encode its fixed value, and how to decode a
 * candidate file (returning false on malformed input) and re-encode
 * what was decoded.
 */
struct Codec
{
    std::string file;
    std::function<std::string()> encode;
    std::function<bool(const std::string &, std::string *)> decode;
    bool json = false;
};

template <class T>
using BinWrite = void (*)(ByteWriter &, const T &);
template <class T>
using BinRead = bool (*)(ByteReader &, T *);

/** A binary payload codec: the whole input must be consumed. */
template <class T>
Codec
binaryCodec(const std::string &file, T value, BinWrite<T> write,
            BinRead<T> read)
{
    Codec c;
    c.file = file;
    c.encode = [value, write] {
        ByteWriter w;
        write(w, value);
        return w.bytes();
    };
    c.decode = [write, read](const std::string &bytes, std::string *out) {
        ByteReader r(bytes);
        T back;
        if (!read(r, &back) || !r.atEnd())
            return false;
        ByteWriter w;
        write(w, back);
        *out = w.bytes();
        return true;
    };
    return c;
}

std::string
resultPayload()
{
    ByteWriter w;
    wire::encode(w, goldenCell());
    return w.bytes();
}

/** Decode an entry blob through the result store's load path. */
bool
decodeResultEntry(const std::string &blob, std::string *out)
{
    static const std::string dir = scratchDir("entry");
    const std::string path = dir + "/" +
                             store::fileStem("result", kResultKey) +
                             ".result";
    std::ofstream(path, std::ios::binary | std::ios::trunc) << blob;
    store::ResultStore rs(dir);
    const auto result = rs.load(kResultKey);
    if (!result)
        return false;
    ByteWriter w;
    wire::encode(w, *result);
    *out = store::encodeEntryBlob(store::ResultStore::kFormatVersion,
                                  kResultKey, w.bytes());
    if (blob.size() + store::kChecksumTrailerBytes == out->size())
        out->resize(blob.size()); // a legacy entry stays trailer-less
    return true;
}

std::vector<Codec>
allCodecs()
{
    std::vector<Codec> codecs;
    codecs.push_back(binaryCodec<AnalysisRequest>(
        "request.bin", goldenRequest(), api::writeRequest,
        api::readRequest));
    codecs.push_back(binaryCodec<AnalysisResponse>(
        "response.bin", goldenResponse(), api::writeResponse,
        api::readResponse));
    codecs.push_back(binaryCodec<funcsim::KernelProfile>(
        "profile.bin", goldenProfile(), wire::encode<funcsim::KernelProfile>,
        wire::decode<funcsim::KernelProfile>));
    codecs.push_back(binaryCodec<timing::TimingResult>(
        "timing.bin", goldenCell().analysis.measurement.timing,
        wire::encode<timing::TimingResult>,
        wire::decode<timing::TimingResult>));
    codecs.push_back(binaryCodec<model::CalibrationTables>(
        "tables.bin", goldenTables(), wire::encode<model::CalibrationTables>,
        wire::decode<model::CalibrationTables>));
    codecs.push_back(binaryCodec<driver::BatchResult>(
        "result.bin", goldenCell(), wire::encode<driver::BatchResult>,
        wire::decode<driver::BatchResult>));

    Codec req_json;
    req_json.file = "request.json";
    req_json.json = true;
    req_json.encode = [] { return api::requestToJson(goldenRequest()); };
    req_json.decode = [](const std::string &text, std::string *out) {
        AnalysisRequest back;
        std::string error;
        if (!api::requestFromJson(text, &back, &error))
            return false;
        *out = api::requestToJson(back);
        return true;
    };
    codecs.push_back(req_json);

    Codec resp_json;
    resp_json.file = "response.json";
    resp_json.json = true;
    resp_json.encode = [] {
        return api::responseToJson(goldenResponse());
    };
    resp_json.decode = [](const std::string &text, std::string *out) {
        AnalysisResponse back;
        std::string error;
        if (!api::responseFromJson(text, &back, &error))
            return false;
        *out = api::responseToJson(back);
        return true;
    };
    codecs.push_back(resp_json);

    // .bench: the calibration store's synthetic-benchmark memo.
    Codec bench;
    bench.file = "bench.bin";
    bench.encode = [] {
        const std::string dir = scratchDir("bench");
        std::remove(benchPath(dir).c_str());
        store::CalibrationStore cs(dir);
        EXPECT_TRUE(cs.saveBenchResults(storeSpec(), goldenBenchEntries()));
        return payloadAt(benchPath(dir),
                         store::CalibrationStore::kFormatVersion,
                         benchKey());
    };
    bench.decode = [](const std::string &payload, std::string *out) {
        static const std::string in = scratchDir("bench-in");
        store::writeEntryFile(benchPath(in),
                              store::CalibrationStore::kFormatVersion,
                              benchKey(), payload);
        auto entries = store::CalibrationStore(in).loadBenchResults(
            storeSpec());
        if (entries.empty())
            return false;
        static const std::string again = scratchDir("bench-out");
        std::remove(benchPath(again).c_str());
        store::CalibrationStore(again).saveBenchResults(storeSpec(),
                                                        entries);
        *out = payloadAt(benchPath(again),
                         store::CalibrationStore::kFormatVersion,
                         benchKey());
        return true;
    };
    codecs.push_back(bench);

    // Whole store entries: one with the checksum trailer, one legacy
    // entry written before the trailer existed.
    Codec entry;
    entry.file = "entry_result.bin";
    entry.encode = [] {
        return store::encodeEntryBlob(store::ResultStore::kFormatVersion,
                                      kResultKey, resultPayload());
    };
    entry.decode = decodeResultEntry;
    codecs.push_back(entry);

    Codec legacy = entry;
    legacy.file = "entry_legacy.bin";
    legacy.encode = [] {
        std::string blob = store::encodeEntryBlob(
            store::ResultStore::kFormatVersion, kResultKey,
            resultPayload());
        blob.resize(blob.size() - store::kChecksumTrailerBytes);
        return blob;
    };
    codecs.push_back(legacy);
    return codecs;
}

// --- The checks ---------------------------------------------------------

TEST(GoldenTest, EncodingMatchesTheFixture)
{
    for (const Codec &c : allCodecs()) {
        SCOPED_TRACE(c.file);
        EXPECT_TRUE(matchesGolden(c.file, c.encode()));
    }
}

TEST(GoldenTest, DecodingReencodesIdentically)
{
    for (const Codec &c : allCodecs()) {
        SCOPED_TRACE(c.file);
        const std::string bytes = golden::read(c.file);
        ASSERT_FALSE(bytes.empty());
        std::string again;
        ASSERT_TRUE(c.decode(bytes, &again));
        EXPECT_TRUE(matchesGolden(c.file, again));
    }
}

TEST(GoldenTest, SchemaV1ShapedRequestWithoutClientIsAccepted)
{
    // Hand-written and pre-fair-share requests carry no "client" key.
    AnalysisRequest back;
    std::string error;
    ASSERT_TRUE(api::requestFromJson(golden::read("request_v1.json"),
                                     &back, &error))
        << error;
    EXPECT_EQ(back.clientId, "");
    AnalysisRequest want = goldenRequest();
    want.clientId.clear();
    ByteWriter a;
    ByteWriter b;
    api::writeRequest(a, back);
    api::writeRequest(b, want);
    EXPECT_TRUE(a.bytes() == b.bytes());
}

TEST(GoldenTest, HandWrittenU64NumbersAreAccepted)
{
    // Writers emit u64 values as decimal strings; hand-written JSON
    // may use plain numbers.
    std::string text = golden::read("request.json");
    const std::string quoted = "\"capacity\": \"4096\"";
    const size_t at = text.find(quoted);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, quoted.size(), "\"capacity\": 4096");
    AnalysisRequest back;
    std::string error;
    ASSERT_TRUE(api::requestFromJson(text, &back, &error)) << error;
    ByteWriter w;
    api::writeRequest(w, back);
    EXPECT_TRUE(matchesGolden("request.bin", w.bytes()));
}

TEST(GoldenTest, StoreKeysAndCostKeysDoNotMove)
{
    // tablesDigest keys every persisted result; cellCostKey keys the
    // scheduler's persisted cost history. Both hash encoded bytes.
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      store::tablesDigest(goldenTables())));
    const std::string text = std::string("tablesDigest ") + digest +
                             "\ncellCostKey " +
                             api::cellCostKey(goldenRequest()) +
                             "\nresultKey " + keyedResultKey() + "\n";
    EXPECT_TRUE(matchesGolden("constants.txt", text));
}

TEST(GoldenTest, ResultStoreKeyIsWhatTheRunnerWrites)
{
    // Every warm store, and the benchmark's layer path, finds finished
    // cells under this key: a drift would turn them all into misses.
    driver::BatchRunner::Options opts;
    opts.numThreads = 1;
    opts.storeDir = scratchDir("result-key");
    driver::BatchRunner runner(opts);
    runner.adoptCalibration(
        storeSpec(),
        std::make_shared<const model::CalibrationTables>(goldenTables()));
    const auto cells = runner.run({keyedCase()}, {storeSpec()}, keyedSweep());
    ASSERT_EQ(cells.size(), 1u);
    ASSERT_TRUE(cells[0].ok) << cells[0].error;
    EXPECT_NE(runner.resultStore()->load(keyedResultKey()), nullptr);
}

TEST(GoldenTest, UnknownJsonKeysAreRejected)
{
    // A key the field walk does not name fails the read, naming the
    // key: a hand-written request still setting a retired option must
    // not silently run something else.
    const std::string text = golden::read("request.json");
    const auto injected = [&text](const std::string &after,
                                  const std::string &member) {
        std::string forged = text;
        const size_t at = forged.find(after);
        EXPECT_NE(at, std::string::npos) << after;
        forged.insert(at + after.size(), member + ",");
        return forged;
    };
    const struct
    {
        std::string after;
        std::string member;
        std::string key;
    } cases[] = {
        {"\"exec\": {", "\"pipeline\": \"per-cell\"", "pipeline"},
        {"\"exec\": {", "\"shareTiming\": false", "shareTiming"},
        {"\"store\": {", "\"calibrationCacheDir\": \"calib\"",
         "calibrationCacheDir"},
        {"\"exec\": {", "\"pipelin\": \"shared\"", "pipelin"},
        {"{", "\"jobb\": \"x\"", "jobb"},
        // A ref job that also carries an inline body.
        {"\"name\": \"inline-job\",",
         "\"case\": {\"factory\": \"saxpy\", \"iargs\": [], "
         "\"fargs\": []}",
         "case"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.key);
        AnalysisRequest back;
        std::string error;
        EXPECT_FALSE(api::requestFromJson(injected(c.after, c.member),
                                          &back, &error));
        EXPECT_EQ(error, "field '" + c.key + "' is unknown");
    }

    // Responses read as strictly.
    std::string resp = golden::read("response.json");
    resp.insert(resp.find('{') + 1, "\"numCells\": 2,");
    AnalysisResponse back;
    std::string error;
    EXPECT_FALSE(api::responseFromJson(resp, &back, &error));
    EXPECT_EQ(error, "field 'numCells' is unknown");
}

TEST(GoldenTest, EveryStrictPrefixFailsToDecode)
{
    const size_t legacy_cut =
        golden::read("entry_result.bin").size() -
        store::kChecksumTrailerBytes;
    for (const Codec &c : allCodecs()) {
        SCOPED_TRACE(c.file);
        const std::string bytes = golden::read(c.file);
        // dump() ends JSON with a newline; cutting only that is the
        // same document.
        const size_t n = c.json ? bytes.size() - 1 : bytes.size();
        for (size_t cut = 0; cut < n; ++cut) {
            // The trailer's own absence is the legacy entry format.
            if (c.file == "entry_result.bin" && cut == legacy_cut)
                continue;
            const std::string prefix = bytes.substr(0, cut);
            std::string again;
            if (c.json) {
                api::Json j;
                std::string error;
                EXPECT_FALSE(api::Json::parse(prefix, &j, &error))
                    << "cut at " << cut;
            }
            EXPECT_FALSE(c.decode(prefix, &again)) << "cut at " << cut;
        }
    }
    const std::string v1 = golden::read("request_v1.json");
    for (size_t cut = 0; cut + 1 < v1.size(); ++cut) {
        AnalysisRequest back;
        std::string error;
        EXPECT_FALSE(api::requestFromJson(v1.substr(0, cut), &back,
                                          &error))
            << "request_v1.json cut at " << cut;
    }
}

// --- Hardening -----------------------------------------------------------

TEST(WireInputTest, OutOfRangeTransactionSizeIsRejected)
{
    // The [size, count] keys of globalXactBySize are i32: a size a
    // double holds but an int does not must fail the read, not reach
    // an undefined cast.
    const std::string text = golden::read("response.json");
    const std::string pair = "[\n                  32,";
    const size_t at = text.find(pair);
    ASSERT_NE(at, std::string::npos);
    for (const char *size : {"1e300", "2147483648", "-2147483649"}) {
        SCOPED_TRACE(size);
        std::string forged = text;
        forged.replace(at + pair.size() - 3, 2, size);
        AnalysisResponse back;
        std::string error;
        EXPECT_FALSE(api::responseFromJson(forged, &back, &error));
        EXPECT_NE(error.find("globalXactBySize"), std::string::npos)
            << error;
    }
}

TEST(WireInputTest, ForgedCountsFailBeforeAllocating)
{
    // An inline job claiming 2^24 instructions in a ~60-byte frame:
    // the count alone exceeds what the bytes left could hold.
    ByteWriter w;
    w.u32(api::kSchemaVersion);
    w.str("forged");
    w.str("");
    w.u64(1);        // one kernel job
    w.str("job");
    w.u8(1);         // inline
    w.str("kernel");
    w.i32(1);        // registers
    w.i32(0);        // predicates
    w.i32(0);        // shared bytes
    w.u64(uint64_t{1} << 24);
    ByteReader r(w.bytes());
    AnalysisRequest req;
    g_largest_alloc = 0;
    EXPECT_FALSE(api::readRequest(r, &req));
    // Reserving the claimed stream would take ~400 MB.
    EXPECT_LT(g_largest_alloc.load(), size_t{1} << 20);

    // Likewise a response claiming 2^20 cells.
    ByteWriter resp;
    resp.u32(api::kSchemaVersion);
    resp.str("forged");
    resp.u32(1);
    resp.u32(1);
    resp.u64(uint64_t{1} << 20);
    ByteReader rr(resp.bytes());
    AnalysisResponse back;
    g_largest_alloc = 0;
    EXPECT_FALSE(api::readResponse(rr, &back));
    EXPECT_LT(g_largest_alloc.load(), size_t{1} << 20);
    EXPECT_TRUE(back.cells.empty());
}

// --- Equality -------------------------------------------------------------

TEST(ResponsesEqualTest, ComparesDoublesBitForBit)
{
    const AnalysisResponse a = goldenResponse();
    std::string why;
    ASSERT_TRUE(api::responsesEqual(a, goldenResponse(), &why)) << why;

    // NaN equals NaN with the same bits; -0.0 and +0.0 differ.
    ASSERT_TRUE(std::isnan(a.cells[0].analysis.input.stages[0]
                               .effective64Xacts));
    AnalysisResponse b = goldenResponse();
    ASSERT_TRUE(std::signbit(
        b.cells[0].analysis.prediction.stages[0].tShared));
    b.cells[0].analysis.prediction.stages[0].tShared = +0.0;
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cell 0 (k0 x GTX 285): "
                   "analysis.prediction.stages[0].tShared");

    b = goldenResponse();
    b.cells[0].whatifs[2].result.after.nextBottleneck =
        model::Component::kInstruction;
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cell 0 (k0 x GTX 285): whatifs[2].after.nextBottleneck");

    b = goldenResponse();
    b.cells[1].error += "!";
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cell 1 (k1 x GTX 285): error");

    b = goldenResponse();
    b.cells[0].analysis.measurement.stats.stages[0].globalXactBySize[64] = 1;
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cell 0 (k0 x GTX 285): "
                   "analysis.stats.stages[0].globalXactBySize[1].second");

    b = goldenResponse();
    b.cells.pop_back();
    EXPECT_FALSE(api::responsesEqual(a, b, &why));
    EXPECT_EQ(why, "cells");
}

// --- GpuSpec::fingerprint() coverage ---------------------------------------

/** Changes the @p target-th field a walk names, and records its key. */
struct PerturbOne
{
    int target;
    int seen = 0;
    const char *key = nullptr;

    template <class T>
    void operator()(const char *k, T &x, unsigned = wire::kPlain)
    {
        if (seen++ == target) {
            key = k;
            bump(x);
        }
    }
    void bump(int &x) { x += 1; }
    void bump(double &x) { x = x * 2 + 1; }
    void bump(bool &x) { x = !x; }
    void bump(std::string &x) { x += "'"; }
};

TEST(FingerprintTest, EveryWalkedGpuSpecFieldMovesTheFingerprint)
{
    // GpuSpec::fingerprint() keys stored calibrations and results and
    // is written by hand: a field the walk carries but the fingerprint
    // misses would alias cached work across different machines.
    const std::string base = arch::GpuSpec::gtx285().fingerprint();
    int fields_seen = 0;
    for (int k = 0;; ++k) {
        arch::GpuSpec spec = arch::GpuSpec::gtx285();
        PerturbOne perturb{k};
        wire::fields(perturb, spec);
        if (!perturb.key)
            break;
        ++fields_seen;
        EXPECT_NE(spec.fingerprint(), base) << perturb.key;
    }
    EXPECT_EQ(fields_seen, 37);
}

} // namespace
} // namespace gpuperf
