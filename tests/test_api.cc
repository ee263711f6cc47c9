/**
 * @file
 * The unified AnalysisService API: request/response codecs round-trip
 * bit-exactly (binary and JSON, including non-finite doubles and
 * >2^53 counters), the service reproduces the pre-redesign
 * BatchRunner/runSerial results double for double across worker
 * counts and store warmth, and malformed wire input fails softly.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "api/codecs.h"
#include "api/json.h"
#include "api/registry.h"
#include "api/request.h"
#include "api/service.h"
#include "driver/batch_runner.h"
#include "driver/demo_cases.h"
#include "isa/builder.h"
#include "store/codecs.h"
#include "store/serializer.h"

namespace gpuperf {
namespace api {
namespace {

std::string
freshDir(const std::string &tag)
{
    static int counter = 0;
    const std::string dir = ::testing::TempDir() + "gpuperf-api-" +
                            tag + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(counter++);
    (void)::system(("rm -rf " + dir).c_str());
    return dir;
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
            t.instrThroughput[type][w] = 1e10 * std::min(1.0, w / 8.0);
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 8.0);
    return t;
}

std::shared_ptr<const model::CalibrationTables>
sharedFakeTables()
{
    return std::make_shared<const model::CalibrationTables>(
        fakeTables());
}

/** The standard request every execution test uses: 3 refs x 2 specs. */
AnalysisRequest
testRequest()
{
    AnalysisRequest req;
    req.jobName = "test-batch";
    req.kernels.push_back(KernelJob::fromRef(
        "saxpy-small", CaseRef{"saxpy", {8, 128}, {2.0}}));
    req.kernels.push_back(KernelJob::fromRef(
        "conflicted", CaseRef{"shared-conflict", {8, 128, 8, 32}, {}}));
    req.kernels.push_back(KernelJob::fromRef(
        "hist", CaseRef{"histogram", {6, 128, 8, 4}, {}}));
    req.specs.push_back(arch::GpuSpec::gtx285());
    req.specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0, 32.0};
    req.sweep.coalescingFractions = {1.0};
    return req;
}

/** The same kernels as driver cases (for the pre-redesign paths). */
std::vector<driver::KernelCase>
testCases()
{
    return {driver::makeSaxpyCase("saxpy-small", 8, 128, 2.0f),
            driver::makeSharedConflictCase("conflicted", 8, 128, 8,
                                           32),
            driver::makeHistogramCase("hist", 6, 128, 8, 4)};
}

void
adoptAll(AnalysisService &service, const AnalysisRequest &req)
{
    for (const arch::GpuSpec &spec : req.specs)
        service.adoptCalibration(req, spec, sharedFakeTables());
}

/** Wrap pre-redesign results into a response for responsesEqual(). */
AnalysisResponse
asResponse(const AnalysisRequest &req,
           std::vector<driver::BatchResult> results)
{
    AnalysisResponse resp = makeResponseShell(req);
    resp.cells = std::move(results);
    return resp;
}

void
expectEqual(const AnalysisResponse &got, const AnalysisResponse &want)
{
    std::string why;
    EXPECT_TRUE(responsesEqual(got, want, &why)) << why;
}

/** A small inline job with a deterministic image. */
KernelJob
inlineSaxpyJob(const std::string &name)
{
    const int n = 4 * 128;
    funcsim::GlobalMemory gmem(1 << 20);
    const uint64_t x = gmem.alloc(static_cast<size_t>(n) * 4);
    const uint64_t y = gmem.alloc(static_cast<size_t>(n) * 4);
    for (int i = 0; i < n; ++i) {
        gmem.f32(x)[i] = 1.5f;
        gmem.f32(y)[i] = static_cast<float>(i % 3);
    }
    isa::KernelBuilder b("inline-saxpy");
    isa::Reg tid = b.reg();
    isa::Reg cta = b.reg();
    isa::Reg ntid = b.reg();
    isa::Reg gtid = b.reg();
    isa::Reg xa = b.reg();
    isa::Reg ya = b.reg();
    isa::Reg xv = b.reg();
    isa::Reg yv = b.reg();
    isa::Reg av = b.reg();
    b.s2r(tid, isa::SpecialReg::kTid);
    b.s2r(cta, isa::SpecialReg::kCtaid);
    b.s2r(ntid, isa::SpecialReg::kNtid);
    b.imad(gtid, cta, ntid, tid);
    b.shlImm(xa, gtid, 2);
    b.iaddImm(ya, xa, static_cast<int32_t>(y));
    b.iaddImm(xa, xa, static_cast<int32_t>(x));
    b.ldg(xv, xa);
    b.ldg(yv, ya);
    b.movImmF(av, 2.0f);
    b.fmad(yv, av, xv, yv);
    b.stg(ya, yv);
    funcsim::LaunchConfig cfg{4, 128};
    return KernelJob::fromInline(
        name, InlineLaunch::capture(b.build(), cfg, gmem));
}

// --- JSON primitives --------------------------------------------------

TEST(JsonTest, ParsesWhatItDumps)
{
    Json obj = Json::object();
    obj.set("s", Json::str("a \"quoted\"\nline\twith\\stuff"));
    obj.set("n", Json::number(-1.25e-17));
    obj.set("b", Json::boolean(true));
    obj.set("null", Json());
    Json arr = Json::array();
    arr.push(Json::number(1));
    arr.push(Json::str(""));
    arr.push(Json::array());
    arr.push(Json::object());
    obj.set("arr", std::move(arr));

    const std::string text = obj.dump();
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, &parsed, &error)) << error;
    // Insertion order is preserved, so re-dumping reproduces the
    // bytes — the property the check.sh smoke diffs rely on.
    EXPECT_EQ(parsed.dump(), text);
    EXPECT_EQ(parsed.find("s")->asString(),
              "a \"quoted\"\nline\twith\\stuff");
    EXPECT_EQ(parsed.find("n")->asNumber(), -1.25e-17);
}

TEST(JsonTest, RejectsMalformedInput)
{
    Json out;
    std::string error;
    EXPECT_FALSE(Json::parse("{\"a\": }", &out, &error));
    EXPECT_FALSE(Json::parse("[1, 2", &out, &error));
    EXPECT_FALSE(Json::parse("\"unterminated", &out, &error));
    EXPECT_FALSE(Json::parse("{} trailing", &out, &error));
    EXPECT_FALSE(error.empty());
}

TEST(JsonTest, HexRoundTrips)
{
    std::string bytes;
    for (int i = 0; i < 256; ++i)
        bytes.push_back(static_cast<char>(i));
    std::string back;
    ASSERT_TRUE(hexDecode(hexEncode(bytes), &back));
    EXPECT_EQ(back, bytes);
    EXPECT_FALSE(hexDecode("abc", &back)) << "odd length";
    EXPECT_FALSE(hexDecode("zz", &back)) << "non-hex digits";
}

// --- Request round trips ----------------------------------------------

/** Binary serialization as the canonical struct-equality probe. */
std::string
requestBytes(const AnalysisRequest &req)
{
    store::ByteWriter w;
    writeRequest(w, req);
    return w.bytes();
}

TEST(RequestCodecTest, BinaryRoundTripIsExact)
{
    AnalysisRequest req = testRequest();
    req.kernels.push_back(inlineSaxpyJob("inline-saxpy"));
    req.store.storeDir = "/tmp/somewhere";
    req.exec.numThreads = 3;
    req.exec.engine = timing::ReplayEngine::kAuto;
    req.exec.pipeline = ExecutionPolicy::Pipeline::kPerCell;
    req.exec.delivery = ExecutionPolicy::Delivery::kStream;

    const std::string bytes = requestBytes(req);
    store::ByteReader r(bytes);
    AnalysisRequest back;
    ASSERT_TRUE(readRequest(r, &back));
    EXPECT_TRUE(r.atEnd());
    EXPECT_EQ(requestBytes(back), requestBytes(req));
    EXPECT_EQ(back.exec.engine, timing::ReplayEngine::kAuto);
    EXPECT_EQ(back.kernels.back().inlined->memoryImage,
              req.kernels.back().inlined->memoryImage);
}

TEST(RequestCodecTest, JsonRoundTripIsExact)
{
    AnalysisRequest req = testRequest();
    req.kernels.push_back(inlineSaxpyJob("inline-saxpy"));
    // Doubles that need every one of %.17g's digits.
    req.specs[0].coreClockHz = 1.4760000000000001e9;
    req.specs[0].warpSharedPassIntervalCycles = 18.000000000000004;
    req.kernels[0].ref.fargs = {0.1, 1.0 / 3.0,
                                std::numeric_limits<double>::min()};

    const std::string text = requestToJson(req);
    AnalysisRequest back;
    std::string error;
    ASSERT_TRUE(requestFromJson(text, &back, &error)) << error;
    // Byte-identical binary serialization == every field round-tripped
    // exactly, doubles included.
    EXPECT_EQ(requestBytes(back), requestBytes(req));
    // And the JSON itself is stable (dump of parse of dump).
    EXPECT_EQ(requestToJson(back), text);
}

TEST(RequestCodecTest, RejectsWrongSchemaVersion)
{
    AnalysisRequest req = testRequest();
    req.schemaVersion = kSchemaVersion + 1;
    store::ByteWriter w;
    writeRequest(w, req);
    store::ByteReader r(w.bytes());
    AnalysisRequest back;
    EXPECT_FALSE(readRequest(r, &back));

    std::string error;
    std::string text = requestToJson(req);
    EXPECT_FALSE(requestFromJson(text, &back, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

/** Minimal inline-job request JSON around one instruction tuple. */
std::string
forgedInlineRequestJson(const std::string &instr_tuple, int regs)
{
    // 256 zero bytes of image (the minimum), 1 KiB capacity.
    const std::string image(512, '0');
    const std::string spec_json = [] {
        AnalysisRequest probe;
        probe.specs.push_back(arch::GpuSpec::gtx285());
        const std::string text = requestToJson(probe);
        const size_t begin = text.find("\"specs\"");
        const size_t open = text.find('{', begin);
        size_t depth = 0;
        for (size_t i = open; i < text.size(); ++i) {
            if (text[i] == '{')
                ++depth;
            else if (text[i] == '}' && --depth == 0)
                return text.substr(open, i - open + 1);
        }
        return std::string("{}");
    }();
    return "{\"schema\": 2, \"job\": \"forged\", \"kernels\": ["
           "{\"name\": \"bad\", \"inline\": {\"kernel\": "
           "{\"name\": \"bad\", \"registers\": " +
           std::to_string(regs) +
           ", \"predicates\": 1, \"sharedBytes\": 0, "
           "\"instructions\": [" +
           instr_tuple +
           "]}, \"gridDim\": 1, \"blockDim\": 32, \"options\": "
           "{\"collectTrace\": false, \"homogeneous\": false, "
           "\"sampleBlocks\": 1, \"maxWarpOps\": \"4294967296\"}, "
           "\"memory\": {\"capacity\": \"1024\", \"image\": \"" +
           image +
           "\"}}}], \"specs\": [" +
           spec_json +
           "], \"sweep\": {\"noBankConflicts\": false, "
           "\"warpsPerSm\": [], \"coalescingFractions\": []}, "
           "\"store\": {\"dir\": \"\", \"calibrationCacheDir\": "
           "\"\", \"reuseStoredResults\": true}, \"exec\": "
           "{\"numThreads\": 1, \"engine\": \"event-driven\", "
           "\"pipeline\": \"shared\", \"shareTiming\": true, "
           "\"delivery\": \"collect\"}}";
}

TEST(RequestCodecTest, ForgedKernelStreamsFailSoftly)
{
    // Structurally malformed instruction streams must FAIL the parse
    // — never reach the Kernel constructor, whose validation is a
    // process abort (a crashed fleet worker hands its job to the
    // next worker to crash on).
    const int kIf = static_cast<int>(isa::Opcode::kIf);
    const int kMov = static_cast<int>(isa::Opcode::kMov);
    struct Case
    {
        const char *what;
        std::string tuple;
        int regs;
    };
    const Case cases[] = {
        {"IF without a guard predicate",
         "[" + std::to_string(kIf) +
             ", 65535, 65535, 65535, 65535, 0, 0, 255, 0, 0, 0]",
         1},
        {"unterminated IF",
         "[" + std::to_string(kIf) +
             ", 65535, 65535, 65535, 65535, 0, 0, 0, 0, 0, 0]",
         1},
        {"destination register out of range",
         "[" + std::to_string(kMov) +
             ", 5, 0, 65535, 65535, 0, 0, 255, 0, 0, 0]",
         1},
        {"out-of-range numeric field (cast UB guard)",
         "[1e300, 0, 0, 65535, 65535, 0, 0, 255, 0, 0, 0]", 1},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        AnalysisRequest req;
        std::string error;
        EXPECT_FALSE(requestFromJson(
            forgedInlineRequestJson(c.tuple, c.regs), &req, &error));
        EXPECT_FALSE(error.empty());
    }
    // Sanity: the same skeleton with a well-formed instruction parses.
    AnalysisRequest ok;
    std::string error;
    EXPECT_TRUE(requestFromJson(
        forgedInlineRequestJson(
            "[" + std::to_string(kMov) +
                ", 0, 0, 65535, 65535, 0, 0, 255, 0, 0, 0]",
            1),
        &ok, &error))
        << error;
}

// --- Response round trips ---------------------------------------------

/** A synthetic response exercising the codec's edge cases. */
AnalysisResponse
syntheticResponse()
{
    AnalysisResponse resp;
    resp.jobName = "synthetic";
    resp.numKernels = 2;
    resp.numSpecs = 1;

    driver::BatchResult ok;
    ok.kernelName = "k0";
    ok.specName = "s0";
    ok.ok = true;
    funcsim::StageStats stage;
    stage.typeCounts[0] = 1;
    stage.typeCounts[1] = (1ull << 60) + 12345; // > 2^53: string path
    stage.madCount = 7;
    stage.globalXactBySize[32] = 3;
    stage.globalXactBySize[128] = (1ull << 55) + 9;
    stage.activeWarpsPerBlock = 0.30000000000000004;
    ok.analysis.measurement.stats.stages.push_back(stage);
    ok.analysis.measurement.stats.gridDim = 4;
    ok.analysis.measurement.timing.cycles = 1.0 / 3.0;
    ok.analysis.measurement.timing.seconds = 5e-324; // denormal min
    ok.analysis.measurement.timing.totalOps = (1ull << 62) + 1;
    ok.analysis.measurement.timing.occupancy.limit =
        arch::OccupancyLimit::Warps;
    model::StageInput in;
    in.typeCounts[2] = 42;
    in.effective64Xacts = std::nan(""); // non-finite survives JSON
    in.activeWarpsPerSm = HUGE_VAL;
    ok.analysis.input.stages.push_back(in);
    model::StagePrediction sp;
    sp.tShared = -0.0;
    sp.bottleneck = model::Component::kShared;
    ok.analysis.prediction.stages.push_back(sp);
    ok.analysis.prediction.totalSeconds = 1.2345678901234567e-5;
    ok.analysis.prediction.bottleneck = model::Component::kGlobal;
    ok.analysis.metrics.bankConflictFactor = 16.000000000000004;
    driver::RankedWhatIf wi;
    wi.point.kind = driver::SweepPoint::Kind::kWarpsPerSm;
    wi.point.value = 16.0;
    wi.result.before.totalSeconds = 2.0;
    wi.result.after.totalSeconds = 1.0;
    ok.whatifs.push_back(wi);
    resp.cells.push_back(ok);

    driver::BatchResult failed;
    failed.kernelName = "k1";
    failed.specName = "s0";
    failed.ok = false;
    failed.error = "factory exploded: \"quoted\"\npath\t/x";
    resp.cells.push_back(failed);
    return resp;
}

TEST(ResponseCodecTest, BinaryRoundTripIsExact)
{
    const AnalysisResponse resp = syntheticResponse();
    store::ByteWriter w;
    writeResponse(w, resp);
    store::ByteReader r(w.bytes());
    AnalysisResponse back;
    ASSERT_TRUE(readResponse(r, &back));
    EXPECT_TRUE(r.atEnd());
    std::string why;
    EXPECT_TRUE(responsesEqual(back, resp, &why)) << why;
}

TEST(ResponseCodecTest, JsonRoundTripIsExactIncludingNonFinite)
{
    const AnalysisResponse resp = syntheticResponse();
    const std::string text = responseToJson(resp);
    AnalysisResponse back;
    std::string error;
    ASSERT_TRUE(responseFromJson(text, &back, &error)) << error;
    std::string why;
    EXPECT_TRUE(responsesEqual(back, resp, &why)) << why;
    // NaN/Inf and the 2^60 counter really made it through.
    EXPECT_TRUE(std::isnan(
        back.cells[0].analysis.input.stages[0].effective64Xacts));
    EXPECT_TRUE(std::isinf(
        back.cells[0].analysis.input.stages[0].activeWarpsPerSm));
    EXPECT_EQ(back.cells[0].analysis.measurement.stats.stages[0]
                  .typeCounts[1],
              (1ull << 60) + 12345);
    // Dump-of-parse is byte-stable (the smoke-diff contract).
    EXPECT_EQ(responseToJson(back), text);
}

// --- Registry ---------------------------------------------------------

TEST(RegistryTest, BuiltinsResolveAndValidate)
{
    for (const char *factory :
         {"saxpy", "saxpy-strided", "shared-conflict", "stencil1d",
          "reduction", "spmv-ell", "histogram"}) {
        EXPECT_TRUE(caseRegistered(factory)) << factory;
    }
    // Valid ref materializes into a working case.
    driver::KernelCase kc = materializeJob(KernelJob::fromRef(
        "h", CaseRef{"histogram", {4, 128, 8, 2}, {}}));
    EXPECT_EQ(kc.name, "h");
    driver::PreparedLaunch launch = kc.make();
    EXPECT_NE(launch.gmem, nullptr);

    // Unknown factory and malformed arguments throw (they become
    // failed cells, never aborts).
    EXPECT_THROW(materializeJob(KernelJob::fromRef(
                     "x", CaseRef{"no-such-factory", {}, {}})),
                 std::runtime_error);
    EXPECT_THROW(materializeJob(KernelJob::fromRef(
                     "x", CaseRef{"histogram", {4}, {}})),
                 std::runtime_error)
        << "missing required arguments";
    EXPECT_THROW(
        materializeJob(KernelJob::fromRef(
            "x", CaseRef{"histogram", {4, 128, 7, 2}, {}})),
        std::runtime_error)
        << "non-power-of-two bins";
}

TEST(RegistryTest, InlineJobsRebuildIdenticalImages)
{
    const KernelJob job = inlineSaxpyJob("inline");
    driver::KernelCase kc = materializeJob(job);
    driver::PreparedLaunch a = kc.make();
    driver::PreparedLaunch b = kc.make();
    ASSERT_NE(a.gmem, nullptr);
    ASSERT_NE(b.gmem, nullptr);
    // Repeatable factory: every rebuild digests identically (this is
    // what keys the shared-profile pipeline and the stores).
    EXPECT_EQ(a.gmem->contentHash(), b.gmem->contentHash());
    EXPECT_EQ(a.gmem->capacity(), job.inlined->memoryCapacity);
    EXPECT_EQ(a.gmem->used(), job.inlined->memoryImage.size());
    EXPECT_EQ(a.kernel.hash(), job.inlined->kernel.hash());
}

// --- Service == pre-redesign paths ------------------------------------

TEST(AnalysisServiceTest, MatchesBatchRunnerAndSerialBitForBit)
{
    const AnalysisRequest base = testRequest();

    // Pre-redesign reference 1: BatchRunner::run on the same cases.
    driver::BatchRunner::Options ropts;
    ropts.numThreads = 4;
    driver::BatchRunner runner(ropts);
    for (const auto &spec : base.specs)
        runner.adoptCalibration(spec, sharedFakeTables());
    const auto runner_results =
        runner.run(testCases(), base.specs, base.sweep);

    // Pre-redesign reference 2: the serial loop (shares calibration
    // state per spec like the runner, but single-threaded). It
    // calibrates for real, so compare it through the runner: the
    // StreamEqualsRun tests already pin runner == serial with
    // adopted tables; here adopt the same fakes into a 1-thread
    // runner as the stand-in.
    driver::BatchRunner::Options sopts;
    sopts.numThreads = 1;
    driver::BatchRunner serial_runner(sopts);
    for (const auto &spec : base.specs)
        serial_runner.adoptCalibration(spec, sharedFakeTables());
    const auto serial_results =
        serial_runner.run(testCases(), base.specs, base.sweep);

    const AnalysisResponse want = asResponse(base, runner_results);
    expectEqual(asResponse(base, serial_results), want);

    // The service, across worker counts: bit-identical to both.
    for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE("threads = " + std::to_string(threads));
        AnalysisRequest req = base;
        req.exec.numThreads = threads;
        AnalysisService service;
        adoptAll(service, req);
        expectEqual(service.run(req), want);
    }

    // And through the per-cell reference pipeline.
    AnalysisRequest percell = base;
    percell.exec.pipeline = ExecutionPolicy::Pipeline::kPerCell;
    percell.exec.numThreads = 2;
    AnalysisService service;
    adoptAll(service, percell);
    expectEqual(service.run(percell), want);
}

TEST(AnalysisServiceTest, ColdAndWarmStoreAreBitIdentical)
{
    AnalysisRequest req = testRequest();
    req.exec.numThreads = 4;
    req.store.storeDir = freshDir("service-store");

    AnalysisService service;
    adoptAll(service, req);
    const AnalysisResponse cold = service.run(req);

    // A fresh service = a process restart: everything comes from the
    // persistent store (results included) — still bit-identical.
    AnalysisService warm_service;
    adoptAll(warm_service, req);
    const AnalysisResponse warm = warm_service.run(req);
    expectEqual(warm, cold);
    EXPECT_EQ(
        warm_service.executorFor(req).funcsimsComputed(), 0u)
        << "warm run must not simulate";

    // Reference without any store, same numbers.
    AnalysisRequest nostore = testRequest();
    nostore.exec.numThreads = 4;
    AnalysisService plain;
    adoptAll(plain, nostore);
    expectEqual(asResponse(req, plain.run(nostore).cells), cold);
}

TEST(AnalysisServiceTest, StreamingDeliversEveryCellOnce)
{
    AnalysisRequest req = testRequest();
    req.exec.delivery = ExecutionPolicy::Delivery::kStream;
    req.exec.numThreads = 4;
    AnalysisService service;
    adoptAll(service, req);

    std::vector<int> delivered(
        req.kernels.size() * req.specs.size(), 0);
    StreamStats stats;
    const AnalysisResponse resp = service.execute(
        req,
        [&delivered](size_t index, const driver::BatchResult &cell) {
            ASSERT_LT(index, delivered.size());
            EXPECT_TRUE(cell.ok) << cell.error;
            ++delivered[index];
        },
        &stats);
    for (size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], 1) << "cell " << i;
    EXPECT_EQ(stats.cells, delivered.size());

    AnalysisService collect_service;
    adoptAll(collect_service, req);
    expectEqual(collect_service.run(req), resp);
}

TEST(AnalysisServiceTest, BadJobsFailTheirCellsNotTheBatch)
{
    AnalysisRequest req = testRequest();
    req.kernels.push_back(KernelJob::fromRef(
        "broken", CaseRef{"no-such-factory", {}, {}}));
    req.kernels.push_back(KernelJob::fromRef(
        "bad-args", CaseRef{"histogram", {4, 128, 7, 2}, {}}));
    AnalysisService service;
    adoptAll(service, req);
    const AnalysisResponse resp = service.run(req);
    ASSERT_EQ(resp.cells.size(),
              req.kernels.size() * req.specs.size());
    for (const driver::BatchResult &cell : resp.cells) {
        if (cell.kernelName == "broken") {
            EXPECT_FALSE(cell.ok);
            EXPECT_NE(cell.error.find("no-such-factory"),
                      std::string::npos)
                << cell.error;
        } else if (cell.kernelName == "bad-args") {
            EXPECT_FALSE(cell.ok);
            EXPECT_NE(cell.error.find("power of two"),
                      std::string::npos)
                << cell.error;
        } else {
            EXPECT_TRUE(cell.ok) << cell.error;
        }
    }
}

TEST(AnalysisServiceTest, RejectsWrongSchemaVersion)
{
    AnalysisRequest req = testRequest();
    req.schemaVersion = kSchemaVersion + 7;
    AnalysisService service;
    EXPECT_THROW(service.run(req), std::runtime_error);
}

TEST(AnalysisServiceTest, MalformedWireSpecsAreRejectedNotFatal)
{
    // A spec that deserializes fine but would divide-by-zero or
    // fatal() inside the simulators must be rejected up front with a
    // throw (which a fleet worker turns into a failed cell), never
    // crash the process.
    const auto rejected = [](void (*corrupt)(arch::GpuSpec *)) {
        AnalysisRequest req = testRequest();
        corrupt(&req.specs[0]);
        AnalysisService service;
        EXPECT_THROW(service.run(req), std::runtime_error);
    };
    rejected([](arch::GpuSpec *s) { s->numSms = 0; });
    rejected([](arch::GpuSpec *s) { s->coalesceGroup = 0; });
    rejected([](arch::GpuSpec *s) { s->numSharedBanks = 0; });
    rejected([](arch::GpuSpec *s) { s->warpSize = 0; });
    rejected([](arch::GpuSpec *s) { s->coreClockHz = 0.0; });
    rejected([](arch::GpuSpec *s) {
        s->coreClockHz = std::nan("");
    });
    rejected([](arch::GpuSpec *s) { s->maxThreadsPerBlock = 0; });
}

} // namespace
} // namespace api
} // namespace gpuperf
