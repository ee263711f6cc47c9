/**
 * @file
 * KernelProfile tests: the funcsim fingerprint is the right sub-key of
 * the spec fingerprint, kernel hashing keys on content (not name),
 * profile reuse across spec variants is bit-identical to per-cell
 * re-simulation (serially and through BatchRunner), the library's
 * profiles are bit-identical to the lane-at-a-time oracle's, and
 * invalid homogeneous sampling is caught in debug builds instead of
 * silently fabricating statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/matmul/gemm.h"
#include "apps/spmv/formats.h"
#include "apps/spmv/kernels.h"
#include "apps/spmv/matrix.h"
#include "apps/tridiag/cyclic_reduction.h"
#include "driver/batch_runner.h"
#include "driver/demo_cases.h"
#include "isa/builder.h"
#include "model/session.h"

#include "reference_funcsim.h"
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

/** The timing replay of @p profile under @p spec, shareable. */
std::shared_ptr<const timing::TimingResult>
timingOf(const funcsim::KernelProfile &profile, const arch::GpuSpec &spec)
{
    return std::make_shared<const timing::TimingResult>(
        timing::TimingSimulator(spec).run(profile));
}

/** Every double the workflow produces, compared bit for bit. */
void
expectSameAnalysis(const model::Analysis &got, const model::Analysis &want)
{
    EXPECT_EQ(got.measurement.timing.cycles, want.measurement.timing.cycles);
    EXPECT_EQ(got.measurement.timing.seconds,
              want.measurement.timing.seconds);
    EXPECT_EQ(got.measurement.timing.totalOps,
              want.measurement.timing.totalOps);
    EXPECT_EQ(got.measurement.stats.totalWarpInstrs(),
              want.measurement.stats.totalWarpInstrs());
    EXPECT_EQ(got.measurement.stats.totalGlobalBytes(),
              want.measurement.stats.totalGlobalBytes());
    ASSERT_EQ(got.input.stages.size(), want.input.stages.size());
    for (size_t i = 0; i < got.input.stages.size(); ++i) {
        EXPECT_EQ(got.input.stages[i].effective64Xacts,
                  want.input.stages[i].effective64Xacts);
        EXPECT_EQ(got.input.stages[i].activeWarpsPerSm,
                  want.input.stages[i].activeWarpsPerSm);
    }
    EXPECT_EQ(got.input.occupancy.residentBlocks,
              want.input.occupancy.residentBlocks);
    EXPECT_EQ(got.prediction.totalSeconds, want.prediction.totalSeconds);
    EXPECT_EQ(got.prediction.tInstrTotal, want.prediction.tInstrTotal);
    EXPECT_EQ(got.prediction.tSharedTotal, want.prediction.tSharedTotal);
    EXPECT_EQ(got.prediction.tGlobalTotal, want.prediction.tGlobalTotal);
    EXPECT_EQ(got.metrics.computationalDensity,
              want.metrics.computationalDensity);
    EXPECT_EQ(got.metrics.bankConflictFactor,
              want.metrics.bankConflictFactor);
    EXPECT_EQ(got.metrics.coalescingEfficiency,
              want.metrics.coalescingEfficiency);
}

TEST(FuncsimFingerprint, IsASubkeyOfTheSpecFingerprint)
{
    const auto base = arch::FuncsimFingerprint::of(arch::GpuSpec::gtx285());

    // Timing/occupancy-only variants share the funcsim fingerprint —
    // that is what lets one profile serve the paper's Section 5
    // what-if spec grid.
    EXPECT_EQ(base,
              arch::FuncsimFingerprint::of(arch::GpuSpec::gtx285MoreBlocks()));
    EXPECT_EQ(base, arch::FuncsimFingerprint::of(
                        arch::GpuSpec::gtx285BigResources()));
    arch::GpuSpec overclocked = arch::GpuSpec::gtx285();
    overclocked.coreClockHz *= 1.25;
    overclocked.globalLatencyCycles += 100;
    EXPECT_EQ(base, arch::FuncsimFingerprint::of(overclocked));

    // Variants that change functional behaviour must not share.
    EXPECT_NE(base, arch::FuncsimFingerprint::of(
                        arch::GpuSpec::gtx285PrimeBanks()));
    EXPECT_NE(base, arch::FuncsimFingerprint::of(
                        arch::GpuSpec::gtx285SmallSegments(16)));

    EXPECT_EQ(base.key(),
              arch::FuncsimFingerprint::of(arch::GpuSpec::gtx285()).key());
    EXPECT_NE(base.key(), arch::FuncsimFingerprint::of(
                              arch::GpuSpec::gtx285PrimeBanks()).key());
}

TEST(KernelHash, KeysOnContentNotName)
{
    auto build = [](const std::string &name, int32_t imm) {
        isa::KernelBuilder b(name);
        isa::Reg r0 = b.reg();
        isa::Reg r1 = b.reg();
        b.movImm(r0, imm);
        b.iaddImm(r1, r0, 7);
        return b.build();
    };
    const uint64_t a = build("a", 1).hash();
    EXPECT_EQ(a, build("a", 1).hash()) << "hash must be deterministic";
    EXPECT_EQ(a, build("renamed", 1).hash())
        << "the display name is not part of the program";
    EXPECT_NE(a, build("a", 2).hash()) << "immediates are";
}

TEST(KernelProfile, KeyCoversLaunchOptionsAndInputData)
{
    auto kc = driver::makeSaxpyCase("saxpy", 4, 128, 2.0f);
    auto launch = kc.make();
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    funcsim::RunOptions opts;
    const auto key = funcsim::makeProfileKey(launch.kernel, launch.cfg,
                                             opts, spec, *launch.gmem);

    funcsim::LaunchConfig other_cfg = launch.cfg;
    other_cfg.gridDim *= 2;
    EXPECT_NE(key, funcsim::makeProfileKey(launch.kernel, other_cfg,
                                           opts, spec, *launch.gmem));
    funcsim::RunOptions homog = opts;
    homog.homogeneous = true;
    EXPECT_NE(key, funcsim::makeProfileKey(launch.kernel, launch.cfg,
                                           homog, spec, *launch.gmem));
    EXPECT_NE(key.str(),
              funcsim::makeProfileKey(launch.kernel, other_cfg, opts,
                                      spec, *launch.gmem).str());
    EXPECT_EQ(key, funcsim::makeProfileKey(
                       launch.kernel, launch.cfg, opts,
                       arch::GpuSpec::gtx285MoreBlocks(), *launch.gmem))
        << "funcsim-equivalent specs produce the same profile key";

    // Same program + launch, different memory contents: the input
    // hash keys them apart (data-dependent kernels like SpMV would
    // otherwise be served another input's statistics).
    auto other_launch = kc.make();
    EXPECT_EQ(key, funcsim::makeProfileKey(launch.kernel, launch.cfg,
                                           opts, spec,
                                           *other_launch.gmem))
        << "deterministic factories produce the same input image";
    other_launch.gmem->f32(other_launch.gmem->alloc(4))[0] = 42.0f;
    EXPECT_NE(key, funcsim::makeProfileKey(launch.kernel, launch.cfg,
                                           opts, spec,
                                           *other_launch.gmem));
}

TEST(KernelProfile, ReuseAcrossSpecVariantsIsBitIdentical)
{
    auto kc = driver::makeStencil1dCase("stencil", 8, 128);

    // One functional simulation under the base spec...
    auto launch = kc.make();
    auto profile = profileOf(launch, arch::GpuSpec::gtx285());

    // ...consumed by sessions for funcsim-equivalent variants must
    // match those variants' own one-shot pipeline bit for bit.
    for (const arch::GpuSpec &spec :
         {arch::GpuSpec::gtx285(), arch::GpuSpec::gtx285MoreBlocks(),
          arch::GpuSpec::gtx285BigResources()}) {
        SCOPED_TRACE(spec.name);
        model::AnalysisSession shared_session(spec);
        shared_session.adoptCalibration(sharedFakeTables());
        const model::Analysis got =
            shared_session.analyze(profile, timingOf(*profile, spec));

        model::AnalysisSession percell_session(spec);
        percell_session.adoptCalibration(sharedFakeTables());
        auto fresh = kc.make();
        const model::Analysis want = reference::analyzeOneShot(
            percell_session, fresh.kernel, fresh.cfg, *fresh.gmem,
            fresh.options);
        expectSameAnalysis(got, want);
    }
}

TEST(KernelProfile, BatchSharingMatchesPerCellPipelineExactly)
{
    std::vector<driver::KernelCase> kernels;
    kernels.push_back(driver::makeSaxpyCase("saxpy", 8, 128, 2.0f));
    kernels.push_back(driver::makeStridedSaxpyCase("strided", 8, 128, 4));
    kernels.push_back(driver::makeStencil1dCase("stencil", 8, 128));
    std::vector<arch::GpuSpec> specs = {
        arch::GpuSpec::gtx285(), arch::GpuSpec::gtx285MoreBlocks(),
        arch::GpuSpec::gtx285BigResources(),
        arch::GpuSpec::gtx285PrimeBanks()};
    driver::SweepSpec sweep;
    sweep.noBankConflicts = true;
    sweep.warpsPerSm = {8.0, 32.0};

    driver::BatchRunner::Options opts;
    opts.numThreads = 4;
    driver::BatchRunner runner(opts);
    for (const auto &spec : specs)
        runner.adoptCalibration(spec, sharedFakeTables());
    const auto shared_results = runner.run(kernels, specs, sweep);
    const auto percell_results =
        reference::runPerCell(kernels, specs, sweep, sharedFakeTables());

    ASSERT_EQ(shared_results.size(), percell_results.size());
    for (size_t i = 0; i < shared_results.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        ASSERT_TRUE(shared_results[i].ok) << shared_results[i].error;
        ASSERT_TRUE(percell_results[i].ok) << percell_results[i].error;
        EXPECT_EQ(shared_results[i].kernelName,
                  percell_results[i].kernelName);
        EXPECT_EQ(shared_results[i].specName,
                  percell_results[i].specName);
        expectSameAnalysis(shared_results[i].analysis,
                           percell_results[i].analysis);
        ASSERT_EQ(shared_results[i].whatifs.size(),
                  percell_results[i].whatifs.size());
        for (size_t j = 0; j < shared_results[i].whatifs.size(); ++j) {
            EXPECT_EQ(shared_results[i].whatifs[j].speedup(),
                      percell_results[i].whatifs[j].speedup());
        }
    }
}

TEST(KernelProfile, FactoryErrorsSurfacePerCellWithSharing)
{
    driver::KernelCase broken;
    broken.name = "broken";
    broken.make = []() -> driver::PreparedLaunch {
        throw std::runtime_error("factory exploded");
    };
    driver::BatchRunner runner;
    std::vector<arch::GpuSpec> specs = {
        arch::GpuSpec::gtx285(), arch::GpuSpec::gtx285MoreBlocks()};
    for (const auto &spec : specs)
        runner.adoptCalibration(spec, sharedFakeTables());
    const auto results = runner.run({broken}, specs, driver::SweepSpec{});
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("factory exploded"), std::string::npos);
    }
}

TEST(KernelProfile, MismatchedFingerprintIsFatal)
{
    auto kc = driver::makeSaxpyCase("saxpy", 4, 128, 2.0f);
    auto launch = kc.make();
    auto profile = profileOf(launch, arch::GpuSpec::gtx285());
    auto timing = timingOf(*profile, arch::GpuSpec::gtx285());
    model::SimulatedDevice prime(arch::GpuSpec::gtx285PrimeBanks());
    EXPECT_EXIT(prime.measure(*profile, *timing),
                ::testing::ExitedWithCode(1), "incompatible");
}

TEST(KernelProfile, SharedProfileStillHitsPerSpecLaunchCeilings)
{
    // A spec variant with a lower block ceiling must reject a shared
    // profile exactly where its own functional run would have.
    auto kc = driver::makeSaxpyCase("saxpy", 4, 512, 2.0f);
    auto launch = kc.make();
    auto profile = profileOf(launch, arch::GpuSpec::gtx285());
    auto timing = timingOf(*profile, arch::GpuSpec::gtx285());
    arch::GpuSpec small = arch::GpuSpec::gtx285();
    small.maxThreadsPerBlock = 256;
    model::SimulatedDevice dev(small);
    EXPECT_EXIT(dev.measure(*profile, *timing),
                ::testing::ExitedWithCode(1),
                "exceeds the 256-thread block ceiling");
}

TEST(HomogeneousSampling, ValidKernelPassesValidation)
{
    // saxpy's per-block traces are identical (addresses differ, but
    // coalescing patterns do not), so the debug-build validation must
    // accept it.
    auto kc = driver::makeSaxpyCase("saxpy", 8, 128, 2.0f);
    auto launch = kc.make();
    funcsim::FunctionalSimulator sim(arch::GpuSpec::gtx285());
    funcsim::RunOptions opts;
    opts.homogeneous = true;
    opts.sampleBlocks = 2;
    opts.collectTrace = true;
    auto res = sim.run(launch.kernel, launch.cfg, *launch.gmem, opts);
    EXPECT_EQ(res.stats.sampledBlocks, 2);
    EXPECT_GT(res.stats.totalWarpInstrs(), 0u);
}

TEST(HomogeneousSampling, HeterogeneousKernelIsCaughtInDebugBuilds)
{
#ifdef NDEBUG
    GTEST_SKIP() << "homogeneity validation is debug-only";
#else
    // Block 0 takes an IF the probe block does not: replicating the
    // sampled statistics would fabricate work for every other block.
    driver::KernelCase kc;
    kc.name = "hetero";
    kc.make = []() {
        auto gmem = std::make_unique<funcsim::GlobalMemory>(1u << 20);
        const uint64_t out = gmem->alloc(4096);
        isa::KernelBuilder b("hetero");
        isa::Reg cta = b.reg();
        isa::Reg v = b.reg();
        isa::Reg addr = b.reg();
        isa::Pred p = b.pred();
        b.s2r(cta, isa::SpecialReg::kCtaid);
        b.movImm(v, 1);
        b.setpIImm(p, isa::CmpOp::kEq, cta, 0);
        b.beginIf(p);
        for (int i = 0; i < 8; ++i)
            b.iaddImm(v, v, 1);
        b.endIf();
        b.movImm(addr, static_cast<int32_t>(out));
        b.stg(addr, v);
        driver::PreparedLaunch launch(b.build());
        launch.gmem = std::move(gmem);
        launch.cfg.gridDim = 4;
        launch.cfg.blockDim = 32;
        return launch;
    };
    auto launch = kc.make();
    funcsim::FunctionalSimulator sim(arch::GpuSpec::gtx285());
    funcsim::RunOptions opts;
    opts.homogeneous = true;
    opts.sampleBlocks = 1;
    EXPECT_EXIT(sim.run(launch.kernel, launch.cfg, *launch.gmem, opts),
                ::testing::ExitedWithCode(1),
                "homogeneous sampling is invalid");
#endif
}

TEST(StencilCase, ExercisesCoalescedAndHaloTraffic)
{
    auto kc = driver::makeStencil1dCase("stencil", 8, 128);
    auto launch = kc.make();
    funcsim::FunctionalSimulator sim(arch::GpuSpec::gtx285());
    funcsim::RunOptions opts;
    opts.collectTrace = true;
    auto res = sim.run(launch.kernel, launch.cfg, *launch.gmem, opts);

    // Two barrier-delimited stages: tile fill + halo, then compute.
    ASSERT_EQ(res.stats.stages.size(), 2u);
    EXPECT_EQ(res.stats.barriersPerBlock, 1);

    uint64_t global_bytes = 0;
    uint64_t request_bytes = 0;
    uint64_t shared_tx = 0;
    uint64_t ideal_tx = 0;
    for (const auto &s : res.stats.stages) {
        global_bytes += s.globalBytes;
        request_bytes += s.globalRequestBytes;
        shared_tx += s.sharedTransactions;
        ideal_tx += s.sharedTransactionsIdeal;
    }
    // Halo loads are single-element: transferred bytes exceed the
    // requested bytes (overfetch), but the bulk stream stays
    // coalesced so the waste is bounded.
    EXPECT_GT(global_bytes, request_bytes);
    EXPECT_LT(global_bytes, 2 * request_bytes);
    // Stride-1 tile accesses are conflict-free.
    EXPECT_EQ(shared_tx, ideal_tx);
}

// --------------------------------------------------------------------
// Library-vs-oracle bit-identity at the KernelProfile level: for every
// demo case, the library's profile (key, per-stage stats, trace hashes)
// and final memory image must equal what the lane-at-a-time oracle in
// reference_funcsim.h produces — on the stock 32-lane spec and on a
// 16-lane variant — and so must the paper's case-study launches, which
// also run homogeneous sampling through both sides' block loops.
// --------------------------------------------------------------------

arch::GpuSpec
profileHalfWarpSpec()
{
    arch::GpuSpec gs = arch::GpuSpec::gtx285();
    gs.name = "GTX 285 (16-lane warps)";
    gs.warpSize = 16;
    gs.maxWarpsPerSm = 64;
    return gs;
}

void
expectProfilesBitIdentical(const driver::KernelCase &kc,
                           const arch::GpuSpec &gs)
{
    SCOPED_TRACE(kc.name + " on " + gs.name);
    auto la = kc.make();
    auto lb = kc.make();
    // Keys first, on the pristine images: the runs mutate them.
    const funcsim::ProfileKey ka = funcsim::makeProfileKey(
        la.kernel, la.cfg, la.options, gs, *la.gmem);
    const funcsim::ProfileKey kb = funcsim::makeProfileKey(
        lb.kernel, lb.cfg, lb.options, gs, *lb.gmem);
    funcsim::RunOptions ref_opts = la.options;
    ref_opts.collectTrace = true;  // what profileKernel() always runs
    reference::ScalarFunctionalSimulator ref(gs);
    funcsim::FunctionalSimulator sim(gs);
    const funcsim::RunResult pa =
        ref.run(la.kernel, la.cfg, *la.gmem, ref_opts);
    const funcsim::KernelProfile pb = funcsim::profileKernel(
        sim, lb.kernel, lb.cfg, *lb.gmem, lb.options, kb);

    EXPECT_TRUE(ka == pb.key);
    EXPECT_EQ(ka.str(), pb.key.str());

    ASSERT_EQ(pa.stats.stages.size(), pb.stats.stages.size());
    for (size_t i = 0; i < pa.stats.stages.size(); ++i)
        EXPECT_TRUE(pa.stats.stages[i] == pb.stats.stages[i])
            << "stage " << i << " diverged";
    EXPECT_EQ(pa.stats.barriersPerBlock, pb.stats.barriersPerBlock);
    EXPECT_EQ(pa.stats.sampledBlocks, pb.stats.sampledBlocks);

    ASSERT_EQ(pa.trace.pool.size(), pb.trace.pool.size());
    for (size_t i = 0; i < pa.trace.pool.size(); ++i) {
        EXPECT_TRUE(pa.trace.pool[i] == pb.trace.pool[i])
            << "warp trace " << i << " diverged";
        EXPECT_EQ(pa.trace.pool[i].hash(), pb.trace.pool[i].hash());
    }
    ASSERT_EQ(pa.trace.blocks.size(), pb.trace.blocks.size());
    for (size_t i = 0; i < pa.trace.blocks.size(); ++i)
        EXPECT_EQ(pa.trace.blocks[i].warpTraceIdx,
                  pb.trace.blocks[i].warpTraceIdx);

    // Stores mutated both images identically.
    EXPECT_EQ(la.gmem->contentHash(), lb.gmem->contentHash());
}

TEST(FuncsimOracleProfileIdentity, AllDemoCasesOnBothSpecs)
{
    const std::vector<driver::KernelCase> cases = {
        driver::makeSaxpyCase("saxpy", 4, 128, 2.5f),
        driver::makeStridedSaxpyCase("strided-saxpy", 2, 64, 4),
        driver::makeSharedConflictCase("shared-conflict", 2, 64, 2, 8),
        driver::makeStencil1dCase("stencil1d", 4, 64),
        driver::makeSpmvEllCase("spmv-ell", 8, 4),
        driver::makeReductionCase("reduction", 4, 64),
        driver::makeHistogramCase("histogram", 2, 64, 16, 2),
    };
    const arch::GpuSpec specs[] = {arch::GpuSpec::gtx285(),
                                   profileHalfWarpSpec()};
    for (const auto &kc : cases)
        for (const auto &gs : specs)
            expectProfilesBitIdentical(kc, gs);
}

using AppLaunch = std::pair<isa::Kernel, funcsim::LaunchConfig>;

/**
 * A case-study launch on a fresh image. @p sample > 0 samples that
 * many blocks homogeneously, as the figure benches do for GEMM and CR.
 */
driver::KernelCase
appCase(const std::string &name, int sample,
        std::function<AppLaunch(funcsim::GlobalMemory &)> build)
{
    return {name + (sample > 0 ? ", " + std::to_string(sample) +
                                     " sampled blocks"
                               : ""),
            [sample, build] {
                auto gmem = std::make_unique<funcsim::GlobalMemory>(4 << 20);
                AppLaunch app = build(*gmem);
                driver::PreparedLaunch l(std::move(app.first));
                l.cfg = app.second;
                l.gmem = std::move(gmem);
                l.options.homogeneous = sample > 0;
                l.options.sampleBlocks = std::max(sample, 1);
                return l;
            }};
}

TEST(FuncsimOracleProfileIdentity, PaperCaseStudiesOnGtx285)
{
    std::vector<driver::KernelCase> cases;
    for (int sample : {1, 2}) {
        for (int tile : {16, 32}) {
            cases.push_back(appCase(
                "gemm tile " + std::to_string(tile), sample,
                [tile](funcsim::GlobalMemory &g) {
                    const apps::GemmProblem p =
                        apps::makeGemmProblem(g, 128, tile);
                    return AppLaunch(apps::makeGemmKernel(p), p.launch());
                }));
        }
        for (bool padded : {false, true}) {
            cases.push_back(appCase(
                padded ? "cr-nbc" : "cr", sample,
                [padded](funcsim::GlobalMemory &g) {
                    const apps::TridiagProblem p =
                        apps::makeTridiagProblem(g, 128, 8, padded);
                    return AppLaunch(apps::makeCyclicReductionKernel(p),
                                     p.launch());
                }));
        }
    }
    // SpMV is data-dependent, so its launches run every block.
    const apps::BlockSparseMatrix m =
        apps::makeBandedBlockMatrix(256, 13, 24);
    cases.push_back(appCase("spmv ell", 0, [&m](funcsim::GlobalMemory &g) {
        const apps::SpmvVectors v = apps::makeVectors(g, m);
        const apps::EllDeviceMatrix ell = apps::buildEll(g, m);
        return AppLaunch(apps::makeEllKernel(ell, v, false),
                         {apps::spmvGridDim(m.rows()),
                          apps::kSpmvBlockDim});
    }));
    cases.push_back(
        appCase("spmv bell+imiv", 0, [&m](funcsim::GlobalMemory &g) {
            const apps::SpmvVectors v = apps::makeVectors(g, m);
            const apps::BellDeviceMatrix bell = apps::buildBell(g, m, true);
            return AppLaunch(apps::makeBellKernel(bell, v, true, false),
                             {apps::spmvGridDim(m.blockRows),
                              apps::kSpmvBlockDim});
        }));
    for (const auto &kc : cases)
        expectProfilesBitIdentical(kc, arch::GpuSpec::gtx285());
}

} // namespace
} // namespace gpuperf
