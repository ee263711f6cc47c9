/**
 * @file
 * Replay-engine differential tests: the event-driven engine must be
 * bit-identical — every TimingResult field, doubles compared exactly —
 * to the legacy scan engine for
 *
 *  - every demo kernel case x a grid of spec variants (including
 *    texture-cache and prime-bank machines),
 *  - batches run on 1..8 worker threads (which also pins that the
 *    event-driven engine kept BatchRunner deterministic), and
 *  - a seeded randomized machine-description fuzz (common/rng), and
 *  - the one-cluster replay of cluster-symmetric launches: every
 *    calibration-sweep launch, global-stream and demo launches, and
 *    near misses that must take the full replay, each checked
 *    against the predicate the event engine calls
 *    (detail::clusterSymmetric) so a detection that never fires
 *    cannot pass.
 *
 * Plus the timing-fingerprint layer: arch::TimingFingerprint captures
 * exactly the timing-relevant GpuSpec slice, and the BatchRunner
 * timing memo serves bit-identical results.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver/batch_runner.h"
#include "driver/demo_cases.h"
#include "common/rng.h"
#include "funcsim/profile.h"
#include "isa/builder.h"
#include "model/calibration.h"
#include "model/microbench.h"
#include "timing/replay_engine.h"
#include "timing/simulator.h"

#include "reference_pipeline.h"

namespace gpuperf {
namespace timing {
namespace {

using driver::KernelCase;
using funcsim::FunctionalSimulator;

/**
 * Toy calibration tables (the test_batch.cc idiom): the batch tests
 * here pin TIMING behaviour, which never reads the tables, so
 * adopting fakes skips the expensive microbenchmark sweeps.
 */
std::shared_ptr<const model::CalibrationTables>
sharedFakeTables()
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
    return std::make_shared<const model::CalibrationTables>(
        std::move(t));
}

/** Functionally simulate a demo case once under @p spec. */
funcsim::RunResult
simulate(const KernelCase &kc, const arch::GpuSpec &spec)
{
    driver::PreparedLaunch launch = kc.make();
    FunctionalSimulator sim(spec);
    funcsim::RunOptions opts = launch.options;
    opts.collectTrace = true;
    return sim.run(launch.kernel, launch.cfg, *launch.gmem, opts);
}

/** Replay @p trace under both engines and require exact equality. */
void
expectEnginesAgree(const arch::GpuSpec &spec,
                   const funcsim::LaunchTrace &trace,
                   const std::string &label)
{
    const TimingResult legacy =
        TimingSimulator(spec, ReplayEngine::kLegacyScan).run(trace);
    const TimingResult event =
        TimingSimulator(spec, ReplayEngine::kEventDriven).run(trace);
    EXPECT_TRUE(event == legacy)
        << label << ": engines diverged (legacy " << legacy.cycles
        << " cycles / " << legacy.totalOps << " ops, event-driven "
        << event.cycles << " cycles / " << event.totalOps << " ops)";
}

std::vector<KernelCase>
demoCases()
{
    std::vector<KernelCase> cases;
    cases.push_back(driver::makeSaxpyCase("saxpy", 24, 256, 2.0f));
    cases.push_back(
        driver::makeStridedSaxpyCase("strided", 16, 256, 4));
    cases.push_back(
        driver::makeSharedConflictCase("conflict", 8, 128, 4, 32));
    cases.push_back(driver::makeStencil1dCase("stencil1d", 16, 256));
    cases.push_back(driver::makeSpmvEllCase("spmv-ell", 96, 7));
    return cases;
}

std::vector<arch::GpuSpec>
specGrid()
{
    std::vector<arch::GpuSpec> specs;
    specs.push_back(arch::GpuSpec::gtx285());
    specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
    specs.push_back(arch::GpuSpec::gtx285BigResources());
    specs.push_back(arch::GpuSpec::gtx285PrimeBanks());
    specs.push_back(arch::GpuSpec::gtx285SmallSegments(32));
    arch::GpuSpec tex = arch::GpuSpec::gtx285();
    tex.name = "GTX 285 + texture cache";
    tex.textureCacheEnabled = true;
    specs.push_back(tex);
    arch::GpuSpec fast = arch::GpuSpec::gtx285();
    fast.name = "GTX 285 + 25% core clock";
    fast.coreClockHz *= 1.25;
    specs.push_back(fast);
    return specs;
}

TEST(ReplayEngines, BitIdenticalAcrossDemoCaseSpecGrid)
{
    for (const arch::GpuSpec &spec : specGrid()) {
        for (const KernelCase &kc : demoCases()) {
            const auto res = simulate(kc, spec);
            expectEnginesAgree(spec, res.trace,
                               kc.name + " x " + spec.name);
        }
    }
}

TEST(ReplayEngines, BitIdenticalOnBarrierHeavyAndTinyLaunches)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    // One warp, one block: degenerate scheduling.
    {
        const auto res =
            simulate(driver::makeSaxpyCase("tiny", 1, 32, 1.0f), spec);
        expectEnginesAgree(spec, res.trace, "tiny");
    }
    // More blocks than resident slots: block-replacement waves.
    {
        const auto res = simulate(
            driver::makeStencil1dCase("waves", 4 * 30 * 3, 128), spec);
        expectEnginesAgree(spec, res.trace, "waves");
    }
    // Barrier-heavy (the stencil has a two-stage barrier structure)
    // under a machine whose occupancy differs.
    {
        const auto res = simulate(
            driver::makeStencil1dCase("bars", 90, 512),
            arch::GpuSpec::gtx285MoreBlocks());
        expectEnginesAgree(arch::GpuSpec::gtx285MoreBlocks(), res.trace,
                           "bars");
    }
}

TEST(ReplayEngines, BitIdenticalUnderRandomizedSpecFuzz)
{
    Rng rng(0x7411e5u);
    const auto cases = demoCases();
    for (int iter = 0; iter < 12; ++iter) {
        arch::GpuSpec s = arch::GpuSpec::gtx285();
        s.name = "fuzz-" + std::to_string(iter);
        // Timing-relevant knobs over valid ranges.
        s.smsPerCluster = static_cast<int>(rng.nextRange(1, 3));
        s.numSms =
            s.smsPerCluster * static_cast<int>(rng.nextRange(2, 10));
        s.aluDepCycles = static_cast<int>(rng.nextRange(4, 48));
        s.sharedDepCycles = static_cast<int>(rng.nextRange(24, 144));
        s.warpSharedPassIntervalCycles =
            static_cast<double>(rng.nextRange(2, 36));
        s.globalLatencyCycles = static_cast<int>(rng.nextRange(80, 900));
        s.transactionOverheadCycles =
            static_cast<int>(rng.nextRange(0, 8));
        s.issueOverheadCycles = 0.05 * rng.nextRange(0, 20);
        s.coreClockHz = 1e9 * (0.5 + rng.nextDouble());
        s.memClockHz = 1e9 * (1.0 + 2.0 * rng.nextDouble());
        s.maxBlocksPerSm = static_cast<int>(rng.nextRange(2, 16));
        s.registersPerSm = 8192 << rng.nextRange(0, 2);
        s.sharedMemPerSm = 16384 << rng.nextRange(0, 1);
        // Funcsim-relevant knobs too: the trace itself varies.
        s.numSharedBanks = static_cast<int>(rng.nextRange(8, 33));
        s.minSegmentBytes = 32 << rng.nextRange(0, 2);
        if (s.maxSegmentBytes < s.minSegmentBytes)
            s.maxSegmentBytes = s.minSegmentBytes;
        s.textureCacheEnabled = rng.nextBelow(2) == 0;
        s.validate();

        const KernelCase &kc = cases[rng.nextBelow(cases.size())];
        const auto res = simulate(kc, s);
        expectEnginesAgree(s, res.trace, s.name + " " + kc.name);
    }
}

TEST(ReplayEngines, BatchResultsIdenticalAcrossOneToEightThreads)
{
    const auto cases = demoCases();
    const std::vector<arch::GpuSpec> specs = {
        arch::GpuSpec::gtx285(), arch::GpuSpec::gtx285MoreBlocks()};
    driver::SweepSpec sweep;
    sweep.noBankConflicts = true;

    const auto tables = sharedFakeTables();
    std::vector<driver::BatchResult> reference;
    for (int threads = 1; threads <= 8; ++threads) {
        driver::BatchRunner::Options opts;
        opts.numThreads = threads;
        driver::BatchRunner runner(opts);
        for (const auto &s : specs)
            runner.adoptCalibration(s, tables);
        auto results = runner.run(cases, specs, sweep);
        ASSERT_EQ(results.size(), cases.size() * specs.size());
        for (const auto &r : results)
            ASSERT_TRUE(r.ok) << r.kernelName << ": " << r.error;
        if (threads == 1) {
            reference = std::move(results);
            continue;
        }
        for (size_t i = 0; i < results.size(); ++i) {
            EXPECT_TRUE(results[i].analysis.measurement.timing ==
                        reference[i].analysis.measurement.timing)
                << "cell " << i << " at " << threads << " threads";
            EXPECT_EQ(results[i].analysis.prediction.totalSeconds,
                      reference[i].analysis.prediction.totalSeconds);
        }
    }
}

// --- One-cluster replay -----------------------------------------------

/**
 * Require that the event engine replays @p trace as one cluster
 * exactly when @p one_cluster says so, and that either way it equals
 * the legacy engine's full replay in every field.
 */
void
expectReplay(const arch::GpuSpec &spec, const funcsim::LaunchTrace &trace,
             bool one_cluster, const std::string &label)
{
    EXPECT_EQ(detail::clusterSymmetric(spec, trace), one_cluster)
        << label;
    expectEnginesAgree(spec, trace, label);
}

/** Trace of @p kernel on a zeroed image of @p image_bytes. */
funcsim::LaunchTrace
traceOf(const arch::GpuSpec &spec, const isa::Kernel &kernel,
        const funcsim::LaunchConfig &cfg, size_t image_bytes,
        bool homogeneous)
{
    funcsim::GlobalMemory gmem(image_bytes);
    funcsim::RunOptions opts;
    opts.homogeneous = homogeneous;
    opts.collectTrace = true;
    return FunctionalSimulator(spec).run(kernel, cfg, gmem, opts).trace;
}

/** The texture gather of TextureCache.ReuseSpeedsUpGatherKernels. */
isa::Kernel
textureGatherKernel()
{
    isa::KernelBuilder b("gather");
    isa::Reg tid = b.reg();
    isa::Reg a = b.reg();
    isa::Reg v = b.reg();
    isa::Reg acc = b.reg();
    isa::Reg i = b.reg();
    isa::Pred p = b.pred();
    b.s2r(tid, isa::SpecialReg::kTid);
    b.andImm(a, tid, 63);
    b.shlImm(a, a, 2);
    b.iaddImm(a, a, 65536);
    b.movImmF(acc, 0.0f);
    b.movImm(i, 0);
    b.beginLoop();
    b.setpIImm(p, isa::CmpOp::kGe, i, 100);
    b.brk(p);
    b.ldt(v, a, 0);
    b.fadd(acc, acc, v);
    b.iaddImm(i, i, 1);
    b.endLoop();
    isa::Reg out = b.reg();
    b.shlImm(out, tid, 2);
    b.iaddImm(out, out, 4096);
    b.stg(out, acc);
    return b.build(0);
}

/**
 * A global load whose port order staggers the SMs of each cluster,
 * then a dependent chain of type I and type III operations.
 */
isa::Kernel
staggeredChainKernel()
{
    isa::KernelBuilder b("staggered-chain");
    isa::Reg tid = b.reg();
    isa::Reg a = b.reg();
    isa::Reg x = b.reg();
    isa::Reg y = b.reg();
    isa::Reg i = b.reg();
    isa::Pred p = b.pred();
    b.s2r(tid, isa::SpecialReg::kTid);
    b.shlImm(a, tid, 2);
    b.iaddImm(a, a, 65536);
    b.ldg(x, a);
    b.movImm(i, 0);
    b.beginLoop();
    b.setpIImm(p, isa::CmpOp::kGe, i, 12);
    b.brk(p);
    b.fmul(y, x, x);
    b.rcp(x, y);
    b.iaddImm(i, i, 1);
    b.endLoop();
    b.iaddImm(a, a, -65536 + 4096);
    b.stg(a, x);
    return b.build(0);
}

TEST(OneClusterReplay, EveryCalibrationSweepLaunch)
{
    // The legacy engine's full replays of these 4 x 120 launches take
    // about 50 s on one core of an optimized build, so each preset
    // replays on a thread of its own. Debug and sanitizer builds run
    // 10-20x slower; they check every bench at the sweep's first
    // one-block (1) and two-block (18) warp counts per SM.
    struct Checked
    {
        std::string label;
        bool oneCluster;
        TimingResult legacy;
        TimingResult event;
    };
    const std::vector<arch::GpuSpec> presets = {
        arch::GpuSpec::gtx285(), arch::GpuSpec::gtx285MoreBlocks(),
        arch::GpuSpec::gtx285BigResources(),
        arch::GpuSpec::gtx285PrimeBanks()};
    std::vector<std::vector<Checked>> checked(presets.size());
    std::vector<std::thread> threads;
    for (size_t p = 0; p < presets.size(); ++p) {
        threads.emplace_back([&presets, &checked, p]() {
            const arch::GpuSpec &spec = presets[p];
            for (const model::SweepLaunch &launch :
                 model::Calibrator::sweepLaunches(spec)) {
#ifndef NDEBUG
                if (launch.warps != 1 && launch.warps != 18)
                    continue;
#endif
                const funcsim::LaunchTrace trace =
                    traceOf(spec, launch.kernel, launch.cfg,
                            launch.imageBytes, true);
                checked[p].push_back(
                    {spec.name + " " + launch.kernel.name() + " at " +
                         std::to_string(launch.warps) + " warps/SM",
                     detail::clusterSymmetric(spec, trace),
                     TimingSimulator(spec, ReplayEngine::kLegacyScan)
                         .run(trace),
                     TimingSimulator(spec).run(trace)});
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (const std::vector<Checked> &preset : checked) {
        ASSERT_FALSE(preset.empty());
        for (const Checked &c : preset) {
            EXPECT_TRUE(c.oneCluster) << c.label;
            EXPECT_TRUE(c.event == c.legacy)
                << c.label << ": engines diverged";
        }
    }
}

TEST(OneClusterReplay, GlobalStreamBenchLaunches)
{
    // Built as Calibrator::runGlobalBench builds its launches.
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    constexpr int kBatch = 8;
    constexpr uint32_t kBufBytes = 4u << 20;
    for (int blocks : {30, 60, 90, 120}) {
        for (int threads : {64, 128, 256, 512}) {
            const int total_threads = blocks * threads;
            const size_t slack =
                static_cast<size_t>(kBatch) * total_threads * 4 + 4096;
            const isa::Kernel k = model::makeGlobalStreamBench(
                4, kBatch, total_threads, 4096, kBufBytes);
            // The kernel's registers fit one 512-thread block, three
            // 256-thread blocks and at least four smaller ones on an
            // SM; more wait in the queue.
            const int resident = threads == 512   ? 1
                                 : threads == 256 ? 3
                                                  : 4;
            const bool one_cluster = blocks / spec.numSms <= resident;
            expectReplay(spec,
                         traceOf(spec, k, {blocks, threads},
                                 kBufBytes + slack + (1u << 20), true),
                         one_cluster,
                         "stream " + std::to_string(blocks) + " x " +
                             std::to_string(threads));
        }
    }
}

TEST(OneClusterReplay, SaxpyAndTextureGather)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    expectReplay(spec,
                 simulate(driver::makeSaxpyCase("saxpy", 120, 128, 2.0f),
                          spec)
                     .trace,
                 true, "saxpy 120 x 128");

    arch::GpuSpec cached = spec;
    cached.textureCacheEnabled = true;
    const funcsim::LaunchTrace gather = traceOf(
        cached, textureGatherKernel(), {60, 256}, 4 << 20, false);
    expectReplay(cached, gather, true, "texture gather 60 x 256");
    const TimingResult r = TimingSimulator(cached).run(gather);
    EXPECT_GT(r.texHits, r.texMisses) << "the cache must be exercised";
}

TEST(OneClusterReplay, StaggeredClusterSmsSumInTheFullReplaysOrder)
{
    // At 16 bytes per cluster cycle with no transaction overhead, the
    // port staggers a cluster's SMs by whole cycles. With an 8-cycle
    // dependency latency the staggered SMs then issue type I and type
    // III operations at the same times, so an issue time's busy
    // cycles differ between SMs, and the total depends on the order
    // of its terms: cluster by cluster, as the full replay adds them.
    arch::GpuSpec spec = arch::GpuSpec::gtx285();
    spec.name = "whole-cycle stagger";
    spec.coreClockHz = 1e9;
    spec.memClockHz = 2.5e9;
    spec.transactionOverheadCycles = 0;
    spec.aluDepCycles = 8;
    spec.validate();
    for (int threads : {32, 64}) {
        expectReplay(spec,
                     traceOf(spec, staggeredChainKernel(), {30, threads},
                             1 << 20, false),
                     true,
                     "staggered chain x " + std::to_string(threads));
    }
}

TEST(OneClusterReplay, TheEngineReplaysOneCluster)
{
    // The same events, once as a symmetric trace and once with block
    // 0's warps on duplicate pool entries, which the predicate cannot
    // match: the results agree bit for bit, and the symmetric replay,
    // one cluster of ten, is the faster by far.
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    // The sweep's last launch: the shared copy at 32 warps/SM.
    const model::SweepLaunch launch =
        model::Calibrator::sweepLaunches(spec).back();
    const funcsim::LaunchTrace symmetric = traceOf(
        spec, launch.kernel, launch.cfg, launch.imageBytes, true);
    funcsim::LaunchTrace full = symmetric;
    for (int &idx : full.blocks[0].warpTraceIdx) {
        full.pool.push_back(full.pool[idx]);
        idx = static_cast<int>(full.pool.size()) - 1;
    }
    ASSERT_TRUE(detail::clusterSymmetric(spec, symmetric));
    ASSERT_FALSE(detail::clusterSymmetric(spec, full));

    const TimingSimulator sim(spec);
    const auto best_seconds = [&sim](const funcsim::LaunchTrace &trace) {
        double best = 1e300;
        for (int trial = 0; trial < 3; ++trial) {
            const auto start = std::chrono::steady_clock::now();
            (void)sim.run(trace);
            best = std::min(best, std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() -
                                      start)
                                      .count());
        }
        return best;
    };
    EXPECT_TRUE(sim.run(symmetric) == sim.run(full));
    EXPECT_LT(3.0 * best_seconds(symmetric), best_seconds(full))
        << "a symmetric launch must replay one cluster, not ten";
}

TEST(OneClusterReplay, NearMissesTakeTheFullReplay)
{
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    const auto saxpy = [&](int blocks) {
        return simulate(driver::makeSaxpyCase("saxpy", blocks, 128, 2.0f),
                        spec)
            .trace;
    };
    expectReplay(spec, saxpy(119), false, "grid 4 x numSms - 1");
    expectReplay(spec, saxpy(121), false, "grid 4 x numSms + 1");
    // 128-thread blocks fit eight to an SM; nine per SM wait.
    expectReplay(spec, saxpy(270), false, "more blocks than slots");

    // One block whose first warp runs a different trace.
    funcsim::LaunchTrace odd = saxpy(120);
    funcsim::WarpTrace longer = odd.pool[odd.blocks[77].warpTraceIdx[0]];
    longer.ops.push_back(longer.ops.back());
    odd.blocks[77].warpTraceIdx[0] = odd.intern(std::move(longer));
    expectReplay(spec, odd, false, "one block with another trace");

    // Every block identical, but each with an empty warp.
    funcsim::LaunchTrace empty = saxpy(120);
    const int empty_idx = empty.intern(funcsim::WarpTrace{});
    for (funcsim::BlockTrace &block : empty.blocks)
        block.warpTraceIdx[1] = empty_idx;
    expectReplay(spec, empty, false, "an empty warp in every block");

    // One cluster of three SMs: nothing to replicate.
    arch::GpuSpec single = spec;
    single.name = "one cluster";
    single.numSms = 3;
    single.validate();
    expectReplay(single,
                 simulate(driver::makeSaxpyCase("saxpy", 12, 128, 2.0f),
                          single)
                     .trace,
                 false, "a single-cluster machine");
}

TEST(OneClusterReplay, BitIdenticalUnderRandomizedClusterShapes)
{
    // Symmetric launches of 1-4 blocks per SM on machines of 2-10
    // clusters of 1-3 SMs.
    Rng rng(0xc1a55e5u);
    for (int iter = 0; iter < 12; ++iter) {
        arch::GpuSpec s = arch::GpuSpec::gtx285();
        s.name = "clusters-" + std::to_string(iter);
        s.smsPerCluster = static_cast<int>(rng.nextRange(1, 3));
        s.numSms =
            s.smsPerCluster * static_cast<int>(rng.nextRange(2, 10));
        s.globalLatencyCycles = static_cast<int>(rng.nextRange(80, 900));
        s.transactionOverheadCycles =
            static_cast<int>(rng.nextRange(0, 8));
        s.issueOverheadCycles = 0.05 * rng.nextRange(0, 20);
        s.textureCacheEnabled = rng.nextBelow(2) == 0;
        s.validate();
        const int per_sm = static_cast<int>(rng.nextRange(1, 4));
        const int grid = per_sm * s.numSms;
        const std::string label =
            s.name + " x " + std::to_string(grid) + " blocks";
        if (s.textureCacheEnabled) {
            expectReplay(s,
                         traceOf(s, textureGatherKernel(), {grid, 256},
                                 4 << 20, false),
                         true, label + " gather");
        } else {
            expectReplay(
                s,
                simulate(driver::makeSaxpyCase("saxpy", grid, 128, 2.0f), s)
                    .trace,
                true, label + " saxpy");
        }
    }
}

TEST(TimingFingerprint, CapturesExactlyTheTimingRelevantSlice)
{
    const arch::GpuSpec base = arch::GpuSpec::gtx285();
    const arch::TimingFingerprint fp = arch::TimingFingerprint::of(base);

    // Timing-irrelevant edits: same fingerprint.
    arch::GpuSpec renamed = base;
    renamed.name = "other name";
    EXPECT_EQ(fp.key(), arch::TimingFingerprint::of(renamed).key());
    EXPECT_TRUE(fp == arch::TimingFingerprint::of(renamed));
    arch::GpuSpec banks = base;
    banks.numSharedBanks = 17;
    banks.coalesceGroup = 32;
    EXPECT_TRUE(fp == arch::TimingFingerprint::of(banks));

    // Timing-relevant edits: distinct fingerprints.
    arch::GpuSpec lat = base;
    lat.globalLatencyCycles *= 2;
    EXPECT_TRUE(fp != arch::TimingFingerprint::of(lat));
    arch::GpuSpec clk = base;
    clk.coreClockHz *= 1.25;
    EXPECT_TRUE(fp != arch::TimingFingerprint::of(clk));
    arch::GpuSpec occ = base;
    occ.maxBlocksPerSm = 16;
    EXPECT_TRUE(fp != arch::TimingFingerprint::of(occ));
    arch::GpuSpec tex = base;
    tex.textureCacheEnabled = true;
    EXPECT_TRUE(fp != arch::TimingFingerprint::of(tex));
}

TEST(TimingMemo, SharedTimingServesBitIdenticalCells)
{
    // Two specs that differ only in a timing-irrelevant way (the
    // name) share both the profile AND the timing replay; a spec with
    // different timing fields shares only the profile. Either way the
    // results must equal the per-cell reference pipeline, which
    // replays every cell, exactly.
    std::vector<KernelCase> cases = {
        driver::makeStencil1dCase("stencil1d", 16, 256),
        driver::makeSpmvEllCase("spmv-ell", 96, 7)};
    std::vector<arch::GpuSpec> specs;
    specs.push_back(arch::GpuSpec::gtx285());
    arch::GpuSpec renamed = arch::GpuSpec::gtx285();
    renamed.name = "GTX 285 (renamed)";
    specs.push_back(renamed);
    arch::GpuSpec slow = arch::GpuSpec::gtx285();
    slow.name = "GTX 285 slow memory";
    slow.globalLatencyCycles *= 2;
    specs.push_back(slow);

    const auto tables = sharedFakeTables();
    driver::BatchRunner::Options opts;
    opts.numThreads = 2;
    driver::BatchRunner memo_runner(opts);
    for (const auto &s : specs)
        memo_runner.adoptCalibration(s, tables);
    auto memoized = memo_runner.run(cases, specs);
    EXPECT_EQ(memo_runner.timingsComputed(), cases.size() * 2)
        << "the renamed spec must reuse the original's replays";
    auto plain =
        reference::runPerCell(cases, specs, driver::SweepSpec{}, tables);
    ASSERT_EQ(memoized.size(), plain.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        ASSERT_TRUE(memoized[i].ok) << memoized[i].error;
        ASSERT_TRUE(plain[i].ok) << plain[i].error;
        EXPECT_TRUE(memoized[i].analysis.measurement.timing ==
                    plain[i].analysis.measurement.timing)
            << "cell " << i;
        EXPECT_EQ(memoized[i].analysis.prediction.totalSeconds,
                  plain[i].analysis.prediction.totalSeconds);
    }
}

} // namespace
} // namespace timing
} // namespace gpuperf
