/**
 * @file
 * Functional-simulator semantics: ALU ops, predicates, divergence,
 * loops, barriers, memory, statistics, and trace collection.
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "funcsim/interpreter.h"
#include "isa/builder.h"

#include "reference_funcsim.h"

namespace gpuperf {
namespace funcsim {
namespace {

using isa::CmpOp;
using isa::KernelBuilder;
using isa::Pred;
using isa::Reg;
using isa::SpecialReg;

constexpr uint64_t kOut = 4096;

arch::GpuSpec
spec()
{
    return arch::GpuSpec::gtx285();
}

/** Run a 1-block kernel and return the first @p n output floats. */
std::vector<float>
runAndReadF(const isa::Kernel &k, int block_dim, int n,
            GlobalMemory &gmem, int grid_dim = 1)
{
    FunctionalSimulator sim(spec());
    LaunchConfig cfg{grid_dim, block_dim};
    sim.run(k, cfg, gmem);
    std::vector<float> out(n);
    std::memcpy(out.data(), gmem.f32(kOut), n * 4);
    return out;
}

/** Emit: out[tid] = value in register @p v. */
void
emitStoreOut(KernelBuilder &b, Reg v)
{
    Reg tid = b.reg();
    Reg addr = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(addr, tid, 2);
    b.iaddImm(addr, addr, static_cast<int32_t>(kOut));
    b.stg(addr, v);
}

TEST(Interpreter, ArithmeticOpcodes)
{
    // One thread computes a chain exercising many opcodes; check the
    // final value against host arithmetic.
    KernelBuilder b("alu");
    Reg x = b.reg();
    Reg y = b.reg();
    Reg z = b.reg();
    b.movImmF(x, 3.0f);
    b.movImmF(y, 2.0f);
    b.fmul(z, x, y);        // 6
    b.fadd(z, z, y);        // 8
    b.fmad(z, z, y, x);     // 19
    b.rcp(z, z);            // 1/19
    emitStoreOut(b, z);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 1, 1, gmem);
    EXPECT_FLOAT_EQ(out[0], 1.0f / 19.0f);
}

TEST(Interpreter, IntegerOpcodes)
{
    KernelBuilder b("int");
    Reg a = b.reg();
    Reg c = b.reg();
    Reg f = b.reg();
    b.movImm(a, 12);
    b.iaddImm(a, a, 5);      // 17
    b.imulImm(a, a, 3);      // 51
    b.shlImm(c, a, 2);       // 204
    b.shrImm(c, c, 1);       // 102
    b.andImm(c, c, 0x7f);    // 102
    b.isub(c, c, a);         // 51
    b.i2f(f, c);
    emitStoreOut(b, f);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 1, 1, gmem);
    EXPECT_FLOAT_EQ(out[0], 51.0f);
}

TEST(Interpreter, TranscendentalOpcodes)
{
    KernelBuilder b("sfu");
    Reg x = b.reg();
    Reg s = b.reg();
    Reg c = b.reg();
    Reg l = b.reg();
    Reg e = b.reg();
    Reg q = b.reg();
    b.movImmF(x, 0.5f);
    b.fsin(s, x);
    b.fcos(c, x);
    b.lg2(l, x);
    b.ex2(e, x);
    b.rsqrt(q, x);
    Reg sum = b.reg();
    b.fadd(sum, s, c);
    b.fadd(sum, sum, l);
    b.fadd(sum, sum, e);
    b.fadd(sum, sum, q);
    emitStoreOut(b, sum);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 1, 1, gmem);
    const float expect = std::sin(0.5f) + std::cos(0.5f) +
                         std::log2(0.5f) + std::exp2(0.5f) +
                         1.0f / std::sqrt(0.5f);
    EXPECT_NEAR(out[0], expect, 1e-5f);
}

TEST(Interpreter, SpecialRegisters)
{
    // out[gtid] = ctaid * 1000 + tid.
    KernelBuilder b("sregs");
    Reg tid = b.reg();
    Reg cta = b.reg();
    Reg ntid = b.reg();
    Reg gtid = b.reg();
    Reg v = b.reg();
    Reg addr = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.s2r(cta, SpecialReg::kCtaid);
    b.s2r(ntid, SpecialReg::kNtid);
    b.imad(gtid, cta, ntid, tid);
    b.imulImm(v, cta, 1000);
    b.iadd(v, v, tid);
    b.i2f(v, v);
    b.shlImm(addr, gtid, 2);
    b.iaddImm(addr, addr, static_cast<int32_t>(kOut));
    b.stg(addr, v);

    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    sim.run(b.build(), {3, 64}, gmem);
    const float *out = gmem.f32(kOut);
    for (int blk = 0; blk < 3; ++blk) {
        for (int t = 0; t < 64; ++t)
            EXPECT_FLOAT_EQ(out[blk * 64 + t],
                            static_cast<float>(blk * 1000 + t));
    }
}

TEST(Interpreter, LaneAndWarpId)
{
    KernelBuilder b("lanes");
    Reg lane = b.reg();
    Reg warp = b.reg();
    Reg v = b.reg();
    b.s2r(lane, SpecialReg::kLaneId);
    b.s2r(warp, SpecialReg::kWarpId);
    b.imulImm(v, warp, 100);
    b.iadd(v, v, lane);
    b.i2f(v, v);
    emitStoreOut(b, v);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 96, 96, gmem);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[33], 101.0f);
    EXPECT_FLOAT_EQ(out[95], 231.0f);
}

TEST(Interpreter, SelectAndPredicates)
{
    // out[tid] = tid < 3 ? 10 : 20.
    KernelBuilder b("sel");
    Reg tid = b.reg();
    Reg a = b.reg();
    Reg c = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImmF(a, 10.0f);
    b.movImmF(c, 20.0f);
    b.setpIImm(p, CmpOp::kLt, tid, 3);
    Reg r = b.reg();
    b.sel(r, p, a, c);
    emitStoreOut(b, r);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 8, 8, gmem);
    for (int i = 0; i < 8; ++i)
        EXPECT_FLOAT_EQ(out[i], i < 3 ? 10.0f : 20.0f);
}

TEST(Interpreter, DivergentIfElse)
{
    // Half the warp takes each branch.
    KernelBuilder b("ifelse");
    Reg tid = b.reg();
    Reg v = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.setpIImm(p, CmpOp::kLt, tid, 16);
    b.beginIf(p);
    b.movImmF(v, 1.0f);
    b.beginElse();
    b.movImmF(v, 2.0f);
    b.endIf();
    emitStoreOut(b, v);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 32, 32, gmem);
    for (int i = 0; i < 32; ++i)
        EXPECT_FLOAT_EQ(out[i], i < 16 ? 1.0f : 2.0f);
}

TEST(Interpreter, NestedDivergence)
{
    KernelBuilder b("nested");
    Reg tid = b.reg();
    Reg v = b.reg();
    Pred p1 = b.pred();
    Pred p2 = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImmF(v, 0.0f);
    b.setpIImm(p1, CmpOp::kLt, tid, 8);
    b.beginIf(p1);
    {
        b.setpIImm(p2, CmpOp::kLt, tid, 4);
        b.beginIf(p2);
        b.movImmF(v, 1.0f);
        b.beginElse();
        b.movImmF(v, 2.0f);
        b.endIf();
    }
    b.beginElse();
    b.movImmF(v, 3.0f);
    b.endIf();
    emitStoreOut(b, v);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 16, 16, gmem);
    for (int i = 0; i < 16; ++i) {
        const float expect = i < 4 ? 1.0f : (i < 8 ? 2.0f : 3.0f);
        EXPECT_FLOAT_EQ(out[i], expect) << i;
    }
}

TEST(Interpreter, EmptyBranchesAreSkipped)
{
    // No lane takes the IF; the body must not execute (it would trap
    // on an out-of-bounds store).
    KernelBuilder b("skip");
    Reg tid = b.reg();
    Reg bad = b.reg();
    Reg v = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.setpIImm(p, CmpOp::kLt, tid, 0);   // never true
    b.movImmF(v, 7.0f);
    b.beginIf(p);
    b.movImm(bad, 1 << 30);
    b.stg(bad, v);
    b.endIf();
    emitStoreOut(b, v);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 4, 4, gmem);
    EXPECT_FLOAT_EQ(out[0], 7.0f);
}

TEST(Interpreter, UniformLoop)
{
    // out[tid] = sum of 0..9.
    KernelBuilder b("loop");
    Reg i = b.reg();
    Reg sumI = b.reg();
    Reg sum = b.reg();
    Pred p = b.pred();
    b.movImm(i, 0);
    b.movImm(sumI, 0);
    b.beginLoop();
    b.setpIImm(p, CmpOp::kGe, i, 10);
    b.brk(p);
    b.iadd(sumI, sumI, i);
    b.iaddImm(i, i, 1);
    b.endLoop();
    b.i2f(sum, sumI);
    emitStoreOut(b, sum);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 8, 8, gmem);
    for (int i2 = 0; i2 < 8; ++i2)
        EXPECT_FLOAT_EQ(out[i2], 45.0f);
}

TEST(Interpreter, DivergentLoopTripCounts)
{
    // Thread t iterates t+1 times: out[t] = t+1.
    KernelBuilder b("divloop");
    Reg tid = b.reg();
    Reg i = b.reg();
    Reg cnt = b.reg();
    Reg f = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImm(i, 0);
    b.movImm(cnt, 0);
    b.beginLoop();
    b.setpI(p, CmpOp::kGt, i, tid);
    b.brk(p);
    b.iaddImm(cnt, cnt, 1);
    b.iaddImm(i, i, 1);
    b.endLoop();
    b.i2f(f, cnt);
    emitStoreOut(b, f);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(), 40, 40, gmem);
    for (int t = 0; t < 40; ++t)
        EXPECT_FLOAT_EQ(out[t], static_cast<float>(t + 1)) << t;
}

TEST(Interpreter, SharedMemoryRoundTripAndBarrier)
{
    // Reverse a block's values through shared memory across a barrier
    // (cross-warp communication).
    const int n = 64;
    KernelBuilder b("reverse");
    Reg tid = b.reg();
    Reg sa = b.reg();
    Reg v = b.reg();
    Reg rev = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(sa, tid, 2);
    b.i2f(v, tid);
    b.sts(sa, v);
    b.bar();
    // read shared[n-1-tid]
    b.movImm(rev, n - 1);
    b.isub(rev, rev, tid);
    b.shlImm(rev, rev, 2);
    b.lds(v, rev);
    emitStoreOut(b, v);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(n * 4), n, n, gmem);
    for (int t = 0; t < n; ++t)
        EXPECT_FLOAT_EQ(out[t], static_cast<float>(n - 1 - t));
}

TEST(Interpreter, FmadSharedReadsOperandFromShared)
{
    KernelBuilder b("mads");
    Reg tid = b.reg();
    Reg sa = b.reg();
    Reg v = b.reg();
    Reg acc = b.reg();
    Reg zero = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(sa, tid, 2);
    b.i2f(v, tid);
    b.sts(sa, v);
    b.movImm(zero, 0);
    b.movImmF(acc, 1.0f);
    // acc = 2 * shared[tid*4] + acc
    Reg two = b.reg();
    b.movImmF(two, 2.0f);
    b.fmadShared(acc, two, sa, 0, acc);
    emitStoreOut(b, acc);
    GlobalMemory gmem(1 << 20);
    auto out = runAndReadF(b.build(256), 8, 8, gmem);
    for (int t = 0; t < 8; ++t)
        EXPECT_FLOAT_EQ(out[t], 2.0f * t + 1.0f);
}

TEST(Interpreter, StatsCountInstructionTypes)
{
    KernelBuilder b("counts");
    Reg x = b.reg();
    Reg y = b.reg();
    b.movImmF(x, 1.0f);
    b.movImmF(y, 1.0f);
    b.fmul(x, x, y);   // type I
    b.fmad(x, x, y, y);  // type II + MAD
    b.rcp(x, x);       // type III
    b.dadd(x, x, y);   // type IV
    emitStoreOut(b, x);

    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    RunResult res = sim.run(b.build(), {1, 32}, gmem);
    const auto &stats = res.stats;
    EXPECT_EQ(stats.totalType(arch::InstrType::TypeI), 1u);
    EXPECT_EQ(stats.totalType(arch::InstrType::TypeIII), 1u);
    EXPECT_EQ(stats.totalType(arch::InstrType::TypeIV), 1u);
    EXPECT_EQ(stats.totalMads(), 1u);
    // Type II: 2 movi + mad + 3 store-address ops (s2r, shl, iadd).
    EXPECT_EQ(stats.totalType(arch::InstrType::TypeII), 6u);
    // Total includes the global store.
    EXPECT_EQ(stats.totalWarpInstrs(), 10u);
}

TEST(Interpreter, StatsSplitStagesAtBarriers)
{
    KernelBuilder b("stages");
    Reg x = b.reg();
    Reg y = b.reg();
    b.movImmF(x, 1.0f);
    b.movImmF(y, 1.0f);
    b.bar();
    b.fadd(x, x, y);
    b.fadd(x, x, y);
    b.bar();
    b.fmul(x, x, y);
    emitStoreOut(b, x);

    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    RunResult res = sim.run(b.build(), {1, 64}, gmem);
    ASSERT_EQ(res.stats.stages.size(), 3u);
    EXPECT_EQ(res.stats.barriersPerBlock, 2);
    // Stage 0: two movi per warp (x2 warps) + the barrier itself.
    const auto &s0 = res.stats.stages[0];
    EXPECT_EQ(s0.typeCounts[1], 2u * 2 + 2);
    const auto &s2 = res.stats.stages[2];
    EXPECT_EQ(res.stats.stages[1].typeCounts[1], 2u * 2 + 2);
    EXPECT_EQ(s2.typeCounts[0], 2u);  // fmul is type I
}

TEST(Interpreter, SharedStatsCountConflictsExactly)
{
    // Stride-2 access: 2-way conflicts on both half-warps -> 4 passes;
    // ideal would be 2.
    KernelBuilder b("conflicts");
    Reg tid = b.reg();
    Reg sa = b.reg();
    Reg v = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(sa, tid, 3);  // tid * 8 bytes = stride-2 words
    b.lds(v, sa);
    emitStoreOut(b, v);
    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    RunResult res = sim.run(b.build(1024), {1, 32}, gmem);
    EXPECT_EQ(res.stats.totalSharedTransactions(), 4u);
    EXPECT_EQ(res.stats.stages[0].sharedTransactionsIdeal, 2u);
    EXPECT_EQ(res.stats.totalSharedBytes(), 32u * 4);
}

TEST(Interpreter, GlobalStatsCountCoalescedTransactions)
{
    // Coalesced warp load: 2 x 64 B transactions.
    KernelBuilder b("gmem");
    Reg tid = b.reg();
    Reg a = b.reg();
    Reg v = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(a, tid, 2);
    b.iaddImm(a, a, static_cast<int32_t>(kOut));
    b.ldg(v, a);
    b.stg(a, v);
    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    RunResult res = sim.run(b.build(), {1, 32}, gmem);
    EXPECT_EQ(res.stats.totalGlobalTransactions(), 4u);
    EXPECT_EQ(res.stats.totalGlobalBytes(), 4u * 64);
    EXPECT_EQ(res.stats.stages[0].globalXactBySize.at(64), 4u);
    EXPECT_EQ(res.stats.stages[0].globalRequestBytes, 2u * 32 * 4);
}

TEST(Interpreter, UncoalescedStrideFourIsSplitIntoSegments)
{
    KernelBuilder b("gmem_stride");
    Reg tid = b.reg();
    Reg a = b.reg();
    Reg v = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(a, tid, 4);  // stride 16 B
    b.iaddImm(a, a, static_cast<int32_t>(kOut));
    b.ldg(v, a);
    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    RunResult res = sim.run(b.build(), {1, 32}, gmem);
    // Half-warp spans 256 B -> 2 x 128 B segments; 4 for the warp.
    EXPECT_EQ(res.stats.totalGlobalTransactions(), 4u);
    EXPECT_EQ(res.stats.totalGlobalBytes(), 4u * 128);
}

TEST(Interpreter, HomogeneousReplicationScalesStats)
{
    KernelBuilder b("homog");
    Reg x = b.reg();
    Reg y = b.reg();
    b.movImmF(x, 1.0f);
    b.movImmF(y, 2.0f);
    b.fmad(x, x, y, y);
    emitStoreOut(b, x);

    GlobalMemory g1(1 << 20);
    GlobalMemory g2(1 << 20);
    FunctionalSimulator sim(spec());
    RunOptions homog;
    homog.homogeneous = true;
    RunResult full = sim.run(b.build(), {20, 64}, g1);
    RunResult sampled = sim.run(b.build(), {20, 64}, g2, homog);
    EXPECT_EQ(full.stats.totalWarpInstrs(),
              sampled.stats.totalWarpInstrs());
    EXPECT_EQ(full.stats.totalMads(), sampled.stats.totalMads());
    EXPECT_EQ(sampled.stats.sampledBlocks, 1);
}

TEST(Interpreter, TraceDeduplicatesIdenticalWarps)
{
    KernelBuilder b("trace");
    Reg x = b.reg();
    b.movImmF(x, 1.0f);
    b.fadd(x, x, x);
    emitStoreOut(b, x);
    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    RunOptions opts;
    opts.collectTrace = true;
    RunResult res = sim.run(b.build(), {4, 64}, gmem, opts);
    ASSERT_EQ(res.trace.blocks.size(), 4u);
    EXPECT_EQ(res.trace.blocks[0].warpTraceIdx.size(), 2u);
    // All warps execute identical streams except for addresses, which
    // differ in the store transaction layout only; the arithmetic part
    // dedups. Pool must be far smaller than 8 traces.
    EXPECT_LE(res.trace.pool.size(), 2u);
    EXPECT_GT(res.trace.totalOps(), 0u);
}

TEST(Interpreter, TraceRecordsUnitsAndConflicts)
{
    KernelBuilder b("trace_units");
    Reg tid = b.reg();
    Reg sa = b.reg();
    Reg v = b.reg();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(sa, tid, 3);  // 2-way conflict
    b.lds(v, sa);
    b.bar();
    b.fadd(v, v, v);
    emitStoreOut(b, v);
    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    RunOptions opts;
    opts.collectTrace = true;
    RunResult res = sim.run(b.build(1024), {1, 32}, gmem, opts);
    const auto &ops = res.trace.pool[0].ops;
    int shared_ops = 0;
    int barrier_ops = 0;
    int global_ops = 0;
    for (const auto &op : ops) {
        if (op.unit == isa::UnitKind::kSharedMem) {
            ++shared_ops;
            EXPECT_EQ(op.conflict, 4);  // 2-way on both half-warps
        }
        if (op.unit == isa::UnitKind::kBarrier)
            ++barrier_ops;
        if (op.unit == isa::UnitKind::kGlobalStore)
            ++global_ops;
    }
    EXPECT_EQ(shared_ops, 1);
    EXPECT_EQ(barrier_ops, 1);
    EXPECT_EQ(global_ops, 1);
}

TEST(InterpreterDeath, BarrierInsideDivergenceIsFatal)
{
    KernelBuilder b("badbar");
    Reg tid = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.setpIImm(p, CmpOp::kLt, tid, 1);
    b.beginIf(p);
    b.bar();
    b.endIf();
    isa::Kernel k = b.build();
    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    LaunchConfig cfg{1, 32};
    EXPECT_DEATH(sim.run(k, cfg, gmem), "divergent");
}

TEST(InterpreterDeath, RunawayLoopIsFatal)
{
    KernelBuilder b("runaway");
    Reg i = b.reg();
    Pred p = b.pred();
    b.movImm(i, 0);
    b.beginLoop();
    b.setpIImm(p, CmpOp::kLt, i, 0);  // never breaks
    b.brk(p);
    b.endLoop();
    isa::Kernel k = b.build();
    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    LaunchConfig cfg{1, 32};
    RunOptions opts;
    opts.maxWarpOps = 10000;
    EXPECT_DEATH(sim.run(k, cfg, gmem, opts), "runaway");
}

TEST(Interpreter, ActiveWarpCensusTracksPartialBlocks)
{
    // Only warp 0 does real work; warps 1-3 fall through.
    KernelBuilder b("census");
    Reg tid = b.reg();
    Reg x = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImmF(x, 0.0f);
    b.setpIImm(p, CmpOp::kLt, tid, 32);
    b.beginIf(p);
    for (int i = 0; i < 50; ++i)
        b.fadd(x, x, x);
    b.endIf();
    emitStoreOut(b, x);
    GlobalMemory gmem(1 << 20);
    FunctionalSimulator sim(spec());
    RunResult res = sim.run(b.build(), {1, 128}, gmem);
    EXPECT_NEAR(res.stats.stages[0].activeWarpsPerBlock, 1.0, 1e-9);
}

// --------------------------------------------------------------------
// Library-vs-oracle bit-identity: the data-oriented core must be
// indistinguishable from the lane-at-a-time oracle in
// reference_funcsim.h — same memory image, same StageStats, same
// interned traces — on every divergence shape the mask machinery can
// produce.
// --------------------------------------------------------------------

/**
 * GTX 285 with 16-lane warps: exercises sub-32 masks (lanesMask_ !=
 * 0xffffffff) and tail warps whose size is not a multiple of 32.
 * maxWarpsPerSm doubles so the occupancy invariant
 * maxWarpsPerSm * warpSize >= maxThreadsPerSm still holds.
 */
arch::GpuSpec
halfWarpSpec()
{
    arch::GpuSpec gs = arch::GpuSpec::gtx285();
    gs.name = "GTX 285 (16-lane warps)";
    gs.warpSize = 16;
    gs.maxWarpsPerSm = 64;
    return gs;
}

/**
 * Run @p k under the library's simulator and the lane-at-a-time oracle
 * on copies of @p pristine and require byte-identical results:
 * per-stage statistics, barrier census, interned warp traces
 * (contents and hashes), per-block trace indices, and the final
 * memory image digest.
 */
void
expectBitIdentical(const isa::Kernel &k, const LaunchConfig &cfg,
                   const GlobalMemory &pristine,
                   const arch::GpuSpec &gs)
{
    GlobalMemory memRef = pristine;
    GlobalMemory memVec = pristine;
    reference::ScalarFunctionalSimulator ref(gs);
    FunctionalSimulator vec(gs);
    RunOptions opts;
    opts.collectTrace = true;
    RunResult a = ref.run(k, cfg, memRef, opts);
    RunResult b = vec.run(k, cfg, memVec, opts);

    EXPECT_EQ(a.stats.gridDim, b.stats.gridDim);
    EXPECT_EQ(a.stats.blockDim, b.stats.blockDim);
    EXPECT_EQ(a.stats.warpsPerBlock, b.stats.warpsPerBlock);
    EXPECT_EQ(a.stats.barriersPerBlock, b.stats.barriersPerBlock);
    EXPECT_EQ(a.stats.sampledBlocks, b.stats.sampledBlocks);
    ASSERT_EQ(a.stats.stages.size(), b.stats.stages.size());
    for (size_t i = 0; i < a.stats.stages.size(); ++i)
        EXPECT_TRUE(a.stats.stages[i] == b.stats.stages[i])
            << "stage " << i << " diverged";

    ASSERT_EQ(a.trace.pool.size(), b.trace.pool.size());
    for (size_t i = 0; i < a.trace.pool.size(); ++i) {
        EXPECT_TRUE(a.trace.pool[i] == b.trace.pool[i])
            << "warp trace " << i << " diverged";
        EXPECT_EQ(a.trace.pool[i].hash(), b.trace.pool[i].hash());
    }
    ASSERT_EQ(a.trace.blocks.size(), b.trace.blocks.size());
    for (size_t i = 0; i < a.trace.blocks.size(); ++i)
        EXPECT_EQ(a.trace.blocks[i].warpTraceIdx,
                  b.trace.blocks[i].warpTraceIdx)
            << "block " << i << " interning diverged";

    EXPECT_EQ(memRef.contentHash(), memVec.contentHash());
}

/** Fresh image whose first 64 KiB are covered by contentHash(). */
GlobalMemory
hashedMemory()
{
    GlobalMemory gmem(1 << 20);
    gmem.alloc(64 * 1024);
    return gmem;
}

TEST(FuncsimOracleIdentity, EmptyActiveMaskAfterIf)
{
    // No lane satisfies the predicate: the IF body runs with an empty
    // mask and there is no else arm to repopulate it.
    KernelBuilder b("empty-if");
    Reg tid = b.reg();
    Reg x = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImmF(x, 1.0f);
    b.setpIImm(p, CmpOp::kLt, tid, 0);
    b.beginIf(p);
    b.fadd(x, x, x);
    b.iadd(tid, tid, tid);
    b.endIf();
    emitStoreOut(b, x);
    isa::Kernel k = b.build();
    expectBitIdentical(k, {2, 64}, hashedMemory(), spec());
    expectBitIdentical(k, {2, 64}, hashedMemory(), halfWarpSpec());
}

TEST(FuncsimOracleIdentity, AllLanesTakeIfWithEmptyElse)
{
    KernelBuilder b("full-if");
    Reg tid = b.reg();
    Reg x = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImmF(x, 2.0f);
    b.setpIImm(p, CmpOp::kGe, tid, 0);
    b.beginIf(p);
    b.fmul(x, x, x);
    b.beginElse();
    b.movImmF(x, -1.0f);
    b.endIf();
    emitStoreOut(b, x);
    isa::Kernel k = b.build();
    expectBitIdentical(k, {1, 96}, hashedMemory(), spec());
    expectBitIdentical(k, {1, 96}, hashedMemory(), halfWarpSpec());
}

TEST(FuncsimOracleIdentity, SingleLaneBranchArm)
{
    // Fully divergent warp: each loop iteration isolates exactly one
    // lane through an equality predicate.
    KernelBuilder b("one-lane");
    Reg tid = b.reg();
    Reg x = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImmF(x, 0.0f);
    for (int lane = 0; lane < 8; ++lane) {
        b.setpIImm(p, CmpOp::kEq, tid, lane);
        b.beginIf(p);
        b.movImmF(x, static_cast<float>(lane + 1));
        b.endIf();
    }
    emitStoreOut(b, x);
    isa::Kernel k = b.build();
    expectBitIdentical(k, {1, 32}, hashedMemory(), spec());
    expectBitIdentical(k, {1, 32}, hashedMemory(), halfWarpSpec());
}

TEST(FuncsimOracleIdentity, PerLaneLoopTripCounts)
{
    // tid-dependent trip counts: the loop mask thins lane by lane.
    KernelBuilder b("lane-trips");
    Reg tid = b.reg();
    Reg i = b.reg();
    Reg acc = b.reg();
    Reg one = b.reg();
    Pred done = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImm(i, 0);
    b.movImmF(acc, 0.0f);
    b.movImmF(one, 1.0f);
    b.beginLoop();
    b.isub(i, i, tid);   // i counts down by tid (0 for lane 0)
    b.iaddImm(i, i, -1); // ... minus one, so every lane terminates
    b.fadd(acc, acc, one);
    b.setpIImm(done, CmpOp::kLt, i, -20);
    b.brk(done);
    b.endLoop();
    emitStoreOut(b, acc);
    isa::Kernel k = b.build();
    expectBitIdentical(k, {1, 64}, hashedMemory(), spec());
    expectBitIdentical(k, {1, 64}, hashedMemory(), halfWarpSpec());
}

TEST(FuncsimOracleIdentity, PredicateNegatePaths)
{
    // Negated guards on both structured constructs: beginIf(p, true)
    // and brk(p, true) exercise the negate flag in guardMask.
    KernelBuilder b("negate");
    Reg tid = b.reg();
    Reg x = b.reg();
    Reg i = b.reg();
    Reg four = b.reg();
    Reg half = b.reg();
    Pred p = b.pred();
    Pred keep = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImmF(x, 1.0f);
    b.movImmF(four, 4.0f);
    b.movImmF(half, 0.5f);
    b.setpIImm(p, CmpOp::kLt, tid, 16);
    b.beginIf(p, true);              // lanes with tid >= 16
    b.fadd(x, x, four);
    b.endIf();
    b.movImm(i, 0);
    b.beginLoop();
    b.iaddImm(i, i, 1);
    b.fadd(x, x, half);
    b.setpIImm(keep, CmpOp::kLt, i, 3);
    b.brk(keep, true);               // leave when NOT (i < 3)
    b.endLoop();
    emitStoreOut(b, x);
    isa::Kernel k = b.build();
    expectBitIdentical(k, {2, 48}, hashedMemory(), spec());
    expectBitIdentical(k, {2, 48}, hashedMemory(), halfWarpSpec());
}

TEST(FuncsimOracleIdentity, TailWarpsAndSubWarpSpecs)
{
    // blockDim 40 leaves a 8-lane tail warp on gtx285; blockDim 24
    // leaves an 8-lane tail on the 16-lane spec. Divergence inside
    // the tail exercises masks that never cover the full warp.
    KernelBuilder b("tail");
    Reg tid = b.reg();
    Reg x = b.reg();
    Reg negOne = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.movImmF(x, 3.0f);
    b.movImmF(negOne, -1.0f);
    b.setpIImm(p, CmpOp::kGe, tid, 36);
    b.beginIf(p);
    b.fmul(x, x, x);
    b.beginElse();
    b.fadd(x, x, negOne);
    b.endIf();
    emitStoreOut(b, x);
    isa::Kernel k = b.build();
    expectBitIdentical(k, {3, 40}, hashedMemory(), spec());
    expectBitIdentical(k, {3, 24}, hashedMemory(), halfWarpSpec());
    expectBitIdentical(k, {1, 17}, hashedMemory(), halfWarpSpec());
}

TEST(FuncsimOracleIdentity, SharedMemoryUnderDivergence)
{
    // STS/LDS inside a divergent IF: the inactive lanes must keep
    // their registers and shared words untouched, and conflict
    // degrees must match on the partial masks.
    KernelBuilder b("shared-div");
    Reg tid = b.reg();
    Reg addr = b.reg();
    Reg v = b.reg();
    Reg out = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(addr, tid, 3);          // stride-2 words: bank conflicts
    b.i2f(v, tid);
    b.movImmF(out, -7.0f);
    b.setpIImm(p, CmpOp::kLt, tid, 20);
    b.beginIf(p);
    b.sts(addr, v);
    b.endIf();
    b.bar();                         // barriers must be convergent
    b.beginIf(p);
    b.lds(out, addr, 0);
    b.endIf();
    emitStoreOut(b, out);
    isa::Kernel k = b.build(2048);
    expectBitIdentical(k, {2, 32}, hashedMemory(), spec());
    expectBitIdentical(k, {2, 32}, hashedMemory(), halfWarpSpec());
}

TEST(FuncsimOracleIdentity, GlobalAndTextureUnderDivergence)
{
    // Divergent LDG/STG/LDT with a data-dependent stride: coalescing
    // segment splits and texture line dedup must agree exactly.
    GlobalMemory gmem = hashedMemory();
    for (int i = 0; i < 256; ++i)
        gmem.f32(8192)[i] = 0.25f * static_cast<float>(i);

    KernelBuilder b("global-div");
    Reg tid = b.reg();
    Reg addr = b.reg();
    Reg x = b.reg();
    Reg t = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(addr, tid, 4);          // stride-4 words: segment splits
    b.movImmF(x, 0.0f);
    b.movImmF(t, 0.0f);
    b.setpIImm(p, CmpOp::kLt, tid, 24);
    b.beginIf(p);
    b.ldg(x, addr, 8192);
    b.ldt(t, addr, 16384);
    b.fadd(x, x, t);
    b.endIf();
    emitStoreOut(b, x);
    isa::Kernel k = b.build();
    expectBitIdentical(k, {2, 32}, gmem, spec());
    expectBitIdentical(k, {2, 32}, gmem, halfWarpSpec());
}

TEST(FuncsimOracleIdentity, FmadSharedUnderDivergence)
{
    // FMAD with a shared-memory operand inside a divergent IF: the
    // gathered operand, conflict passes and trace fields must match.
    KernelBuilder b("fmads-div");
    Reg tid = b.reg();
    Reg addr = b.reg();
    Reg v = b.reg();
    Reg acc = b.reg();
    Pred p = b.pred();
    b.s2r(tid, SpecialReg::kTid);
    b.shlImm(addr, tid, 2);
    b.i2f(v, tid);
    b.sts(addr, v);
    b.bar();
    b.movImmF(acc, 1.0f);
    b.setpIImm(p, CmpOp::kGe, tid, 8);
    b.beginIf(p);
    b.fmadShared(acc, v, addr, 0, acc);
    b.endIf();
    emitStoreOut(b, acc);
    isa::Kernel k = b.build(1024);
    expectBitIdentical(k, {2, 48}, hashedMemory(), spec());
    expectBitIdentical(k, {2, 48}, hashedMemory(), halfWarpSpec());
}

} // namespace
} // namespace funcsim
} // namespace gpuperf
