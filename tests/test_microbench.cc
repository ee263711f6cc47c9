/**
 * @file
 * Microbenchmark-generator tests: the benches execute the instruction
 * mixes they claim, with the access patterns the calibration relies
 * on (conflict-free shared copies, fully coalesced streams), and the
 * calibration they feed is pinned by its digest.
 */

#include <gtest/gtest.h>

#include "funcsim/interpreter.h"
#include "model/calibration.h"
#include "model/device.h"
#include "model/microbench.h"
#include "store/codecs.h"

namespace gpuperf {
namespace model {
namespace {

arch::GpuSpec
spec()
{
    return arch::GpuSpec::gtx285();
}

class InstrBenchTypes
    : public ::testing::TestWithParam<arch::InstrType> {};

TEST_P(InstrBenchTypes, ExecutesTheRequestedMix)
{
    const arch::InstrType type = GetParam();
    isa::Kernel k = makeInstructionBench(type, 10, 5, 4096);
    funcsim::GlobalMemory gmem(1 << 20);
    funcsim::FunctionalSimulator sim(spec());
    auto res = sim.run(k, {1, 64}, gmem);
    // 10 * 5 ops per thread, 2 warps.
    const uint64_t want = 10 * 5 * 2;
    if (type == arch::InstrType::TypeII) {
        // Bookkeeping is also type II; at least the payload count.
        EXPECT_GE(res.stats.totalType(type), want);
    } else {
        EXPECT_EQ(res.stats.totalType(type), want);
    }
    // The payload dominates the dynamic mix.
    EXPECT_GT(static_cast<double>(res.stats.totalType(type)),
              0.6 * res.stats.totalWarpInstrs());
}

INSTANTIATE_TEST_SUITE_P(Types, InstrBenchTypes,
                         ::testing::ValuesIn(arch::kAllInstrTypes));

TEST(SharedBench, ConflictFreeAndBalanced)
{
    isa::Kernel k = makeSharedCopyBench(128, 64, 4096);
    funcsim::GlobalMemory gmem(1 << 20);
    funcsim::FunctionalSimulator sim(spec());
    auto res = sim.run(k, {1, 128}, gmem);
    const auto &s = res.stats.stages[0];
    // No bank conflicts: every pass is a conflict-free half-warp.
    EXPECT_EQ(s.sharedTransactions, s.sharedTransactionsIdeal);
    // 64 copies = 128 accesses per thread; 4 warps, 2 passes each.
    EXPECT_EQ(s.sharedTransactions, 128u * 4 * 2);
}

TEST(GlobalBench, FullyCoalescedAndSized)
{
    const int threads = 30 * 256;
    isa::Kernel k =
        makeGlobalStreamBench(64, 8, threads, 1 << 20, 1 << 22);
    funcsim::GlobalMemory gmem(16 << 20);
    funcsim::FunctionalSimulator sim(spec());
    funcsim::RunOptions opts;
    opts.homogeneous = true;
    auto res = sim.run(k, {30, 256}, gmem, opts);
    const auto &s = res.stats.stages[0];
    // 64 requests per thread -> per warp 64 loads, 2 x 64 B each.
    EXPECT_EQ(s.globalTransactions,
              static_cast<uint64_t>(threads) / 32 * 64 * 2 +
                  /* final store */ static_cast<uint64_t>(threads) / 32 *
                      2);
    // Fully coalesced: requested == transferred.
    EXPECT_EQ(s.globalRequestBytes, s.globalBytes);
}

TEST(GlobalBench, RespectsBufferBounds)
{
    // A tiny wrap buffer must still execute correctly (addresses wrap).
    const int threads = 30 * 64;
    isa::Kernel k =
        makeGlobalStreamBench(32, 8, threads, 1 << 20, 1 << 16);
    funcsim::GlobalMemory gmem(4 << 20);
    funcsim::FunctionalSimulator sim(spec());
    funcsim::RunOptions opts;
    opts.homogeneous = true;
    EXPECT_NO_FATAL_FAILURE(sim.run(k, {30, 64}, gmem, opts));
}

TEST(Calibration, PresetsCalibrateToThePinnedTables)
{
    // The four presets calibrate to identical tables. The digest pins
    // every entry bit for bit, whichever replay path times the sweep's
    // launches.
    for (const arch::GpuSpec &s :
         {arch::GpuSpec::gtx285(), arch::GpuSpec::gtx285MoreBlocks(),
          arch::GpuSpec::gtx285BigResources(),
          arch::GpuSpec::gtx285PrimeBanks()}) {
        SimulatedDevice device(s);
        Calibrator calibrator(device);
        EXPECT_EQ(store::tablesDigest(calibrator.tables()),
                  0x30b21c58bfa31565ull)
            << s.name;
    }
}

TEST(MicrobenchDeath, BadArguments)
{
    EXPECT_DEATH(makeInstructionBench(arch::InstrType::TypeII, 0, 5, 0),
                 "positive");
    EXPECT_DEATH(makeGlobalStreamBench(8, 8, 64, 0, 12345),
                 "power of two");
}

} // namespace
} // namespace model
} // namespace gpuperf
