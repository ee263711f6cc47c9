/**
 * @file
 * SpMV: format builders, kernel correctness for ELL / BELL+IM /
 * BELL+IMIV (with and without the texture path), and the traffic
 * analysis behind paper Figures 10 and 11(a).
 */

#include <cmath>

#include <gtest/gtest.h>

#include "apps/spmv/kernels.h"
#include "apps/spmv/traffic.h"
#include "funcsim/interpreter.h"
#include "memxact/coalescing.h"

namespace gpuperf {
namespace apps {
namespace {

arch::GpuSpec
spec()
{
    return arch::GpuSpec::gtx285();
}

BlockSparseMatrix
smallMatrix()
{
    return makeBandedBlockMatrix(/*block_rows=*/256, /*blocks_per_row=*/7,
                                 /*half_band=*/12);
}

double
maxAbsDiff(const std::vector<float> &y, const std::vector<double> &ref)
{
    double err = 0.0;
    for (size_t i = 0; i < ref.size(); ++i) {
        const double denom = std::max(1.0, std::fabs(ref[i]));
        err = std::max(err, std::fabs(y[i] - ref[i]) / denom);
    }
    return err;
}

TEST(SpmvMatrix, GeneratorProducesUniformBandedStructure)
{
    BlockSparseMatrix m = smallMatrix();
    EXPECT_TRUE(m.uniform());
    EXPECT_EQ(m.rows(), 768);
    EXPECT_EQ(m.maxRowEntries(), 21);
    EXPECT_EQ(m.storedEntries(), 256u * 7 * 9);
    for (int r = 0; r < m.blockRows; ++r) {
        bool has_diag = false;
        for (size_t i = 0; i < m.blockCols[r].size(); ++i) {
            const int c = m.blockCols[r][i];
            EXPECT_GE(c, r - 12);
            EXPECT_LE(c, r + 12);
            if (i > 0) {
                EXPECT_GT(c, m.blockCols[r][i - 1]);  // sorted unique
            }
            has_diag = has_diag || c == r;
        }
        EXPECT_TRUE(has_diag);
    }
}

TEST(SpmvMatrix, CpuReferenceOnHandBuiltMatrix)
{
    // 1 block-row, identity-like diagonal block.
    BlockSparseMatrix m;
    m.blockRows = 1;
    m.blockSize = 3;
    m.blockCols = {{0}};
    m.blockVals = {{1, 0, 0, 0, 1, 0, 0, 0, 1}};
    const float x[3] = {1.0f, 2.0f, 3.0f};
    double y[3];
    cpuSpmv(m, x, y);
    EXPECT_DOUBLE_EQ(y[0], 1.0);
    EXPECT_DOUBLE_EQ(y[1], 2.0);
    EXPECT_DOUBLE_EQ(y[2], 3.0);
}

struct SpmvKernelCase
{
    SpmvFormat format;
    bool texture;
};

class SpmvKernels : public ::testing::TestWithParam<SpmvKernelCase> {};

TEST_P(SpmvKernels, MatchesCpuReference)
{
    const SpmvKernelCase c = GetParam();
    BlockSparseMatrix m = smallMatrix();
    funcsim::GlobalMemory gmem(64 << 20);
    SpmvVectors v = makeVectors(gmem, m);

    arch::GpuSpec s = spec();
    s.textureCacheEnabled = c.texture;
    funcsim::FunctionalSimulator sim(s);

    bool interleaved_y = false;
    switch (c.format) {
      case SpmvFormat::kEll: {
        EllDeviceMatrix ell = buildEll(gmem, m);
        isa::Kernel k = makeEllKernel(ell, v, c.texture);
        sim.run(k, {spmvGridDim(ell.rows), kSpmvBlockDim}, gmem);
        break;
      }
      case SpmvFormat::kBell:
      case SpmvFormat::kBellIm: {
        BellDeviceMatrix bell =
            buildBell(gmem, m, c.format == SpmvFormat::kBellIm);
        isa::Kernel k = makeBellKernel(bell, v, false, c.texture);
        sim.run(k, {spmvGridDim(bell.blockRows), kSpmvBlockDim}, gmem);
        break;
      }
      case SpmvFormat::kBellImIv: {
        BellDeviceMatrix bell = buildBell(gmem, m, true);
        isa::Kernel k = makeBellKernel(bell, v, true, c.texture);
        sim.run(k, {spmvGridDim(bell.blockRows), kSpmvBlockDim}, gmem);
        interleaved_y = true;
        break;
      }
    }

    std::vector<double> ref(m.rows());
    cpuSpmv(m, gmem.f32(v.xBase), ref.data());
    EXPECT_LT(maxAbsDiff(readY(gmem, v, interleaved_y), ref), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, SpmvKernels,
    ::testing::Values(SpmvKernelCase{SpmvFormat::kEll, false},
                      SpmvKernelCase{SpmvFormat::kEll, true},
                      SpmvKernelCase{SpmvFormat::kBell, false},
                      SpmvKernelCase{SpmvFormat::kBellIm, false},
                      SpmvKernelCase{SpmvFormat::kBellIm, true},
                      SpmvKernelCase{SpmvFormat::kBellImIv, false},
                      SpmvKernelCase{SpmvFormat::kBellImIv, true}));

TEST(SpmvTraffic, MatrixLoadsAreFourBytesWhenInterleaved)
{
    // Fully coalesced value streams cost exactly 4 B per entry.
    BlockSparseMatrix m = smallMatrix();
    for (int gran : {32, 16, 4}) {
        TrafficBreakdown ell = analyzeTraffic(m, SpmvFormat::kEll, gran);
        TrafficBreakdown im =
            analyzeTraffic(m, SpmvFormat::kBellIm, gran);
        EXPECT_NEAR(ell.matrixBytes, 4.0, 0.1) << gran;
        EXPECT_NEAR(im.matrixBytes, 4.0, 0.1) << gran;
    }
}

TEST(SpmvTraffic, BellSharesColumnIndexAcrossBlock)
{
    // 9 entries share one 4 B index: ~0.44 B per entry (Fig. 11a).
    BlockSparseMatrix m = smallMatrix();
    TrafficBreakdown im = analyzeTraffic(m, SpmvFormat::kBellIm, 32);
    EXPECT_NEAR(im.indexBytes, 4.0 / 9.0, 0.1);
    TrafficBreakdown ell = analyzeTraffic(m, SpmvFormat::kEll, 32);
    EXPECT_NEAR(ell.indexBytes, 4.0, 0.1);
}

TEST(SpmvTraffic, InterleavedVectorReducesVectorBytes)
{
    BlockSparseMatrix m = smallMatrix();
    for (int gran : {32, 16}) {
        TrafficBreakdown im =
            analyzeTraffic(m, SpmvFormat::kBellIm, gran);
        TrafficBreakdown imiv =
            analyzeTraffic(m, SpmvFormat::kBellImIv, gran);
        EXPECT_LT(imiv.vectorBytes, im.vectorBytes) << gran;
    }
}

TEST(SpmvTraffic, SmallerGranularityReducesVectorBytes)
{
    // Paper Figure 11(a): 32 B -> 16 B -> 4 B monotonically shrinks
    // the gathered-vector overfetch.
    BlockSparseMatrix m = smallMatrix();
    for (SpmvFormat f :
         {SpmvFormat::kEll, SpmvFormat::kBellIm, SpmvFormat::kBellImIv}) {
        const double b32 = analyzeTraffic(m, f, 32).vectorBytes;
        const double b16 = analyzeTraffic(m, f, 16).vectorBytes;
        const double b4 = analyzeTraffic(m, f, 4).vectorBytes;
        EXPECT_GE(b32, b16) << spmvFormatName(f);
        EXPECT_GE(b16, b4) << spmvFormatName(f);
        // At 4 B granularity the gather fetches only useful words
        // (4 B per entry at most, fewer when threads share words).
        EXPECT_LE(b4, 4.05) << spmvFormatName(f);
    }
}

TEST(SpmvTraffic, UninterleavedBellIsWorseThanInterleaved)
{
    BlockSparseMatrix m = smallMatrix();
    TrafficBreakdown plain = analyzeTraffic(m, SpmvFormat::kBell, 32);
    TrafficBreakdown im = analyzeTraffic(m, SpmvFormat::kBellIm, 32);
    EXPECT_GT(plain.matrixBytes, im.matrixBytes);
}

TEST(SpmvTraffic, InterleavingSavesToyMachineGathers)
{
    // Figure 10: the 12x12 matrix of 3x3 blocks on the paper's toy
    // machine, whose transactions are 8 B and whose threads issue in
    // pairs. One thread per block row gathers x for each block it
    // holds, from the straightforward vector (x[c*3 + e]) or the
    // interleaved one (x[e*4 + c]).
    const BlockSparseMatrix m = makeBandedBlockMatrix(
        /*block_rows=*/4, /*blocks_per_row=*/2, /*half_band=*/2,
        /*seed=*/3);
    memxact::CoalescingSimulator toy(/*min=*/8, /*max=*/8, /*group=*/2);
    uint64_t xacts[2] = {0, 0};
    for (bool interleaved : {false, true}) {
        for (int g = 0; g < m.blockRows; g += 2) {
            for (size_t blk = 0; blk < m.blockCols[g].size(); ++blk) {
                for (int e = 0; e < m.blockSize; ++e) {
                    std::vector<memxact::Request> reqs(2);
                    for (int l = 0; l < 2; ++l) {
                        const auto &cols = m.blockCols[g + l];
                        const uint64_t c =
                            cols[std::min(blk, cols.size() - 1)];
                        reqs[l].active = true;
                        reqs[l].address =
                            4 * (interleaved ? e * m.blockRows + c
                                             : c * m.blockSize + e);
                    }
                    xacts[interleaved] += toy.coalesce(reqs, 4).size();
                }
            }
        }
    }
    EXPECT_EQ(xacts[0], 24u);
    EXPECT_EQ(xacts[1], 15u);
}

TEST(SpmvTraffic, TotalsAreSumOfParts)
{
    BlockSparseMatrix m = smallMatrix();
    TrafficBreakdown t = analyzeTraffic(m, SpmvFormat::kBellImIv, 32);
    EXPECT_DOUBLE_EQ(t.total(),
                     t.matrixBytes + t.indexBytes + t.vectorBytes);
}

TEST(SpmvStats, GatherIsUncoalescedInEll)
{
    BlockSparseMatrix m = smallMatrix();
    funcsim::GlobalMemory gmem(64 << 20);
    SpmvVectors v = makeVectors(gmem, m);
    EllDeviceMatrix ell = buildEll(gmem, m);
    funcsim::FunctionalSimulator sim(spec());
    auto res = sim.run(makeEllKernel(ell, v, false),
                       {spmvGridDim(ell.rows), kSpmvBlockDim}, gmem);
    uint64_t req = 0;
    uint64_t got = 0;
    for (const auto &s : res.stats.stages) {
        req += s.globalRequestBytes;
        got += s.globalBytes;
    }
    // Overfetch from the gathered x: transferred > requested.
    EXPECT_GT(got, req + req / 10);
}

TEST(SpmvFormats, InterleavedVectorRoundTrips)
{
    BlockSparseMatrix m = smallMatrix();
    funcsim::GlobalMemory gmem(16 << 20);
    SpmvVectors v = makeVectors(gmem, m);
    const float *x = gmem.f32(v.xBase);
    const float *xiv = gmem.f32(v.xIvBase);
    for (int r = 0; r < m.blockRows; ++r) {
        for (int e = 0; e < 3; ++e)
            EXPECT_EQ(xiv[e * m.blockRows + r], x[r * 3 + e]);
    }
}

} // namespace
} // namespace apps
} // namespace gpuperf
