/**
 * @file
 * Ready-made kernel cases for the batch driver: the seven demo
 * families (SAXPY, strided SAXPY, a bank-conflicted shared-memory
 * kernel, a stencil, a reduction, ELL SpMV and a histogram) and the
 * paper's three case studies (tiled GEMM, cyclic reduction and blocked
 * SpMV). Used by the registry, examples, benches and tests that need
 * deterministic workloads with distinct bottleneck profiles without
 * hand-building ISA.
 */

#ifndef GPUPERF_DRIVER_DEMO_CASES_H
#define GPUPERF_DRIVER_DEMO_CASES_H

#include "apps/spmv/traffic.h"
#include "driver/batch_runner.h"

namespace gpuperf {
namespace driver {

/**
 * y[i] = a * x[i] + y[i] over grid*block elements, fully coalesced:
 * instruction + global-memory mix, no shared memory.
 */
KernelCase makeSaxpyCase(const std::string &name, int grid_dim,
                         int block_dim, float a);

/**
 * Like makeSaxpyCase but thread i touches element
 * (i * stride) % n: for stride > 1 the half-warp accesses spread
 * across segments and the coalescing what-ifs become profitable.
 * @p stride must be a power of two.
 */
KernelCase makeStridedSaxpyCase(const std::string &name, int grid_dim,
                                int block_dim, int stride);

/**
 * Each thread stores then repeatedly loads shared[tid * stride]:
 * for even @p stride on a 16-bank machine this serializes into
 * stride-way bank conflicts — the cyclic-reduction access pattern
 * before padding, where the remove-bank-conflicts what-if is the
 * optimization worth implementing.
 */
KernelCase makeSharedConflictCase(const std::string &name, int grid_dim,
                                  int block_dim, int stride,
                                  int iterations = 64);

/**
 * 3-point Jacobi stencil (y[i] = (x[i-1] + x[i] + x[i+1]) / 3 with
 * clamped boundaries) over grid*block elements, tiled through shared
 * memory: every thread streams its center element into a shared tile
 * (fully coalesced), the block's edge threads fetch the two halo
 * elements from global memory under divergent IFs, and after a
 * barrier each thread reads three neighbouring tile words
 * (conflict-free on stride-1 banks). Exercises coalesced + halo
 * traffic, divergence and a two-stage barrier structure — a traffic
 * pattern none of matmul/SpMV/tridiag cover.
 */
KernelCase makeStencil1dCase(const std::string &name, int grid_dim,
                             int block_dim);

/**
 * Scalar-ELL SpMV over a synthetic banded block matrix (the paper's
 * Section 5.3 workload as a repeatable batch case): one thread per
 * row, coalesced (value, column) streams plus a data-dependent
 * gathered vector load per entry. @p block_rows block rows of
 * @p blocks_per_row 3x3 blocks; the launch uses the standard SpMV
 * block size (apps::kSpmvBlockDim = 128 threads), so large
 * @p block_rows produce the high-occupancy launches the
 * timing-replay benchmarks target.
 */
KernelCase makeSpmvEllCase(const std::string &name, int block_rows,
                           int blocks_per_row);

/**
 * Per-block tree reduction: y[b] = sum of x over block b's elements.
 * Every thread streams its element into a shared staging tile
 * (fully coalesced), then log2(block_dim) barrier-delimited passes
 * halve the active thread count — shared[tid] += shared[tid + s] for
 * s = block_dim/2 .. 1 — until thread 0 stores the block's sum. The
 * final passes (s < warpSize) are the classic divergent tail: the
 * IF splits warp 0's lanes while every other warp idles at the
 * barrier. Exercises a workload none of the other cases cover — a
 * deep barrier ladder with geometrically shrinking parallelism.
 *
 * @p block_dim must be a power of two. Input values are exact in
 * f32 at any association, so the result is verifiable against a
 * host reference sum (tests/test_batch.cc) without replaying the
 * tree order.
 */
KernelCase makeReductionCase(const std::string &name, int grid_dim,
                             int block_dim);

/**
 * Shared-memory privatized histogram: y[b * num_bins + k] counts the
 * inputs binned to k among the elements block b processes. Every
 * thread owns a private run of @p num_bins counters in shared memory
 * (layout shared[tid * num_bins + bin]) so no two threads ever write
 * the same word — the software stand-in for atomics on hardware that
 * has none (GT200 shared atomics serialize exactly like the bank
 * conflicts this layout produces: threads of a half-warp whose
 * data-dependent bins land in the same bank contend for it). Each
 * thread zeroes its counters, then binned grid-strided passes over
 * the input increment them at data-dependent addresses; after a
 * barrier the first @p num_bins threads — the classic divergent tail,
 * splitting warp 0's lanes while every other warp idles — reduce the
 * per-thread counters into the block's public histogram.
 *
 * Counters are integers, so the result is verifiable bit-exactly
 * against a plain host count (tests/test_batch.cc).
 *
 * @p num_bins must be a power of two, at most @p block_dim and at
 * most 64 (shared budget); @p items_per_thread >= 1.
 */
KernelCase makeHistogramCase(const std::string &name, int grid_dim,
                             int block_dim, int num_bins,
                             int items_per_thread = 8);

/**
 * The paper's Section 5.1 tiled GEMM (apps/matmul/gemm.h): C = A * B
 * on @p size x @p size matrices with @p tile x @p tile sub-matrices.
 * Every block runs an identical stream, so the launch simulates one
 * block and replicates it (funcsim::RunOptions::homogeneous).
 * @p size must be a power of two >= 64 and @p tile 8, 16 or 32.
 */
KernelCase makeGemmCase(const std::string &name, int size, int tile);

/**
 * The paper's Section 5.2 cyclic-reduction solver
 * (apps/tridiag/cyclic_reduction.h): @p systems independent systems
 * of @p n equations, one block each, CR-NBC when @p padded, the
 * forward phase alone when @p forward_only (Figure 6). The systems
 * are structurally identical, so the launch is homogeneous. @p n must
 * be a power of two >= 4 (a multiple of 16 when padded).
 */
KernelCase makeCyclicReductionCase(const std::string &name, int n,
                                   int systems, bool padded,
                                   bool forward_only);

/**
 * The paper's Section 5.3 SpMV (apps/spmv/kernels.h) in @p format on
 * the QCD-like matrix of @p block_rows block rows, each of 13 3x3
 * blocks within a half band of 24 (Figures 11 and 12), gathering x
 * through the texture cache when @p texture. @p block_rows must be at
 * least 13, so every row's band holds 13 distinct blocks.
 */
KernelCase makeSpmvCase(const std::string &name, apps::SpmvFormat format,
                        int block_rows, bool texture);

} // namespace driver
} // namespace gpuperf

#endif // GPUPERF_DRIVER_DEMO_CASES_H
