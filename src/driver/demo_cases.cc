#include "driver/demo_cases.h"

#include "apps/matmul/gemm.h"
#include "apps/spmv/formats.h"
#include "apps/spmv/kernels.h"
#include "apps/tridiag/cyclic_reduction.h"
#include "common/logging.h"
#include "isa/builder.h"

namespace gpuperf {
namespace driver {

namespace {

/** gtid = ctaid * ntid + tid, using three fresh registers. */
isa::Reg
emitGlobalThreadId(isa::KernelBuilder &b)
{
    isa::Reg tid = b.reg();
    isa::Reg cta = b.reg();
    isa::Reg ntid = b.reg();
    isa::Reg gtid = b.reg();
    b.s2r(tid, isa::SpecialReg::kTid);
    b.s2r(cta, isa::SpecialReg::kCtaid);
    b.s2r(ntid, isa::SpecialReg::kNtid);
    b.imad(gtid, cta, ntid, tid);
    return gtid;
}

bool
isPowerOfTwo(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

} // namespace

KernelCase
makeSaxpyCase(const std::string &name, int grid_dim, int block_dim,
              float a)
{
    KernelCase kc;
    kc.name = name;
    kc.make = [grid_dim, block_dim, a]() {
        const int n = grid_dim * block_dim;
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            static_cast<size_t>(n) * 8 + (1u << 20));
        const uint64_t x_base =
            gmem->alloc(static_cast<size_t>(n) * 4);
        const uint64_t y_base =
            gmem->alloc(static_cast<size_t>(n) * 4);
        for (int i = 0; i < n; ++i) {
            gmem->f32(x_base)[i] = 1.0f;
            gmem->f32(y_base)[i] = static_cast<float>(i % 5);
        }

        isa::KernelBuilder b("saxpy");
        isa::Reg gtid = emitGlobalThreadId(b);
        isa::Reg xa = b.reg();
        isa::Reg ya = b.reg();
        isa::Reg xv = b.reg();
        isa::Reg yv = b.reg();
        isa::Reg av = b.reg();
        b.shlImm(xa, gtid, 2);
        b.iaddImm(ya, xa, static_cast<int32_t>(y_base));
        b.iaddImm(xa, xa, static_cast<int32_t>(x_base));
        b.ldg(xv, xa);
        b.ldg(yv, ya);
        b.movImmF(av, a);
        b.fmad(yv, av, xv, yv);
        b.stg(ya, yv);

        PreparedLaunch launch(b.build());
        launch.gmem = std::move(gmem);
        launch.cfg.gridDim = grid_dim;
        launch.cfg.blockDim = block_dim;
        return launch;
    };
    return kc;
}

KernelCase
makeStridedSaxpyCase(const std::string &name, int grid_dim,
                     int block_dim, int stride)
{
    const int n = grid_dim * block_dim;
    GPUPERF_ASSERT(isPowerOfTwo(n) && isPowerOfTwo(stride),
                   "strided case needs power-of-two size and stride");
    KernelCase kc;
    kc.name = name;
    kc.make = [grid_dim, block_dim, stride]() {
        const int n = grid_dim * block_dim;
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            static_cast<size_t>(n) * 8 + (1u << 20));
        const uint64_t x_base =
            gmem->alloc(static_cast<size_t>(n) * 4);
        const uint64_t y_base =
            gmem->alloc(static_cast<size_t>(n) * 4);
        for (int i = 0; i < n; ++i) {
            gmem->f32(x_base)[i] = 2.0f;
            gmem->f32(y_base)[i] = static_cast<float>(i % 3);
        }

        isa::KernelBuilder b("saxpy-strided");
        isa::Reg gtid = emitGlobalThreadId(b);
        isa::Reg idx = b.reg();
        isa::Reg xa = b.reg();
        isa::Reg ya = b.reg();
        isa::Reg xv = b.reg();
        isa::Reg yv = b.reg();
        isa::Reg av = b.reg();
        // idx = (gtid * stride) mod n: with power-of-two n this maps
        // `stride` threads onto each of n/stride elements, spreading
        // every half-warp across `stride` memory segments — the
        // uncoalesced pattern is the point; per-element output values
        // are NOT unique per thread.
        b.imulImm(idx, gtid, stride);
        b.andImm(idx, idx, n - 1);
        b.shlImm(xa, idx, 2);
        b.iaddImm(ya, xa, static_cast<int32_t>(y_base));
        b.iaddImm(xa, xa, static_cast<int32_t>(x_base));
        b.ldg(xv, xa);
        b.ldg(yv, ya);
        b.movImmF(av, 1.5f);
        b.fmad(yv, av, xv, yv);
        b.stg(ya, yv);

        PreparedLaunch launch(b.build());
        launch.gmem = std::move(gmem);
        launch.cfg.gridDim = grid_dim;
        launch.cfg.blockDim = block_dim;
        return launch;
    };
    return kc;
}

KernelCase
makeSharedConflictCase(const std::string &name, int grid_dim,
                       int block_dim, int stride, int iterations)
{
    KernelCase kc;
    kc.name = name;
    kc.make = [grid_dim, block_dim, stride, iterations]() {
        const int n = grid_dim * block_dim;
        const int shared_bytes = block_dim * stride * 4;
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            static_cast<size_t>(n) * 4 + (1u << 20));
        const uint64_t out_base =
            gmem->alloc(static_cast<size_t>(n) * 4);

        isa::KernelBuilder b("shared-conflict");
        isa::Reg gtid = emitGlobalThreadId(b);
        isa::Reg tid = b.reg();
        isa::Reg saddr = b.reg();
        isa::Reg val = b.reg();
        isa::Reg acc = b.reg();
        isa::Reg oa = b.reg();
        b.s2r(tid, isa::SpecialReg::kTid);
        // shared[tid * stride]: even strides collide on the 16-bank
        // layout exactly like unpadded cyclic reduction.
        b.imulImm(saddr, tid, stride * 4);
        b.movImmF(val, 1.25f);
        b.sts(saddr, val);
        b.bar();
        b.movImmF(acc, 0.0f);
        for (int i = 0; i < iterations; ++i) {
            b.lds(val, saddr);
            b.fadd(acc, acc, val);
        }
        b.shlImm(oa, gtid, 2);
        b.iaddImm(oa, oa, static_cast<int32_t>(out_base));
        b.stg(oa, acc);

        PreparedLaunch launch(b.build(shared_bytes));
        launch.gmem = std::move(gmem);
        launch.cfg.gridDim = grid_dim;
        launch.cfg.blockDim = block_dim;
        return launch;
    };
    return kc;
}

KernelCase
makeStencil1dCase(const std::string &name, int grid_dim, int block_dim)
{
    KernelCase kc;
    kc.name = name;
    kc.make = [grid_dim, block_dim]() {
        const int n = grid_dim * block_dim;
        // Tile of block_dim centers plus one halo word on each side.
        const int shared_bytes = (block_dim + 2) * 4;
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            static_cast<size_t>(n) * 8 + (1u << 20));
        const uint64_t x_base =
            gmem->alloc(static_cast<size_t>(n) * 4);
        const uint64_t y_base =
            gmem->alloc(static_cast<size_t>(n) * 4);
        for (int i = 0; i < n; ++i)
            gmem->f32(x_base)[i] = static_cast<float>(i % 7) * 0.5f;

        isa::KernelBuilder b("stencil1d");
        isa::Reg tid = b.reg();
        isa::Reg ntid = b.reg();
        isa::Reg cta = b.reg();
        isa::Reg gtid = b.reg();
        b.s2r(tid, isa::SpecialReg::kTid);
        b.s2r(ntid, isa::SpecialReg::kNtid);
        b.s2r(cta, isa::SpecialReg::kCtaid);
        b.imad(gtid, cta, ntid, tid);

        // Center: tile[tid + 1] = x[gtid], fully coalesced.
        isa::Reg xa = b.reg();
        isa::Reg sa = b.reg();
        isa::Reg v = b.reg();
        b.shlImm(xa, gtid, 2);
        b.iaddImm(xa, xa, static_cast<int32_t>(x_base));
        b.ldg(v, xa);
        b.shlImm(sa, tid, 2);
        b.iaddImm(sa, sa, 4);
        b.sts(sa, v);

        // Left halo: thread 0 fetches x[max(gtid - 1, 0)] — the
        // uncoalesced single-element boundary load.
        isa::Reg zero = b.reg();
        isa::Reg idx = b.reg();
        isa::Reg ha = b.reg();
        isa::Reg hv = b.reg();
        isa::Pred p_first = b.pred();
        b.movImm(zero, 0);
        b.setpIImm(p_first, isa::CmpOp::kEq, tid, 0);
        b.beginIf(p_first);
        b.iaddImm(idx, gtid, -1);
        b.imax(idx, idx, zero);
        b.shlImm(ha, idx, 2);
        b.iaddImm(ha, ha, static_cast<int32_t>(x_base));
        b.ldg(hv, ha);
        b.sts(zero, hv);
        b.endIf();

        // Right halo: the last thread fetches x[min(gtid + 1, n - 1)].
        isa::Reg nmax = b.reg();
        isa::Reg last = b.reg();
        isa::Pred p_last = b.pred();
        b.movImm(nmax, n - 1);
        b.iaddImm(last, ntid, -1);
        b.setpI(p_last, isa::CmpOp::kEq, tid, last);
        b.beginIf(p_last);
        b.iaddImm(idx, gtid, 1);
        b.imin(idx, idx, nmax);
        b.shlImm(ha, idx, 2);
        b.iaddImm(ha, ha, static_cast<int32_t>(x_base));
        b.ldg(hv, ha);
        b.movImm(idx, (block_dim + 1) * 4);
        b.sts(idx, hv);
        b.endIf();

        b.bar();

        // tile[tid] + tile[tid + 1] + tile[tid + 2], scaled by 1/3.
        isa::Reg l = b.reg();
        isa::Reg c = b.reg();
        isa::Reg r = b.reg();
        isa::Reg acc = b.reg();
        isa::Reg third = b.reg();
        isa::Reg ya = b.reg();
        b.lds(l, sa, -4);
        b.lds(c, sa, 0);
        b.lds(r, sa, 4);
        b.fadd(acc, l, c);
        b.fadd(acc, acc, r);
        b.movImmF(third, 1.0f / 3.0f);
        b.fmul(acc, acc, third);
        b.shlImm(ya, gtid, 2);
        b.iaddImm(ya, ya, static_cast<int32_t>(y_base));
        b.stg(ya, acc);

        PreparedLaunch launch(b.build(shared_bytes));
        launch.gmem = std::move(gmem);
        launch.cfg.gridDim = grid_dim;
        launch.cfg.blockDim = block_dim;
        return launch;
    };
    return kc;
}

KernelCase
makeReductionCase(const std::string &name, int grid_dim, int block_dim)
{
    GPUPERF_ASSERT(grid_dim > 0 && isPowerOfTwo(block_dim) &&
                       block_dim >= 2,
                   "reduction case needs a power-of-two block");
    KernelCase kc;
    kc.name = name;
    kc.make = [grid_dim, block_dim]() {
        const int n = grid_dim * block_dim;
        const int shared_bytes = block_dim * 4;
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            static_cast<size_t>(n) * 4 +
            static_cast<size_t>(grid_dim) * 4 + (1u << 20));
        const uint64_t x_base =
            gmem->alloc(static_cast<size_t>(n) * 4);
        const uint64_t y_base =
            gmem->alloc(static_cast<size_t>(grid_dim) * 4);
        // Multiples of 0.25 summing to < 2^22: exact in f32 under ANY
        // association, so a plain host loop is a valid reference for
        // the tree order the kernel uses.
        for (int i = 0; i < n; ++i)
            gmem->f32(x_base)[i] = static_cast<float>(i % 9) * 0.25f;

        isa::KernelBuilder b("reduction");
        isa::Reg tid = b.reg();
        isa::Reg ntid = b.reg();
        isa::Reg cta = b.reg();
        isa::Reg gtid = b.reg();
        b.s2r(tid, isa::SpecialReg::kTid);
        b.s2r(ntid, isa::SpecialReg::kNtid);
        b.s2r(cta, isa::SpecialReg::kCtaid);
        b.imad(gtid, cta, ntid, tid);

        // Stage: tile[tid] = x[gtid], fully coalesced.
        isa::Reg xa = b.reg();
        isa::Reg sa = b.reg();
        isa::Reg v = b.reg();
        b.shlImm(xa, gtid, 2);
        b.iaddImm(xa, xa, static_cast<int32_t>(x_base));
        b.ldg(v, xa);
        b.shlImm(sa, tid, 2);
        b.sts(sa, v);
        b.bar();

        // Tree passes: active threads halve every pass; once
        // s < warpSize the IF diverges inside warp 0 (the tail)
        // while the remaining warps idle at the barrier.
        isa::Reg other = b.reg();
        isa::Pred p_active = b.pred();
        for (int s = block_dim / 2; s >= 1; s >>= 1) {
            b.setpIImm(p_active, isa::CmpOp::kLt, tid, s);
            b.beginIf(p_active);
            b.lds(v, sa, 0);
            b.lds(other, sa, s * 4);
            b.fadd(v, v, other);
            b.sts(sa, v, 0);
            b.endIf();
            b.bar();
        }

        // Thread 0 publishes the block sum (its sa is tile[0]).
        isa::Reg oa = b.reg();
        isa::Pred p_first = b.pred();
        b.setpIImm(p_first, isa::CmpOp::kEq, tid, 0);
        b.beginIf(p_first);
        b.lds(v, sa, 0);
        b.shlImm(oa, cta, 2);
        b.iaddImm(oa, oa, static_cast<int32_t>(y_base));
        b.stg(oa, v);
        b.endIf();

        PreparedLaunch launch(b.build(shared_bytes));
        launch.gmem = std::move(gmem);
        launch.cfg.gridDim = grid_dim;
        launch.cfg.blockDim = block_dim;
        return launch;
    };
    return kc;
}

KernelCase
makeHistogramCase(const std::string &name, int grid_dim, int block_dim,
                  int num_bins, int items_per_thread)
{
    GPUPERF_ASSERT(grid_dim > 0 && block_dim > 0 &&
                       isPowerOfTwo(num_bins) && num_bins >= 2 &&
                       num_bins <= 64 && num_bins <= block_dim &&
                       items_per_thread >= 1,
                   "histogram case needs a power-of-two bin count "
                   "within the shared budget");
    GPUPERF_ASSERT(static_cast<int64_t>(block_dim) * num_bins * 4 <=
                       (int64_t{1} << 30),
                   "histogram privatized counters overflow the "
                   "shared-bytes arithmetic");
    KernelCase kc;
    kc.name = name;
    kc.make = [grid_dim, block_dim, num_bins, items_per_thread]() {
        const int total = grid_dim * block_dim;
        const int n = total * items_per_thread;
        const int shared_bytes = block_dim * num_bins * 4;
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            static_cast<size_t>(n) * 4 +
            static_cast<size_t>(grid_dim) * num_bins * 4 + (1u << 20));
        const uint64_t x_base =
            gmem->alloc(static_cast<size_t>(n) * 4);
        const uint64_t y_base =
            gmem->alloc(static_cast<size_t>(grid_dim) * num_bins * 4);
        // A fixed pseudo-random mix: bins are data-dependent and
        // unevenly populated (some bins contend harder than others),
        // but deterministic for the repeatable-factory contract.
        for (int i = 0; i < n; ++i) {
            gmem->u32(x_base)[i] =
                static_cast<uint32_t>(i) * 2654435761u >> 8;
        }

        isa::KernelBuilder b("histogram");
        isa::Reg tid = b.reg();
        isa::Reg ntid = b.reg();
        isa::Reg cta = b.reg();
        isa::Reg gtid = b.reg();
        b.s2r(tid, isa::SpecialReg::kTid);
        b.s2r(ntid, isa::SpecialReg::kNtid);
        b.s2r(cta, isa::SpecialReg::kCtaid);
        b.imad(gtid, cta, ntid, tid);

        // Zero the thread's private counter run shared[tid*bins ..]:
        // the kernel must not rely on the simulator's zeroed shared
        // memory any more than real hardware lets it.
        isa::Reg sbase = b.reg();
        isa::Reg zero = b.reg();
        b.imulImm(sbase, tid, num_bins * 4);
        b.movImm(zero, 0);
        for (int k = 0; k < num_bins; ++k)
            b.sts(sbase, zero, k * 4);

        // Binned passes: grid-strided loads (coalesced), then a
        // read-modify-write of the private counter at a
        // data-dependent shared address — the contention pattern.
        isa::Reg xa = b.reg();
        isa::Reg v = b.reg();
        isa::Reg bin = b.reg();
        isa::Reg saddr = b.reg();
        isa::Reg cnt = b.reg();
        for (int t = 0; t < items_per_thread; ++t) {
            b.shlImm(xa, gtid, 2);
            b.iaddImm(xa, xa,
                      static_cast<int32_t>(x_base) + t * total * 4);
            b.ldg(v, xa);
            b.andImm(bin, v, num_bins - 1);
            b.shlImm(saddr, bin, 2);
            b.iadd(saddr, sbase, saddr);
            b.lds(cnt, saddr);
            b.iaddImm(cnt, cnt, 1);
            b.sts(saddr, cnt);
        }
        b.bar();

        // Merge tail: thread k < num_bins sums counter k across every
        // thread's private run and publishes y[cta*bins + k]. The IF
        // diverges inside warp 0 while the other warps idle at exit.
        isa::Reg taddr = b.reg();
        isa::Reg acc = b.reg();
        isa::Reg oa = b.reg();
        isa::Pred p_merge = b.pred();
        b.setpIImm(p_merge, isa::CmpOp::kLt, tid, num_bins);
        b.beginIf(p_merge);
        b.shlImm(taddr, tid, 2);
        b.movImm(acc, 0);
        for (int j = 0; j < block_dim; ++j) {
            b.lds(v, taddr, j * num_bins * 4);
            b.iadd(acc, acc, v);
        }
        b.imulImm(oa, cta, num_bins * 4);
        b.shlImm(saddr, tid, 2);
        b.iadd(oa, oa, saddr);
        b.iaddImm(oa, oa, static_cast<int32_t>(y_base));
        b.stg(oa, acc);
        b.endIf();

        PreparedLaunch launch(b.build(shared_bytes));
        launch.gmem = std::move(gmem);
        launch.cfg.gridDim = grid_dim;
        launch.cfg.blockDim = block_dim;
        return launch;
    };
    return kc;
}

KernelCase
makeSpmvEllCase(const std::string &name, int block_rows,
                int blocks_per_row)
{
    GPUPERF_ASSERT(block_rows > 0 && blocks_per_row > 0,
                   "SpMV case needs a non-empty matrix");
    KernelCase kc;
    kc.name = name;
    kc.make = [block_rows, blocks_per_row]() {
        const apps::BlockSparseMatrix m = apps::makeBandedBlockMatrix(
            block_rows, blocks_per_row, 2 * blocks_per_row);
        // ELL storage: ld x k values + columns (4 B each, ld rounded
        // up to a warp), four row-length vectors, plus slack.
        const size_t rows = static_cast<size_t>(m.rows());
        const size_t k = static_cast<size_t>(m.maxRowEntries());
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            (rows + 64) * (k * 8 + 32) + (1u << 20));
        const apps::SpmvVectors v = apps::makeVectors(*gmem, m);
        const apps::EllDeviceMatrix ell = apps::buildEll(*gmem, m);

        PreparedLaunch launch(
            apps::makeEllKernel(ell, v, /*use_texture=*/false));
        launch.gmem = std::move(gmem);
        launch.cfg.gridDim = apps::spmvGridDim(ell.rows);
        launch.cfg.blockDim = apps::kSpmvBlockDim;
        return launch;
    };
    return kc;
}

KernelCase
makeGemmCase(const std::string &name, int size, int tile)
{
    KernelCase kc;
    kc.name = name;
    kc.make = [size, tile]() {
        // A, B and C of size^2 floats each, plus slack.
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            static_cast<size_t>(size) * size * 12 + (1u << 20));
        const apps::GemmProblem p =
            apps::makeGemmProblem(*gmem, size, tile);
        PreparedLaunch launch(apps::makeGemmKernel(p));
        launch.gmem = std::move(gmem);
        launch.cfg = p.launch();
        launch.options.homogeneous = true;
        return launch;
    };
    return kc;
}

KernelCase
makeCyclicReductionCase(const std::string &name, int n, int systems,
                        bool padded, bool forward_only)
{
    KernelCase kc;
    kc.name = name;
    kc.make = [n, systems, padded, forward_only]() {
        // Per system: a, b, c, d in and x out, n floats each.
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            static_cast<size_t>(n) * systems * 20 + (1u << 20));
        const apps::TridiagProblem p =
            apps::makeTridiagProblem(*gmem, n, systems, padded);
        PreparedLaunch launch(
            apps::makeCyclicReductionKernel(p, forward_only));
        launch.gmem = std::move(gmem);
        launch.cfg = p.launch();
        launch.options.homogeneous = true;
        return launch;
    };
    return kc;
}

KernelCase
makeSpmvCase(const std::string &name, apps::SpmvFormat format,
             int block_rows, bool texture)
{
    KernelCase kc;
    kc.name = name;
    kc.make = [format, block_rows, texture]() {
        const apps::BlockSparseMatrix m =
            apps::makeBandedBlockMatrix(block_rows, 13, 24);
        // The ELL layout bounds every format's footprint: ld x k
        // values and columns (ld rounded up to a warp), four
        // row-length vectors, plus slack.
        const size_t rows = static_cast<size_t>(m.rows());
        const size_t k = static_cast<size_t>(m.maxRowEntries());
        auto gmem = std::make_unique<funcsim::GlobalMemory>(
            (rows + 64) * (k * 8 + 32) + (1u << 20));
        const apps::SpmvVectors v = apps::makeVectors(*gmem, m);
        const bool ell = format == apps::SpmvFormat::kEll;
        PreparedLaunch launch(
            ell ? apps::makeEllKernel(apps::buildEll(*gmem, m), v, texture)
                : apps::makeBellKernel(
                      apps::buildBell(*gmem, m,
                                      format != apps::SpmvFormat::kBell),
                      v, format == apps::SpmvFormat::kBellImIv, texture));
        launch.gmem = std::move(gmem);
        launch.cfg = {apps::spmvGridDim(ell ? m.rows() : m.blockRows),
                      apps::kSpmvBlockDim};
        return launch;
    };
    return kc;
}

} // namespace driver
} // namespace gpuperf
