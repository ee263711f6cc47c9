/**
 * @file
 * The SIMT functional simulator (the role Barra plays in the paper).
 *
 * Executes a kernel warp by warp in lockstep with divergence masks,
 * producing (a) functionally correct memory contents, (b) dynamic
 * program statistics split at synchronization barriers, and (c) compact
 * per-warp replay traces for the timing simulator.
 *
 * Execution model: within a block, warps run one at a time up to the
 * next barrier (or completion); the block's warps are synchronized
 * there and the next stage begins. This is faithful for any kernel
 * that follows the CUDA contract of no un-synchronized cross-warp
 * communication within a stage.
 */

#ifndef GPUPERF_FUNCSIM_INTERPRETER_H
#define GPUPERF_FUNCSIM_INTERPRETER_H

#include <cstdint>

#include "arch/gpu_spec.h"
#include "funcsim/memory.h"
#include "funcsim/stats.h"
#include "funcsim/trace.h"
#include "isa/kernel.h"
#include "memxact/bank_conflicts.h"
#include "memxact/coalescing.h"

namespace gpuperf {
namespace funcsim {

/**
 * Hard upper bound on lanes per warp. Active masks are uint32_t
 * bitfields, the SoA scratch buffers are fixed arrays of this size,
 * and GpuSpec::warpSize is validated against it at simulator
 * construction — this constant is the single place the limit lives.
 */
constexpr int kMaxWarpLanes = 32;

/** Grid/block shape of a kernel launch (1-D, as GT200-era kernels
 *  commonly flattened their indices anyway). */
struct LaunchConfig
{
    int gridDim = 1;
    int blockDim = 32;
};

/** Options controlling a functional run. */
struct RunOptions
{
    /** Collect per-warp replay traces for the timing simulator. */
    bool collectTrace = false;
    /**
     * Execute only the first @c sampleBlocks blocks and replicate
     * their statistics/traces across the grid. Only valid when every
     * block executes an identical instruction stream (same counts,
     * conflicts and coalescing behaviour); memory results of
     * non-sampled blocks are then *not* produced.
     */
    bool homogeneous = false;
    int sampleBlocks = 1;
    /** Abort if a single warp executes more operations than this. */
    uint64_t maxWarpOps = 1ull << 32;
};

/** Result of a functional run. */
struct RunResult
{
    DynamicStats stats;
    LaunchTrace trace;
};

/**
 * The functional simulator: a data-oriented core in which one opcode
 * dispatch executes all lanes of a warp over structure-of-arrays
 * register rows (src/funcsim/README.md). It is pinned bit-identical —
 * memory contents, StageStats, trace hashes — to the lane-at-a-time
 * test oracle reference::ScalarFunctionalSimulator.
 */
class FunctionalSimulator
{
  public:
    explicit FunctionalSimulator(const arch::GpuSpec &spec);

    /**
     * Execute @p kernel over @p cfg against @p gmem.
     *
     * @param kernel  validated kernel
     * @param cfg     launch shape
     * @param gmem    device memory (mutated by stores)
     * @param options run options
     */
    RunResult run(const isa::Kernel &kernel, const LaunchConfig &cfg,
                  GlobalMemory &gmem, const RunOptions &options = {});

    const arch::GpuSpec &spec() const { return spec_; }

  private:
    arch::GpuSpec spec_;
    memxact::CoalescingSimulator coalescer_;
    memxact::BankConflictAnalyzer banks_;
};

} // namespace funcsim
} // namespace gpuperf

#endif // GPUPERF_FUNCSIM_INTERPRETER_H
