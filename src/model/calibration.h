/**
 * @file
 * Microbenchmark-driven calibration (paper Figure 2 / Figure 3).
 *
 * The calibrator measures, against a device:
 *  - instruction throughput per type as a function of warps per SM,
 *  - shared-memory throughput (in serialized half-warp passes/s, which
 *    is bandwidth divided by 64 B) as a function of warps per SM,
 *  - global-memory throughput for arbitrary launch configurations via
 *    the synthetic streaming benchmark (memoized).
 */

#ifndef GPUPERF_MODEL_CALIBRATION_H
#define GPUPERF_MODEL_CALIBRATION_H

#include <array>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "arch/instr_class.h"
#include "common/once_map.h"
#include "model/device.h"

namespace gpuperf {
namespace model {

/** Lookup tables produced by calibration. */
struct CalibrationTables
{
    /** Max warps per SM covered by the tables. */
    int maxWarps = 0;
    /**
     * instrThroughput[type][w] = warp-instructions per second with w
     * warps resident per SM (w = 1..maxWarps; index 0 unused).
     */
    std::array<std::vector<double>, arch::kNumInstrTypes> instrThroughput;
    /** sharedPassThroughput[w] = serialized half-warp passes per second. */
    std::vector<double> sharedPassThroughput;
    /** Bytes carried by one conflict-free pass (16 lanes * 4 B). */
    int bytesPerPass = 64;

    /** Linear interpolation, clamped to [1, maxWarps]. */
    double lookupInstr(arch::InstrType type, double warps) const;
    double lookupSharedPasses(double warps) const;
    /** Shared bandwidth in bytes/s at @p warps. */
    double sharedBandwidth(double warps) const;
};

/** Result of one synthetic global-memory benchmark run. */
struct GlobalBenchResult
{
    double seconds = 0.0;
    uint64_t transactions = 0;   ///< hardware transactions issued
    uint64_t requestBytes = 0;   ///< bytes the program asked for
    /** Useful-byte bandwidth, bytes/s (the paper's Figure 3 metric). */
    double bandwidth = 0.0;
    /** Transactions per second (used by the model). */
    double xactThroughput = 0.0;
};

/** One launch of the instruction/shared-memory sweep. */
struct SweepLaunch
{
    isa::Kernel kernel;
    funcsim::LaunchConfig cfg;
    /** Memory image it needs: its output ends at this byte. */
    size_t imageBytes = 0;
    /** Warps per SM it realizes. */
    int warps = 0;
    /** The shared-memory copy bench, else the instruction bench of
     *  @c type. */
    bool shared = false;
    arch::InstrType type = arch::InstrType::TypeI;
};

/**
 * Thread-safe compute-once memo of synthetic global-benchmark
 * results, keyed by (blocks, threads/block, requests/thread) and
 * shareable between calibrators for the same spec: the batch driver
 * gives all evaluations of one machine variant a single memo so each
 * distinct launch shape is simulated once per batch, not once per
 * session.
 */
using GlobalBenchMemo =
    OnceMap<std::tuple<int, int, int>, GlobalBenchResult>;

/**
 * Runs and caches microbenchmarks on a device.
 *
 * Lazy calibration and the global-benchmark memo are guarded by an
 * internal mutex, so concurrent PerformanceModel::predict() calls
 * against one calibrator are safe (they serialize on the device).
 * The owning device itself is not otherwise synchronized: concurrent
 * SimulatedDevice::run() calls from outside remain the caller's
 * responsibility.
 */
class Calibrator
{
  public:
    explicit Calibrator(SimulatedDevice &device);

    /**
     * Instruction + shared tables; first call runs the benchmarks.
     * The reference stays valid only until the next adoptTables() on
     * this calibrator — code that might overlap with table
     * replacement must hold sharedTables() instead.
     */
    const CalibrationTables &tables();

    /**
     * The tables as an immutable shared handle, so many sessions (e.g.
     * the batch driver's per-thread sessions) can reuse one
     * calibration without copying or re-running the sweep. First call
     * runs the benchmarks, like tables().
     */
    std::shared_ptr<const CalibrationTables> sharedTables();

    /**
     * Adopt tables calibrated elsewhere (typically another session for
     * the same GpuSpec, via sharedTables()). Skips the microbenchmark
     * sweep entirely; the caller is responsible for spec compatibility.
     */
    void adoptTables(std::shared_ptr<const CalibrationTables> tables);

    /** True once tables are available without further benchmarking. */
    bool calibrated() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return tables_ != nullptr;
    }

    /**
     * Replace this calibrator's global-benchmark memo with one shared
     * with other calibrators for the same spec.
     */
    void shareGlobalMemo(std::shared_ptr<GlobalBenchMemo> memo);

    /** This calibrator's memo (always non-null), for sharing onward. */
    std::shared_ptr<GlobalBenchMemo> globalMemo() const;

    /**
     * Synthetic global-memory benchmark at a launch configuration
     * (paper Section 4.3): fully coalesced streaming reads.
     *
     * @param blocks              grid size
     * @param threads_per_block   block size
     * @param requests_per_thread 4 B load instructions per thread
     */
    GlobalBenchResult runGlobalBench(int blocks, int threads_per_block,
                                     int requests_per_thread);

    SimulatedDevice &device() { return device_; }

    /** Warp counts the instruction/shared sweep samples. */
    static std::vector<int> sweepWarpCounts(const arch::GpuSpec &spec);

    /** Every launch of the instruction/shared sweep, in run order. */
    static std::vector<SweepLaunch> sweepLaunches(
        const arch::GpuSpec &spec);

  private:
    void calibrate();

    SimulatedDevice &device_;
    /** Guards tables_, the memo handle and device runs. */
    mutable std::mutex mutex_;
    std::shared_ptr<const CalibrationTables> tables_;
    std::shared_ptr<GlobalBenchMemo> globalMemo_;
};

} // namespace model
} // namespace gpuperf

#endif // GPUPERF_MODEL_CALIBRATION_H
