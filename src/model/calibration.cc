#include "model/calibration.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "model/microbench.h"

namespace gpuperf {
namespace model {

namespace {

/** Clamped linear interpolation over a 1-based table. */
double
interp(const std::vector<double> &table, double warps)
{
    GPUPERF_ASSERT(table.size() >= 2, "empty calibration table");
    const double max_w = static_cast<double>(table.size() - 1);
    const double w = std::clamp(warps, 1.0, max_w);
    const int lo = static_cast<int>(std::floor(w));
    const int hi = std::min<int>(lo + 1, static_cast<int>(max_w));
    const double frac = w - lo;
    return table[lo] * (1.0 - frac) + table[hi] * frac;
}

} // namespace

double
CalibrationTables::lookupInstr(arch::InstrType type, double warps) const
{
    return interp(instrThroughput[static_cast<int>(type)], warps);
}

double
CalibrationTables::lookupSharedPasses(double warps) const
{
    return interp(sharedPassThroughput, warps);
}

double
CalibrationTables::sharedBandwidth(double warps) const
{
    return lookupSharedPasses(warps) * bytesPerPass;
}

Calibrator::Calibrator(SimulatedDevice &device)
    : device_(device),
      globalMemo_(std::make_shared<GlobalBenchMemo>())
{
}

void
Calibrator::shareGlobalMemo(std::shared_ptr<GlobalBenchMemo> memo)
{
    GPUPERF_ASSERT(memo != nullptr, "cannot share a null memo");
    std::lock_guard<std::mutex> lock(mutex_);
    globalMemo_ = std::move(memo);
}

std::shared_ptr<GlobalBenchMemo>
Calibrator::globalMemo() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return globalMemo_;
}

std::vector<int>
Calibrator::sweepWarpCounts(const arch::GpuSpec &spec)
{
    std::vector<int> warps;
    const int one_block_max = spec.maxThreadsPerBlock / spec.warpSize;
    for (int w = 1; w <= spec.maxWarpsPerSm; ++w) {
        if (w <= one_block_max || w % 2 == 0)
            warps.push_back(w);
    }
    return warps;
}

std::vector<SweepLaunch>
Calibrator::sweepLaunches(const arch::GpuSpec &spec)
{
    // Large unroll keeps loop bookkeeping (4 type II ops/iteration)
    // from polluting the measured type's throughput.
    constexpr int kUnroll = 60;
    constexpr int kIters = 8;
    constexpr int kSharedIters = 400;
    const uint64_t out_base = 4096;

    const int one_block_max = spec.maxThreadsPerBlock / spec.warpSize;
    std::vector<SweepLaunch> launches;
    for (int w : sweepWarpCounts(spec)) {
        // w warps per SM: one block of w warps on every SM, or two of
        // w / 2 where one block cannot hold w warps.
        funcsim::LaunchConfig cfg;
        if (w <= one_block_max) {
            cfg.gridDim = spec.numSms;
            cfg.blockDim = w * spec.warpSize;
        } else {
            GPUPERF_ASSERT(w % 2 == 0, "odd warp counts above one "
                                       "block are unreachable");
            cfg.gridDim = 2 * spec.numSms;
            cfg.blockDim = w / 2 * spec.warpSize;
        }
        // Each thread stores one word at out_base + 4 * global tid.
        const size_t image = out_base + static_cast<size_t>(cfg.gridDim) *
                                            cfg.blockDim * 4;
        for (arch::InstrType type : arch::kAllInstrTypes) {
            launches.push_back(
                {makeInstructionBench(type, kUnroll, kIters, out_base),
                 cfg, image, w, false, type});
        }
        launches.push_back(
            {makeSharedCopyBench(cfg.blockDim, kSharedIters, out_base),
             cfg, image, w, true});
    }
    return launches;
}

void
Calibrator::calibrate()
{
    const arch::GpuSpec &spec = device_.spec();
    CalibrationTables tables;
    tables.maxWarps = spec.maxWarpsPerSm;
    tables.bytesPerPass = spec.sharedIssueGroup * spec.sharedBankWidth;

    for (auto &t : tables.instrThroughput)
        t.assign(tables.maxWarps + 1, 0.0);
    tables.sharedPassThroughput.assign(tables.maxWarps + 1, 0.0);

    for (const SweepLaunch &launch : sweepLaunches(spec)) {
        funcsim::GlobalMemory gmem(launch.imageBytes);
        funcsim::RunOptions opts;
        opts.homogeneous = true;
        Measurement m = device_.run(launch.kernel, launch.cfg, gmem, opts);
        if (launch.shared) {
            const uint64_t passes = m.stats.totalSharedTransactions();
            GPUPERF_ASSERT(passes > 0, "shared bench executed nothing");
            tables.sharedPassThroughput[launch.warps] = passes / m.seconds();
        } else {
            const uint64_t count = m.stats.totalType(launch.type);
            GPUPERF_ASSERT(count > 0, "instruction bench executed nothing");
            tables.instrThroughput[static_cast<int>(launch.type)]
                                  [launch.warps] = count / m.seconds();
        }
    }

    // Fill unreachable (odd, > one-block-max) warp counts by linear
    // interpolation between measured neighbours.
    auto fill_gaps = [&](std::vector<double> &t) {
        for (int w = 1; w <= tables.maxWarps; ++w) {
            if (t[w] != 0.0)
                continue;
            int lo = w - 1;
            int hi = w + 1;
            while (hi <= tables.maxWarps && t[hi] == 0.0)
                ++hi;
            if (hi > tables.maxWarps) {
                t[w] = t[lo];
            } else {
                t[w] = 0.5 * (t[lo] + t[hi]);
            }
        }
    };
    for (auto &t : tables.instrThroughput)
        fill_gaps(t);
    fill_gaps(tables.sharedPassThroughput);

    tables_ =
        std::make_shared<const CalibrationTables>(std::move(tables));
}

void
Calibrator::adoptTables(std::shared_ptr<const CalibrationTables> tables)
{
    GPUPERF_ASSERT(tables != nullptr, "cannot adopt null tables");
    std::lock_guard<std::mutex> lock(mutex_);
    tables_ = std::move(tables);
}

const CalibrationTables &
Calibrator::tables()
{
    return *sharedTables();
}

std::shared_ptr<const CalibrationTables>
Calibrator::sharedTables()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!tables_)
        calibrate();
    return tables_;
}

GlobalBenchResult
Calibrator::runGlobalBench(int blocks, int threads_per_block,
                           int requests_per_thread)
{
    GPUPERF_ASSERT(blocks > 0 && threads_per_block > 0 &&
                       requests_per_thread > 0,
                   "global bench needs a positive configuration");
    const auto key =
        std::make_tuple(blocks, threads_per_block, requests_per_thread);
    // Held across the device run: concurrent callers of THIS
    // calibrator serialize here (one device). Calibrators for other
    // sessions sharing only the memo run their own devices freely;
    // the memo makes sure each key's benchmark runs once in total.
    std::lock_guard<std::mutex> lock(mutex_);
    return globalMemo_->getOrCompute(key, [&]() {
        constexpr int kBatch = 8;
        constexpr uint32_t kBufBytes = 4u << 20;
        const int total_threads = blocks * threads_per_block;
        const size_t slack =
            static_cast<size_t>(kBatch) * total_threads * 4 + 4096;

        funcsim::GlobalMemory gmem(kBufBytes + slack + (1u << 20));
        const uint64_t buf = gmem.alloc(kBufBytes + slack, 4096);
        isa::Kernel k =
            makeGlobalStreamBench(requests_per_thread, kBatch,
                                  total_threads, buf, kBufBytes);
        funcsim::LaunchConfig cfg;
        cfg.gridDim = blocks;
        cfg.blockDim = threads_per_block;
        funcsim::RunOptions opts;
        opts.homogeneous = true;
        Measurement m = device_.run(k, cfg, gmem, opts);

        GlobalBenchResult res;
        res.seconds = m.seconds();
        res.transactions = m.stats.totalGlobalTransactions();
        res.requestBytes = 0;
        for (const auto &s : m.stats.stages)
            res.requestBytes += s.globalRequestBytes;
        res.bandwidth = res.requestBytes / res.seconds;
        res.xactThroughput = res.transactions / res.seconds;
        return res;
    });
}

} // namespace model
} // namespace gpuperf
