#include "api/cell_cost.h"

#include <cstdio>
#include <map>
#include <mutex>

#include "api/codecs.h"
#include "api/registry.h"
#include "common/fnv.h"
#include "store/serializer.h"

namespace gpuperf {
namespace api {

namespace {

uint64_t
warpsOf(const funcsim::LaunchConfig &cfg)
{
    const uint64_t grid = cfg.gridDim > 0 ? cfg.gridDim : 1;
    const uint64_t block = cfg.blockDim > 0 ? cfg.blockDim : 1;
    return grid * ((block + 31) / 32);
}

/**
 * Features of one KernelJob. Registry refs are materialized to read
 * their launch shape, and the result is cached per case identity
 * (api/registry.h), so a steady mix of known cases never rebuilds an
 * input image just to price a job, and a re-registered factory is
 * priced from its new launch.
 */
sched::CostFeatures
jobFeatures(const KernelJob &job)
{
    sched::CostFeatures f;
    if (job.isInline()) {
        const InlineLaunch &launch = *job.inlined;
        f.warps = warpsOf(launch.cfg);
        f.warpOps = f.warps * launch.kernel.instructions().size();
        return f;
    }

    driver::KernelCase kc;
    try {
        kc = materializeJob(job);
    } catch (const std::exception &) {
        // Unknown factory or bad arguments: the cell will fail at
        // execution with a proper message; price it as trivial.
        return f;
    }

    static std::mutex mutex;
    static std::map<std::string, sched::CostFeatures> cache;
    {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cache.find(kc.identity);
        if (it != cache.end())
            return it->second;
    }
    try {
        const driver::PreparedLaunch prepared = kc.make();
        f.warps = warpsOf(prepared.cfg);
        f.warpOps =
            f.warps * prepared.kernel.instructions().size();
    } catch (const std::exception &) {
        // A factory that rejects its arguments only when run: the
        // cell fails the same way at execution; price it as trivial.
    }
    std::lock_guard<std::mutex> lock(mutex);
    if (cache.size() >= kMaxCachedRefFeatures &&
        !cache.count(kc.identity))
        cache.clear();
    cache.emplace(kc.identity, f);
    return f;
}

} // namespace

std::string
cellCostKey(const AnalysisRequest &cell)
{
    // Hash the WORK, not the submission: the same cell from another
    // tenant or under another job name shares one cost history.
    AnalysisRequest work = cell;
    work.jobName.clear();
    work.clientId.clear();
    store::ByteWriter w;
    writeRequest(w, work);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "cell|%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(w.bytes())));
    return buf;
}

sched::CostFeatures
cellCostFeatures(const AnalysisRequest &req)
{
    sched::CostFeatures total;
    const uint64_t specs =
        req.specs.empty() ? 1 : req.specs.size();
    for (const KernelJob &job : req.kernels) {
        const sched::CostFeatures f = jobFeatures(job);
        total.warpOps += f.warpOps * specs;
        total.warps += f.warps * specs;
    }
    return total;
}

} // namespace api
} // namespace gpuperf
