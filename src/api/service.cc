#include "api/service.h"

#include <stdexcept>
#include <utility>

#include "api/codecs.h"
#include "api/registry.h"

namespace gpuperf {
namespace api {

namespace {

/**
 * Materialize every kernel job up front. A job whose materialization
 * fails (unknown factory, bad arguments) still occupies its batch
 * row — its cells must fail, not vanish — so it becomes a case whose
 * factory rethrows the materialization error.
 */
std::vector<driver::KernelCase>
materializeAll(const AnalysisRequest &req)
{
    std::vector<driver::KernelCase> cases;
    cases.reserve(req.kernels.size());
    for (const KernelJob &job : req.kernels) {
        try {
            cases.push_back(materializeJob(job));
        } catch (const std::exception &e) {
            driver::KernelCase broken;
            broken.name = job.name;
            const std::string message = e.what();
            broken.make = [message]() -> driver::PreparedLaunch {
                throw std::runtime_error(message);
            };
            cases.push_back(std::move(broken));
        }
    }
    return cases;
}

/**
 * The wire-input mirror of arch::GpuSpec::validate(): the same rules
 * (plus positivity of every field the simulators divide by), but
 * THROWING instead of fatal()-exiting. A malformed spec from a fleet
 * job or JSON request must fail that request, never crash the
 * service — and on a fleet worker a crash would hand the job to the
 * next worker to crash on.
 */
void
validateSpec(const arch::GpuSpec &s)
{
    const auto bad = [&s](const std::string &what) {
        throw std::runtime_error("spec '" + s.name + "': " + what);
    };
    if (s.numSms <= 0 || s.smsPerCluster <= 0 ||
        s.numSms % s.smsPerCluster != 0)
        bad("SM count not divisible into clusters");
    if (s.spsPerSm <= 0 || s.sfuMulPerSm < 0 || s.sfuPerSm < 0 ||
        s.dpPerSm < 0)
        bad("bad functional-unit counts");
    if (s.coalesceGroup <= 0 || s.warpSize <= 0 ||
        s.warpSize % s.coalesceGroup != 0)
        bad("warp size not a multiple of the coalescing group");
    if (s.minSegmentBytes <= 0 ||
        s.maxSegmentBytes < s.minSegmentBytes ||
        (s.minSegmentBytes & (s.minSegmentBytes - 1)) != 0)
        bad("bad segment sizes");
    if (s.numSharedBanks <= 0 || s.sharedBankWidth <= 0 ||
        s.sharedIssueGroup <= 0)
        bad("bad shared-memory organization");
    // !(x > 0) also rejects NaN clocks (JSON can carry "nan").
    if (!(s.coreClockHz > 0) || !(s.memClockHz > 0) ||
        s.busWidthBits <= 0)
        bad("bad clocks or bus width");
    if (s.registersPerSm < 0 || s.sharedMemPerSm < 0 ||
        s.maxThreadsPerSm <= 0 || s.maxThreadsPerBlock <= 0 ||
        s.maxBlocksPerSm <= 0 || s.maxWarpsPerSm <= 0 ||
        s.registerAllocUnit <= 0 || s.sharedAllocUnit <= 0 ||
        s.sharedStaticPerBlock < 0)
        bad("bad per-SM resource ceilings");
    if (s.maxWarpsPerSm * s.warpSize < s.maxThreadsPerSm)
        bad("warp ceiling cannot cover thread ceiling");
    if (s.aluDepCycles < 0 || s.sharedDepCycles < 0 ||
        !(s.warpSharedPassIntervalCycles >= 0) ||
        s.globalLatencyCycles < 0 || s.transactionOverheadCycles < 0 ||
        !(s.issueOverheadCycles >= 0))
        bad("bad timing parameters");
    if (s.textureCacheEnabled &&
        (s.textureCacheBytesPerCluster <= 0 ||
         s.textureCacheLineBytes <= 0 || s.textureCacheWays <= 0 ||
         s.textureHitLatencyCycles < 0))
        bad("bad texture-cache parameters");
}

} // namespace

void
validateRequest(const AnalysisRequest &req)
{
    if (req.schemaVersion != kSchemaVersion) {
        throw std::runtime_error(
            "request schema version " +
            std::to_string(req.schemaVersion) +
            " is not supported (expected " +
            std::to_string(kSchemaVersion) + ")");
    }
    // Specs first: the inline-launch checks below compare against
    // spec ceilings, which must themselves be sane to blame the
    // right party.
    for (const arch::GpuSpec &spec : req.specs)
        validateSpec(spec);
    for (const KernelJob &job : req.kernels) {
        if (!job.isInline() && job.ref.factory.empty()) {
            throw std::runtime_error(
                "kernel job '" + job.name +
                "' has neither a case ref nor an inline launch");
        }
        if (!job.isInline())
            continue;
        // Inline launches carry their shape on the wire; the checks
        // the simulators enforce with fatal() must be re-validated
        // here as throws — against every spec of the request, since
        // the per-spec launch-ceiling revalidation is fatal() too.
        const InlineLaunch &in = *job.inlined;
        const auto bad = [&job](const std::string &what) {
            throw std::runtime_error("inline job '" + job.name +
                                     "': " + what);
        };
        if (in.cfg.gridDim <= 0 || in.cfg.blockDim <= 0)
            bad("empty grid");
        if (int64_t{in.cfg.gridDim} * in.cfg.blockDim >
            (int64_t{1} << 32))
            bad("launch is unreasonably large");
        if (in.options.sampleBlocks <= 0)
            bad("sampleBlocks must be positive");
        for (const arch::GpuSpec &spec : req.specs) {
            if (in.cfg.blockDim > spec.maxThreadsPerBlock)
                bad("block of " + std::to_string(in.cfg.blockDim) +
                    " threads exceeds spec '" + spec.name +
                    "' ceiling of " +
                    std::to_string(spec.maxThreadsPerBlock));
            if (in.kernel.sharedBytes() > spec.sharedMemPerSm)
                bad("shared memory exceeds spec '" + spec.name +
                    "' SM capacity");
        }
    }
}

AnalysisResponse
makeResponseShell(const AnalysisRequest &req)
{
    AnalysisResponse resp;
    resp.jobName = req.jobName;
    resp.numKernels = static_cast<uint32_t>(req.kernels.size());
    resp.numSpecs = static_cast<uint32_t>(req.specs.size());
    return resp;
}

driver::BatchRunner::Options
AnalysisService::executorOptions(const AnalysisRequest &req)
{
    driver::BatchRunner::Options opts;
    opts.numThreads = req.exec.numThreads;
    opts.storeDir = req.store.storeDir;
    opts.reuseStoredResults = req.store.reuseStoredResults;
    opts.engine = req.exec.engine;
    return opts;
}

std::shared_ptr<driver::BatchRunner>
AnalysisService::executorHandleFor(const AnalysisRequest &req)
{
    const driver::BatchRunner::Options opts = executorOptions(req);
    std::lock_guard<std::mutex> lock(mutex_);
    // Executors are shared per distinct policy so repeated requests
    // reuse in-memory memos; the key serializes every option field.
    const std::string key =
        std::to_string(opts.numThreads) + "|" + opts.storeDir + "|" +
        (opts.reuseStoredResults ? "R" : "r") +
        std::to_string(static_cast<int>(opts.engine));
    Executor &executor = executors_[key];
    if (!executor.runner)
        executor.runner = std::make_shared<driver::BatchRunner>(opts);
    executor.lastUse = ++useCounter_;
    // Bounded cache: a long-lived worker serving many distinct store
    // policies (one per parent's temp store) must not hoard a thread
    // pool and memo set per policy forever. Evict the LRU entry; an
    // executor mid-run survives through the caller's shared_ptr.
    while (executors_.size() > kMaxExecutors) {
        auto victim = executors_.end();
        for (auto it = executors_.begin(); it != executors_.end();
             ++it) {
            if (it->first != key &&
                (victim == executors_.end() ||
                 it->second.lastUse < victim->second.lastUse)) {
                victim = it;
            }
        }
        if (victim == executors_.end())
            break;
        // Fold the doomed executor's store counters into the retired
        // accumulator: eviction must never make a stats() counter go
        // backwards.
        retired_ += victim->second.runner->storeStats();
        executors_.erase(victim);
    }
    return executor.runner;
}

driver::BatchRunner &
AnalysisService::executorFor(const AnalysisRequest &req)
{
    return *executorHandleFor(req);
}

AnalysisResponse
AnalysisService::execute(const AnalysisRequest &req,
                         const CellCallback &onCell, StreamStats *stats)
{
    validateRequest(req);
    AnalysisResponse resp = makeResponseShell(req);
    resp.cells.resize(req.kernels.size() * req.specs.size());
    if (resp.cells.empty()) {
        if (stats)
            *stats = StreamStats{};
        return resp;
    }

    const std::vector<driver::KernelCase> cases = materializeAll(req);
    // Hold the handle across the whole batch: LRU eviction by a
    // concurrent request for another policy must not destroy a
    // running executor.
    const std::shared_ptr<driver::BatchRunner> executorHold =
        executorHandleFor(req);
    driver::BatchRunner &executor = *executorHold;

    const bool stream =
        onCell && req.exec.delivery == ExecutionPolicy::Delivery::kStream;
    const StreamStats got = executor.runStream(
        cases, req.specs, req.sweep,
        [&resp, &onCell, stream](size_t index,
                                 driver::BatchResult cell) {
            if (stream)
                onCell(index, cell);
            resp.cells[index] = std::move(cell);
        });
    if (stats)
        *stats = got;
    return resp;
}

std::shared_ptr<const model::CalibrationTables>
AnalysisService::calibrationFor(const AnalysisRequest &req,
                                const arch::GpuSpec &spec)
{
    return executorHandleFor(req)->calibrationFor(spec);
}

void
AnalysisService::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &entry : executors_)
        retired_ += entry.second.runner->storeStats();
    executors_.clear();
}

store::StoreLayerStats
AnalysisService::storeStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    store::StoreLayerStats s = retired_;
    for (const auto &entry : executors_)
        s += entry.second.runner->storeStats();
    return s;
}

void
AnalysisService::adoptCalibration(
    const AnalysisRequest &req, const arch::GpuSpec &spec,
    std::shared_ptr<const model::CalibrationTables> tables)
{
    executorHandleFor(req)->adoptCalibration(spec, std::move(tables));
}

} // namespace api
} // namespace gpuperf
