#include "layers.h"

#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>

#include "api/registry.h"
#include "funcsim/profile.h"
#include "model/session.h"
#include "store/calibration_store.h"
#include "store/codecs.h"
#include "store/profile_store.h"
#include "store/result_store.h"
#include "store/timing_store.h"
#include "timing/simulator.h"

namespace gpuperf {
namespace perfbench {

namespace {

/**
 * The result-store key BatchRunner derives for a cell (resultKey() in
 * driver/batch_runner.cc, which keeps it private). If the two drift
 * apart, serve-repeat's layer path stops hitting the store, and the
 * traced run reports that as a failed check.
 */
std::string
resultKey(const std::string &case_name, const funcsim::ProfileKey &key,
          const arch::GpuSpec &spec, uint64_t tables_digest,
          const driver::SweepSpec &sweep)
{
    char cal[32];
    std::snprintf(cal, sizeof(cal), "%016llx",
                  static_cast<unsigned long long>(tables_digest));
    return std::to_string(case_name.size()) + ":" + case_name + "|" +
           key.str() + "|spec=" + spec.fingerprint() + "|cal=" + cal +
           "|sweep=" + sweep.fingerprint();
}

struct SpecState
{
    std::shared_ptr<const model::CalibrationTables> tables;
    std::shared_ptr<model::GlobalBenchMemo> memo;
    uint64_t digest = 0;
};

/** One kernel's factory output and profile under one funcsim fp. */
struct Prepared
{
    std::unique_ptr<driver::PreparedLaunch> launch;
    funcsim::RunOptions options;
    funcsim::ProfileKey key;
    std::shared_ptr<const funcsim::KernelProfile> profile;
};

} // namespace

api::AnalysisResponse
runLayers(api::AnalysisService &svc, const api::AnalysisRequest &req,
          SpanRecorder &rec, uint64_t request)
{
    api::validateRequest(req);
    driver::BatchRunner &executor = svc.executorFor(req);
    const store::ProfileStore *profiles = executor.profileStore();
    const store::TimingStore *timings = executor.timingStore();
    const store::ResultStore *results = executor.resultStore();

    std::vector<SpecState> specs(req.specs.size());
    for (size_t si = 0; si < req.specs.size(); ++si) {
        ScopedSpan s(rec, span::kCalibrationRead, request);
        specs[si].tables = executor.calibrationFor(req.specs[si]);
        specs[si].memo = executor.benchMemoFor(req.specs[si]);
        if (results)
            specs[si].digest = store::tablesDigest(*specs[si].tables);
    }

    api::AnalysisResponse resp = api::makeResponseShell(req);
    for (const api::KernelJob &job : req.kernels) {
        std::map<std::string, Prepared> prepared;
        for (size_t si = 0; si < req.specs.size(); ++si) {
            const arch::GpuSpec &spec = req.specs[si];
            driver::BatchResult cell;
            cell.kernelName = job.name;
            cell.specName = spec.name;
            try {
                Prepared &p =
                    prepared[arch::FuncsimFingerprint::of(spec).key()];
                if (!p.launch && !p.profile) {
                    ScopedSpan s(rec, span::kPrepare, request);
                    const driver::KernelCase kc = api::materializeJob(job);
                    p.launch = std::make_unique<driver::PreparedLaunch>(
                        kc.make());
                    if (!p.launch->gmem)
                        throw std::runtime_error(
                            "kernel case produced no memory");
                    p.options = p.launch->options;
                    p.options.collectTrace = true;
                    p.key = funcsim::makeProfileKey(
                        p.launch->kernel, p.launch->cfg, p.options, spec,
                        *p.launch->gmem);
                }

                std::string rkey;
                if (results) {
                    ScopedSpan s(rec, span::kResultKey, request);
                    rkey = resultKey(job.name, p.key, spec,
                                     specs[si].digest, req.sweep);
                }
                if (results && req.store.reuseStoredResults) {
                    ScopedSpan s(rec, span::kResultRead, request);
                    if (auto stored = results->load(rkey)) {
                        s.setWork(1);
                        stored->kernelName = job.name;
                        stored->specName = spec.name;
                        resp.cells.push_back(std::move(*stored));
                        continue;
                    }
                }

                if (!p.profile && profiles) {
                    ScopedSpan s(rec, span::kProfileRead, request);
                    p.profile = profiles->load(p.key);
                    s.setWork(p.profile ? 1 : 0);
                }
                if (!p.profile) {
                    {
                        ScopedSpan s(rec, span::kFuncsim, request);
                        funcsim::FunctionalSimulator sim(spec);
                        p.profile =
                            std::make_shared<const funcsim::KernelProfile>(
                                funcsim::profileKernel(
                                    sim, p.launch->kernel, p.launch->cfg,
                                    *p.launch->gmem, p.options, p.key));
                        s.setWork(p.profile->stats.totalWarpInstrs());
                    }
                    if (profiles) {
                        ScopedSpan s(rec, span::kProfileWrite, request);
                        profiles->save(*p.profile);
                    }
                }

                const arch::TimingFingerprint fp =
                    arch::TimingFingerprint::of(spec);
                std::shared_ptr<const timing::TimingResult> timing;
                if (timings) {
                    ScopedSpan s(rec, span::kTimingRead, request);
                    timing = timings->load(p.key, fp);
                    s.setWork(timing ? 1 : 0);
                }
                if (!timing) {
                    {
                        ScopedSpan s(rec, span::kReplay, request);
                        const timing::TimingSimulator sim(spec,
                                                          req.exec.engine);
                        timing = std::make_shared<const timing::TimingResult>(
                            sim.run(*p.profile));
                        s.setWork(timing->totalOps);
                    }
                    if (timings) {
                        ScopedSpan s(rec, span::kTimingWrite, request);
                        timings->save(p.key, fp, *timing);
                    }
                }

                std::unique_ptr<model::AnalysisSession> session;
                {
                    ScopedSpan s(rec, span::kAnalyze, request);
                    model::SessionConfig config;
                    config.engine = req.exec.engine;
                    config.tables = specs[si].tables;
                    session =
                        std::make_unique<model::AnalysisSession>(spec, config);
                    session->calibrator().shareGlobalMemo(specs[si].memo);
                    cell.analysis = session->analyze(p.profile, timing);
                }
                if (!req.sweep.empty()) {
                    ScopedSpan s(rec, span::kWhatif, request);
                    cell.whatifs = driver::runSweep(
                        session->model(), cell.analysis.input, req.sweep,
                        cell.analysis.prediction);
                    s.setWork(cell.whatifs.size());
                }
                cell.ok = true;
                if (results) {
                    ScopedSpan s(rec, span::kResultWrite, request);
                    results->save(rkey, cell);
                }
            } catch (const std::exception &e) {
                cell = driver::BatchResult{};
                cell.kernelName = job.name;
                cell.specName = spec.name;
                cell.error = e.what();
            }
            resp.cells.push_back(std::move(cell));
        }
        // Dropping the input images is the prepare step's last act
        // (BatchRunner discards them once a kernel's cells are done).
        ScopedSpan s(rec, span::kPrepare, request);
        prepared.clear();
    }
    return resp;
}

} // namespace perfbench
} // namespace gpuperf
