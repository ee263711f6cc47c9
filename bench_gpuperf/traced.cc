#include <cstdio>
#include <map>
#include <thread>

#include "api/client.h"
#include "api/codecs.h"
#include "layers.h"
#include "phases.h"
#include "spans.h"
#include "summary.h"

namespace gpuperf {
namespace perfbench {

namespace {

/** A traced run records at least this many requests... */
constexpr uint64_t kMinTraced = 50;
/** ...and at most this many per client thread, to keep traces small. */
constexpr uint64_t kMaxTracedPerThread = 1000;
/** Past this, stop even short of kMinTraced: a run must end in 180 s. */
constexpr double kTraceHardStopSeconds = 120.0;
/** The share of a traced request its layer spans should cover. */
constexpr double kMinCoverage = 0.9;

/** Spans around the benchmark's own code, not a layer's. */
constexpr const char *kRequestSpan = "request";
constexpr const char *kLayersSpan = "layers";
constexpr const char *kTransportSpan = "api.transport.run";
constexpr const char *kExecuteSpan = "api.service.execute";
constexpr const char *kEncodeSpan = "api.codec.encode";
constexpr const char *kDecodeSpan = "api.codec.decode";

/** Where a traced request runs besides the workload's own path. */
struct TraceTarget
{
    /** In-process reference: the untraced exec.numThreads = 1 time. */
    api::AnalysisService *ref = nullptr;
    std::string refStore;
    /** Executor state runLayers() uses. */
    api::AnalysisService *layers = nullptr;
    std::string layerStore;
    /** warm-whatif: every request starts from a fresh executor. */
    bool resetPerRequest = false;
};

struct TraceThread
{
    SpanRecorder rec;
    Report rep;
    uint64_t requests = 0;
    uint64_t cells = 0;
};

bool
keepTracing(Clock::time_point start, uint64_t done, const RunOptions &opt,
            uint64_t threads)
{
    const double elapsed = secondsSince(start);
    if (elapsed > kTraceHardStopSeconds)
        return false;
    if (done < (kMinTraced + threads - 1) / threads)
        return true;
    return elapsed < opt.seconds && done < kMaxTracedPerThread;
}

/**
 * One traced request: over the socket (when @p client is set), on the
 * in-process reference, through the layer calls, then the response
 * codec. All four answers must agree bit for bit.
 */
void
traceRequest(const TraceTarget &t, TraceThread &tt,
             const api::AnalysisRequest &req, api::ServeClient *client,
             uint64_t id)
{
    const size_t cells = req.kernels.size() * req.specs.size();
    const api::AnalysisRequest ref_req = withStore(req, t.refStore, 1);
    const api::AnalysisRequest layer_req = withStore(req, t.layerStore, 1);
    if (t.resetPerRequest)
        t.ref->reset();

    api::AnalysisResponse got, ref, mine, decoded;
    std::string send_error;
    bool decoded_ok = false;
    {
        ScopedSpan root(tt.rec, kRequestSpan, id);
        if (client) {
            ScopedSpan s(tt.rec, kTransportSpan, id);
            try {
                got = client->run(req);
            } catch (const std::exception &e) {
                send_error = e.what();
            }
        }
        {
            ScopedSpan s(tt.rec, kExecuteSpan, id);
            ref = t.ref->execute(ref_req);
        }
        {
            ScopedSpan s(tt.rec, kLayersSpan, id);
            mine = runLayers(*t.layers, layer_req, tt.rec, id);
        }
        store::ByteWriter w;
        {
            ScopedSpan s(tt.rec, kEncodeSpan, id);
            api::writeResponse(w, ref);
            s.setWork(w.bytes().size());
        }
        {
            ScopedSpan s(tt.rec, kDecodeSpan, id);
            store::ByteReader r(w.bytes());
            decoded_ok = api::readResponse(r, &decoded) && r.atEnd();
        }
    }
    ++tt.requests;
    tt.cells += cells;
    tt.rep.account(ref, cells);
    const auto differs = [&](const char *what, bool same) {
        if (!same) {
            tt.rep.mismatched(cells);
            tt.rep.problem(req.jobName + ": " + what +
                           " differs from in-process execute");
        }
    };
    differs("the layer path", api::responsesEqual(mine, ref));
    differs("the decoded response",
            decoded_ok && api::responsesEqual(decoded, ref));
    if (client) {
        differs(("the socket answer " + send_error).c_str(),
                send_error.empty() && api::responsesEqual(got, ref));
    }
}

/** Spans of one name, summed over every thread. */
struct Aggregate
{
    uint64_t count = 0;
    uint64_t work = 0;
    double selfNs = 0.0;
    double maxSelfNs = 0.0;
};

/** What the spans of a traced run add up to. */
struct TraceSummary
{
    std::map<std::string, Aggregate> byName;
    /** Σ self time of the layer spans (inside "layers"). */
    double layerSelfNs = 0.0;
    /** Σ duration of the in-process reference executes. */
    double executeNs = 0.0;
    /** Per request: socket round trip minus in-process execute, ms. */
    std::vector<double> transportOverheadMs;
    double minCoverage = 1.0;
    size_t lowCoverage = 0;
    size_t spans = 0;

    const Aggregate &operator[](const char *name) const
    {
        static const Aggregate kNone;
        const auto it = byName.find(name);
        return it == byName.end() ? kNone : it->second;
    }
};

bool
isLayerSpan(const std::string &name)
{
    for (const char *layer :
         {span::kPrepare, span::kResultKey, span::kCalibrationRead,
          span::kProfileRead,
          span::kProfileWrite, span::kFuncsim, span::kTimingRead,
          span::kTimingWrite, span::kReplay, span::kAnalyze, span::kWhatif,
          span::kResultRead, span::kResultWrite}) {
        if (name == layer)
            return true;
    }
    return false;
}

TraceSummary
summarize(const std::vector<const SpanRecorder *> &recs)
{
    TraceSummary out;
    for (const SpanRecorder *rec : recs) {
        const auto &spans = rec->spans();
        const std::vector<int64_t> self = rec->selfNs();
        out.spans += spans.size();
        // Per request root: its own glue and its children's durations.
        std::map<size_t, double> glue, transport, execute;
        for (size_t i = 0; i < spans.size(); ++i) {
            const SpanRecorder::Span &s = spans[i];
            const std::string name = s.name;
            const double dur = static_cast<double>(s.endNs - s.startNs);
            Aggregate &a = out.byName[name];
            ++a.count;
            a.work += s.work;
            a.selfNs += self[i];
            a.maxSelfNs = std::max(a.maxSelfNs, double(self[i]));
            if (isLayerSpan(name))
                out.layerSelfNs += self[i];
            if (name == kRequestSpan)
                glue[i] += self[i];
            if (s.parent == SpanRecorder::kNoParent ||
                std::string(spans[s.parent].name) != kRequestSpan)
                continue;
            if (name == kLayersSpan)
                glue[s.parent] += self[i];
            else if (name == kTransportSpan)
                transport[s.parent] = dur;
            else if (name == kExecuteSpan) {
                execute[s.parent] = dur;
                out.executeNs += dur;
            }
        }
        for (const auto &[root, ns] : glue) {
            const double dur = static_cast<double>(spans[root].endNs -
                                                   spans[root].startNs);
            const double coverage = dur > 0 ? 1.0 - ns / dur : 1.0;
            out.minCoverage = std::min(out.minCoverage, coverage);
            out.lowCoverage += coverage < kMinCoverage ? 1 : 0;
        }
        for (const auto &[root, ns] : transport)
            out.transportOverheadMs.push_back((ns - execute[root]) / 1e6);
    }
    return out;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
hitFrac(const store::StoreStats &after, const store::StoreStats &before)
{
    const double hits = double(after.hits - before.hits);
    const double misses = double(after.misses - before.misses);
    return ratio(hits, hits + misses);
}

/** The run's spans, counters and setup, as the per-layer metrics. */
void
emitPerLayer(const TraceSummary &ts, const SetupInfo &setup, uint64_t cells,
             const store::StoreLayerStats &store0,
             const store::StoreLayerStats &store1,
             const api::ServerStats *server0,
             const api::ServerStats *server1, double wall_seconds,
             Report &rep)
{
    double cal = 0.0;
    for (double s : setup.calibrateSeconds)
        cal += s;
    rep.metric("model.calibrate.s_per_spec",
               ratio(cal, double(setup.calibrateSeconds.size())), "s");
    rep.metric("model.calibrate.runs", double(setup.calibrationsRun),
               "count");

    rep.metric("driver.prepare_ms_per_cell",
               ratio(ts[span::kPrepare].selfNs / 1e6, double(cells)), "ms");
    rep.metric("driver.unattributed_frac",
               1.0 - ratio(ts.layerSelfNs, ts.executeNs), "ratio",
               "(1 - layer self time / in-process 1-thread execute)");

    const Aggregate &funcsim = ts[span::kFuncsim];
    rep.metric("funcsim.profiles", double(funcsim.count), "count");
    rep.metric("funcsim.ms_per_profile",
               ratio(funcsim.selfNs / 1e6, double(funcsim.count)), "ms");
    rep.metric("funcsim.warp_instr_per_s",
               ratio(double(funcsim.work), funcsim.selfNs / 1e9), "1/s");

    const Aggregate &replay = ts[span::kReplay];
    rep.metric("timing.replays", double(replay.count), "count");
    rep.metric("timing.ms_per_replay",
               ratio(replay.selfNs / 1e6, double(replay.count)), "ms");
    rep.metric("timing.replay_ms_max", replay.maxSelfNs / 1e6, "ms");
    rep.metric("timing.warp_ops_per_s",
               ratio(double(replay.work), replay.selfNs / 1e9), "1/s");

    const Aggregate &analyze = ts[span::kAnalyze];
    rep.metric("model.analyze.us_per_cell",
               ratio(analyze.selfNs / 1e3, double(analyze.count)), "us");
    const Aggregate &whatif = ts[span::kWhatif];
    rep.metric("model.whatif.points", double(whatif.work), "count");
    rep.metric("model.whatif.us_per_point",
               ratio(whatif.selfNs / 1e3, double(whatif.work)), "us");

    rep.metric("store.profile.hit_frac",
               hitFrac(store1.profiles, store0.profiles), "ratio");
    rep.metric("store.timing.hit_frac",
               hitFrac(store1.timings, store0.timings), "ratio");
    rep.metric("store.result.hit_frac",
               hitFrac(store1.results, store0.results), "ratio");
    rep.metric("store.calibration.hit_frac",
               hitFrac(store1.calibrations, store0.calibrations), "ratio");
    const auto mean_ms = [&ts](const char *name) {
        const Aggregate &a = ts[name];
        return ratio(a.selfNs / 1e6, double(a.count));
    };
    rep.metric("store.profile.read_ms", mean_ms(span::kProfileRead), "ms");
    rep.metric("store.timing.read_ms", mean_ms(span::kTimingRead), "ms");
    rep.metric("store.result.read_ms", mean_ms(span::kResultRead), "ms");
    rep.metric("store.result.write_ms", mean_ms(span::kResultWrite), "ms");
    rep.metric("store.bytes_read",
               double(store1.total().bytesRead - store0.total().bytesRead),
               "bytes");
    rep.metric("store.bytes_written",
               double(store1.total().bytesWritten -
                      store0.total().bytesWritten),
               "bytes");

    const Aggregate &encode = ts[kEncodeSpan];
    const Aggregate &decode = ts[kDecodeSpan];
    rep.metric("api.codec.encode_us_per_resp",
               ratio(encode.selfNs / 1e3, double(encode.count)), "us");
    rep.metric("api.codec.decode_us_per_resp",
               ratio(decode.selfNs / 1e3, double(decode.count)), "us");
    rep.metric("api.codec.resp_bytes",
               ratio(double(encode.work), double(encode.count)), "bytes");
    rep.metric("api.transport.overhead_ms_p50",
               Summary::of(ts.transportOverheadMs).p50, "ms",
               "(" + std::to_string(ts.transportOverheadMs.size()) +
                   " requests)");

    api::DispatchStats f0, f1;
    uint64_t served = 0;
    if (server0 && server1) {
        f0 = server0->fleet;
        f1 = server1->fleet;
        served = server1->cells - server0->cells;
    }
    const uint64_t remote = f1.cellsCompletedRemote - f0.cellsCompletedRemote;
    rep.metric("api.dispatch.remote_frac",
               ratio(double(remote),
                     double(f1.cellsDispatched - f0.cellsDispatched)),
               "ratio");
    rep.metric("api.dispatch.redispatched",
               double(f1.cellsRedispatched - f0.cellsRedispatched), "count");
    rep.metric("api.dispatch.local_cells",
               double(served > remote ? served - remote : 0), "count");
    rep.metric("api.dispatch.queue_depth_peak", double(f1.queueDepthPeak),
               "count");
    rep.metric("sched.wait_small_ms_mean",
               ratio(f1.waitSmallMsTotal - f0.waitSmallMsTotal,
                     double(f1.waitSmallCount - f0.waitSmallCount)),
               "ms");
    rep.metric("sched.wait_large_ms_mean",
               ratio(f1.waitLargeMsTotal - f0.waitLargeMsTotal,
                     double(f1.waitLargeCount - f0.waitLargeCount)),
               "ms");
    rep.metric("sched.cost_err_ms_mean",
               ratio(f1.costErrorAbsMsSum - f0.costErrorAbsMsSum,
                     double(f1.costErrorSamples - f0.costErrorSamples)),
               "ms");

    rep.metric("trace.overhead_pct",
               ratio(emptySpanCostNs() * double(ts.spans),
                     wall_seconds * 1e9) *
                   100.0,
               "%", "(1e6 empty spans, scaled by the spans recorded)");
}

/**
 * Finish a traced run: merge threads, check coverage and the layer
 * counts, write trace-<workload>.json, emit the per-layer metrics.
 */
TraceSummary
finish(const RunOptions &opt, std::vector<TraceThread> &threads,
       const SetupInfo &setup, const store::StoreLayerStats &store0,
       const store::StoreLayerStats &store1, const api::ServerStats *server0,
       const api::ServerStats *server1, double wall_seconds, Report &rep)
{
    std::vector<const SpanRecorder *> recs;
    uint64_t requests = 0, cells = 0;
    for (TraceThread &tt : threads) {
        recs.push_back(&tt.rec);
        rep.merge(tt.rep);
        requests += tt.requests;
        cells += tt.cells;
    }
    const TraceSummary ts = summarize(recs);
    const std::string path =
        std::string("trace-") + workloadName(opt.workload) + ".json";
    if (!writeChromeTrace(path, recs))
        rep.problem("could not write " + path);
    char line[240];
    std::snprintf(line, sizeof(line),
                  "traced %llu requests (%llu cells) in %.2f s, %zu spans "
                  "in %s; layer spans cover < 90%% of %zu requests, "
                  "lowest %.3f",
                  static_cast<unsigned long long>(requests),
                  static_cast<unsigned long long>(cells), wall_seconds,
                  ts.spans, path.c_str(), ts.lowCoverage, ts.minCoverage);
    rep.info(line);
    // A client thread preempted between two spans leaves that request's
    // gap unattributed, so a loaded box sees the odd low request; more
    // than 1% of them means the layer path lost track of real work.
    if (ts.lowCoverage * 100 > requests)
        rep.problem("layer spans cover < 90% of more than 1% of the "
                    "traced requests");
    emitPerLayer(ts, setup, cells, store0, store1, server0, server1,
                 wall_seconds, rep);
    return ts;
}

} // namespace

void
traceInproc(const RunOptions &opt, const Generator &gen, InprocEnv &env,
            Report &rep)
{
    const bool cold = opt.workload == Workload::kColdAnalyze;
    TraceTarget t;
    t.refStore = "trace-ref/store";
    t.layerStore = "trace-layers/store";
    t.resetPerRequest = !cold;
    for (const std::string &to : {t.refStore, t.layerStore}) {
        if (cold)
            copyCalibrations(env.store, to);
        else
            copyStore(env.store, to);
    }
    api::AnalysisService ref, layers;
    t.ref = &ref;
    t.layers = &layers;

    std::vector<TraceThread> threads(1);
    const store::StoreLayerStats store0 = ref.storeStats();
    const uint64_t capacity = cold ? gen.coldCapacity() : UINT64_MAX;
    const Clock::time_point start = Clock::now();
    uint64_t n = 0;
    for (; n < capacity && keepTracing(start, n, opt, 1); ++n)
        traceRequest(t, threads[0], cold ? gen.cold(n) : gen.warm(n),
                     nullptr, n);
    const double wall = secondsSince(start);

    const TraceSummary ts =
        finish(opt, threads, env.info, store0, ref.storeStats(), nullptr,
               nullptr, wall, rep);
    const uint64_t funcsims = ts[span::kFuncsim].count;
    const uint64_t replays = ts[span::kReplay].count;
    if (cold && (funcsims != n || replays != 3 * n))
        rep.problem("cold-analyze: layer path ran other than 1 funcsim "
                    "and 3 replays per request");
    if (!cold && (funcsims || replays))
        rep.problem("warm-whatif: layer path ran a funcsim or a replay");
}

void
traceServe(const RunOptions &opt, const Generator &gen, ServeEnv &env,
           Report &rep)
{
    api::AnalysisService &svc = env.server->service();
    TraceTarget t;
    t.ref = t.layers = &svc;
    t.refStore = t.layerStore = env.store;

    constexpr int kConnections = 4;
    std::vector<TraceThread> threads(kConnections);
    const store::StoreLayerStats store0 = svc.storeStats();
    const api::ServerStats server0 = env.server->stats();
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < kConnections; ++c) {
        workers.emplace_back([&, c] {
            api::ServeClient client = api::ServeClient::overUnix(env.socket);
            for (uint64_t k = 0; keepTracing(start, k, opt, kConnections);
                 ++k) {
                traceRequest(t, threads[c], env.pool[gen.servePick(c, k)],
                             &client, (uint64_t(c) << 32) | k);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    const double wall = secondsSince(start);
    const api::ServerStats server1 = env.server->stats();

    const TraceSummary ts =
        finish(opt, threads, env.info, store0, svc.storeStats(), &server0,
               &server1, wall, rep);
    const Aggregate &reads = ts[span::kResultRead];
    if (reads.work != reads.count || ts[span::kFuncsim].count ||
        ts[span::kReplay].count)
        rep.problem("serve-repeat: a layer-path cell missed the result "
                    "store");
}

void
traceFleet(const RunOptions &opt, const Generator &gen, FleetEnv &env,
           Report &rep)
{
    TraceTarget t;
    t.refStore = "trace-ref/store";
    t.layerStore = "trace-layers/store";
    copyCalibrations(env.store, t.refStore);
    copyCalibrations(env.store, t.layerStore);
    api::AnalysisService ref, layers;
    t.ref = &ref;
    t.layers = &layers;

    std::vector<TraceThread> threads(2);
    const store::StoreLayerStats store0 = ref.storeStats();
    const api::ServerStats server0 = env.server->stats();
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < 2; ++c) {
        workers.emplace_back([&, c] {
            const bool bulk = c == 0;
            api::ServeClient client = api::ServeClient::overUnix(env.socket);
            for (uint64_t r = 0; keepTracing(start, r, opt, 2); ++r) {
                traceRequest(t, threads[c],
                             bulk ? gen.fleetBulk(r)
                                  : gen.fleetInteractive(r),
                             &client, (uint64_t(c) << 32) | r);
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    const double wall = secondsSince(start);
    const api::ServerStats server1 = env.server->stats();

    finish(opt, threads, env.info, store0, ref.storeStats(), &server0,
           &server1, wall, rep);
}

} // namespace perfbench
} // namespace gpuperf
