#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "api/client.h"
#include "api/codecs.h"
#include "phases.h"
#include "summary.h"

namespace gpuperf {
namespace perfbench {

namespace {

/** Set-ups a measured run times; setup_s is their median. */
constexpr int kSetupReps = 3;

std::string
format(const char *fmt, double a, double b = 0.0, double c = 0.0)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), fmt, a, b, c);
    return buf;
}

std::string
percentileName(size_t per_mille)
{
    return per_mille % 10 ? format("p%.1f", per_mille / 10.0)
                          : format("p%.0f", per_mille / 10.0);
}

/**
 * Write back what set-up left dirty on the working directory's file
 * system, so that write-back does not compete with the timed phase's
 * own store writes.
 */
void
flushWorkingDirectory()
{
    const int fd = ::open(".", O_RDONLY | O_DIRECTORY);
    if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
    }
}

/**
 * Set up @p Env kSetupReps times (once when tracing), timing each, and
 * keep the last. The first set-up is timed from process start; the
 * write-back after each is not timed.
 */
template <class Env>
std::unique_ptr<Env>
setUp(const RunOptions &opt, const Generator &gen,
      Clock::time_point process_start, Report &rep)
{
    std::vector<double> seconds;
    std::unique_ptr<Env> env;
    const int reps = opt.trace ? 1 : kSetupReps;
    for (int k = 0; k < reps; ++k) {
        env.reset();
        const Clock::time_point t0 = k == 0 ? process_start : Clock::now();
        env = std::make_unique<Env>(opt.workload, gen,
                                    "rep" + std::to_string(k));
        seconds.push_back(secondsSince(t0));
        flushWorkingDirectory();
    }
    if (!opt.trace) {
        std::string note = "(median of";
        for (double s : seconds)
            note += format(" %.3f", s);
        rep.metric("setup_s", Summary::of(seconds).p50, "s", note + ")");
    }
    return env;
}

/** What a measured phase collects. */
struct Samples
{
    std::vector<double> reqMs;
    std::vector<double> smallMs;
    std::vector<double> errPct;
    uint64_t cells = 0;
    double seconds = 0.0;

    void add(const api::AnalysisResponse &resp)
    {
        for (const driver::BatchResult &cell : resp.cells) {
            if (cell.ok)
                errPct.push_back(modelErrPct(cell));
        }
        cells += resp.cells.size();
    }

    void merge(const Samples &o)
    {
        reqMs.insert(reqMs.end(), o.reqMs.begin(), o.reqMs.end());
        smallMs.insert(smallMs.end(), o.smallMs.begin(), o.smallMs.end());
        errPct.insert(errPct.end(), o.errPct.begin(), o.errPct.end());
        cells += o.cells;
    }
};

void
emitEndToEnd(const Samples &s, const std::string &req_what,
             const std::string &small_what, Report &rep)
{
    const Summary req = Summary::of(s.reqMs);
    const Summary small = Summary::of(s.smallMs);
    const Summary err = Summary::of(s.errPct);
    rep.metric("cells_per_s", s.cells / s.seconds, "cells/s",
               format("(%.0f cells in %.2f s)", s.cells, s.seconds));
    rep.metric("req_ms_p50", req.p50, "ms",
               format("(%.0f ", req.count) + req_what + ")");
    rep.metric("req_ms_p90", req.p90, "ms",
               format("(%.0f ", req.count) + req_what + ")");
    rep.metric("small_req_ms_p99", small.tail, "ms",
               "(" + percentileName(small.tailPm) +
                   format(" of %.0f ", small.count) + small_what + ")");
    rep.metric("peak_rss_mb", peakRssMb(), "MB",
               "(getrusage peak of this process)");
    rep.metric("model_err_pct_p50", err.p50, "%",
               format("(%.0f cells, against the timing simulator)",
                      err.count));
}

/**
 * The timed phase: the workload runs unmeasured for a settle period
 * (5 s, or half of --seconds when that is shorter), then --seconds
 * measured. The settle period lets what the first requests would
 * otherwise pay once (page-cache and file-system state left by set-up)
 * pass before measuring; its responses are still checked.
 */
struct Phase
{
    explicit Phase(double seconds)
        : begin(Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        std::min(5.0, seconds / 2)))),
          end(begin + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds)))
    {
    }

    bool running() const { return Clock::now() < end; }
    /** Whether a request that started at @p t0 is measured. */
    bool measured(Clock::time_point t0) const { return t0 >= begin; }

    Clock::time_point begin;
    Clock::time_point end;
};

/** A request and the response the program gave it. */
using Exchange = std::pair<api::AnalysisRequest, api::AnalysisResponse>;

/**
 * Recompute each sampled request on a fresh in-process service whose
 * store holds only the calibrations of @p from_store, and count every
 * response that differs from the one the workload delivered.
 */
void
verifyExchanges(const std::vector<Exchange> &samples,
                const std::string &from_store, const std::string &dir,
                Report &rep)
{
    const std::string store = dir + "/store";
    copyCalibrations(from_store, store);
    api::AnalysisService reference;
    size_t mismatches = 0;
    for (const Exchange &ex : samples) {
        const api::AnalysisResponse want =
            reference.execute(withStore(ex.first, store));
        std::string why;
        if (!api::responsesEqual(ex.second, want, &why)) {
            ++mismatches;
            rep.mismatched(ex.second.cells.size());
            rep.problem(ex.first.jobName +
                        " differs from an in-process recomputation: " + why);
        }
    }
    rep.info(format("verified %.0f sampled responses against an "
                    "in-process recomputation: %.0f differ",
                    samples.size(), mismatches));
}

/** Stop early, and say so, when a stream runs out of new kernels. */
void
noteExhausted(uint64_t done, uint64_t capacity, Report &rep)
{
    if (done >= capacity) {
        rep.info(format("note: the stream's %.0f requests ran out "
                        "before the time did",
                        capacity));
    }
}

void
measureCold(const RunOptions &opt, const Generator &gen, InprocEnv &env,
            Report &rep)
{
    driver::BatchRunner &executor =
        env.svc.executorFor(withStore(gen.cold(0), env.store));
    const uint64_t funcsims0 = executor.funcsimsComputed();
    const uint64_t replays0 = executor.timingsComputed();
    const uint64_t capacity = gen.coldCapacity();

    Samples s;
    std::vector<Exchange> samples;
    uint64_t n = 0;
    const Phase phase(opt.seconds);
    for (; n < capacity && phase.running(); ++n) {
        const api::AnalysisRequest req = withStore(gen.cold(n), env.store);
        const Clock::time_point t0 = Clock::now();
        api::AnalysisResponse resp = env.svc.execute(req);
        const double ms = msSince(t0);
        if (phase.measured(t0)) {
            s.reqMs.push_back(ms);
            if (!gen.coldIsWhale(n))
                s.smallMs.push_back(ms);
            s.add(resp);
        }
        rep.account(resp, req.specs.size());
        rep.fold(resp);
        if (n % 64 == 0)
            samples.emplace_back(req, std::move(resp));
    }
    s.seconds = secondsSince(phase.begin);
    noteExhausted(n, capacity, rep);

    const uint64_t funcsims = executor.funcsimsComputed() - funcsims0;
    const uint64_t replays = executor.timingsComputed() - replays0;
    rep.info(format("counters: %.0f requests, %.0f funcsims, %.0f replays",
                    n, funcsims, replays));
    if (funcsims != n)
        rep.problem("cold-analyze: funcsims != requests");
    if (replays != 3 * n)
        rep.problem("cold-analyze: replays != 3 x requests");
    emitEndToEnd(s, "requests", "non-whale requests", rep);
    verifyExchanges(samples, env.store, "verify", rep);
}

void
measureWarm(const RunOptions &opt, const Generator &gen, InprocEnv &env,
            Report &rep)
{
    Samples s;
    std::vector<Exchange> samples;
    uint64_t n = 0, computed = 0;
    const Phase phase(opt.seconds);
    for (; phase.running(); ++n) {
        // A fresh executor per request: a new CLI process on a warm store.
        env.svc.reset();
        const api::AnalysisRequest req = withStore(gen.warm(n), env.store);
        const Clock::time_point t0 = Clock::now();
        api::AnalysisResponse resp = env.svc.execute(req);
        const double ms = msSince(t0);
        if (phase.measured(t0)) {
            s.reqMs.push_back(ms);
            s.smallMs.push_back(ms);
            s.add(resp);
        }
        const size_t cells = req.kernels.size() * req.specs.size();
        rep.account(resp, cells);
        rep.fold(resp);
        const driver::BatchRunner &executor = env.svc.executorFor(req);
        if (executor.funcsimsComputed() || executor.timingsComputed()) {
            ++computed;
            rep.mismatched(cells);
        }
        if (n % 64 == 0)
            samples.emplace_back(req, std::move(resp));
    }
    s.seconds = secondsSince(phase.begin);
    rep.info(format("counters: %.0f requests, %.0f of them ran a funcsim "
                    "or a replay (must be 0)",
                    n, computed));
    if (computed)
        rep.problem("warm-whatif: a request ran a funcsim or a replay");
    emitEndToEnd(s, "requests", "requests (one size class)", rep);
    verifyExchanges(samples, env.store, "verify", rep);
}

void
measureServe(const RunOptions &opt, const Generator &gen, ServeEnv &env,
             Report &rep)
{
    for (const api::AnalysisResponse &ref : env.refs)
        rep.fold(ref);
    api::AnalysisService &svc = env.server->service();
    const api::AnalysisRequest probe = withStore(env.pool[0], env.store);
    const driver::BatchRunner &executor = svc.executorFor(probe);
    const uint64_t computed0 =
        executor.funcsimsComputed() + executor.timingsComputed();
    const uint64_t hits0 = svc.storeStats().results.hits;

    constexpr int kConnections = 4;
    std::vector<Samples> samples(kConnections);
    std::vector<Report> reports(kConnections);
    const Phase phase(opt.seconds);
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
        threads.emplace_back([&, c] {
            api::ServeClient client = api::ServeClient::overUnix(env.socket);
            for (uint64_t k = 0; phase.running(); ++k) {
                const size_t idx = gen.servePick(c, k);
                const api::AnalysisRequest &req = env.pool[idx];
                const size_t cells = req.kernels.size();
                try {
                    const Clock::time_point t0 = Clock::now();
                    const api::AnalysisResponse got = client.run(req);
                    const double ms = msSince(t0);
                    if (phase.measured(t0)) {
                        samples[c].reqMs.push_back(ms);
                        samples[c].smallMs.push_back(ms);
                        samples[c].add(got);
                    }
                    reports[c].account(got, cells);
                    if (!api::responsesEqual(got, env.refs[idx])) {
                        reports[c].mismatched(cells);
                        reports[c].problem("serve-repeat: " + req.jobName +
                                           " differs from in-process");
                    }
                } catch (const std::exception &e) {
                    reports[c].refused(cells);
                    reports[c].problem(std::string("serve-repeat: ") +
                                       e.what());
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    Samples s;
    for (int c = 0; c < kConnections; ++c) {
        s.merge(samples[c]);
        rep.merge(reports[c]);
    }
    s.seconds = secondsSince(phase.begin);

    const uint64_t hits = svc.storeStats().results.hits - hits0;
    const uint64_t computed =
        executor.funcsimsComputed() + executor.timingsComputed() - computed0;
    rep.info(format("counters: %.0f cells, %.0f result-store hits, %.0f "
                    "funcsims + replays (must be 0)",
                    rep.attempted(), hits, computed));
    if (hits != rep.attempted())
        rep.problem("serve-repeat: a cell was not a result-store hit");
    if (computed)
        rep.problem("serve-repeat: a cell ran a funcsim or a replay");
    // Model error over the pool's distinct cells: weighting them by how
    // often the connections happened to draw each request would move
    // the median between neighbouring cells from run to run.
    s.errPct.clear();
    for (const api::AnalysisResponse &ref : env.refs)
        for (const driver::BatchResult &cell : ref.cells)
            s.errPct.push_back(modelErrPct(cell));
    emitEndToEnd(s, "requests", "requests (one size class)", rep);
}

void
measureFleet(const RunOptions &opt, const Generator &gen, FleetEnv &env,
             Report &rep)
{
    const api::ServerStats before = env.server->stats();
    // Thread 0 sends bulk requests, thread 1 interactive ones.
    std::vector<Samples> samples(2);
    std::vector<Report> reports(2);
    std::vector<std::vector<Exchange>> verify(2);
    std::vector<std::vector<api::AnalysisResponse>> firsts(2);
    std::vector<uint64_t> requests(2, 0);
    const Phase phase(opt.seconds);
    std::vector<std::thread> threads;
    for (int c = 0; c < 2; ++c) {
        threads.emplace_back([&, c] {
            const bool bulk = c == 0;
            api::ServeClient client = api::ServeClient::overUnix(env.socket);
            const uint64_t capacity = bulk ? gen.fleetBulkCapacity()
                                           : gen.fleetInteractiveCapacity();
            uint64_t r = 0;
            for (; r < capacity && phase.running(); ++r) {
                const api::AnalysisRequest req =
                    bulk ? gen.fleetBulk(r) : gen.fleetInteractive(r);
                const size_t cells = req.kernels.size();
                try {
                    const Clock::time_point t0 = Clock::now();
                    api::AnalysisResponse got = client.run(req);
                    const double ms = msSince(t0);
                    // The two classes are separate callers: req_ms is
                    // the bulk client's, small_req_ms the interactive
                    // one's. One median over both would sit on the edge
                    // between them and jump from run to run.
                    if (phase.measured(t0)) {
                        (bulk ? samples[c].reqMs : samples[c].smallMs)
                            .push_back(ms);
                        samples[c].add(got);
                    }
                    reports[c].account(got, cells);
                    if (firsts[c].size() < kDigestResponses / 2)
                        firsts[c].push_back(got);
                    if (r % (bulk ? 8 : 128) == 0)
                        verify[c].emplace_back(req, std::move(got));
                } catch (const std::exception &e) {
                    reports[c].refused(cells);
                    reports[c].problem(std::string("fleet-mixed: ") +
                                       e.what());
                }
            }
            noteExhausted(r, capacity, reports[c]);
            requests[c] = r;
        });
    }
    for (std::thread &t : threads)
        t.join();
    Samples s;
    for (int c = 0; c < 2; ++c) {
        s.merge(samples[c]);
        rep.merge(reports[c]);
        for (const api::AnalysisResponse &resp : firsts[c])
            rep.fold(resp);
    }
    s.seconds = secondsSince(phase.begin);

    const api::ServerStats after = env.server->stats();
    const uint64_t remote =
        after.fleet.cellsCompletedRemote - before.fleet.cellsCompletedRemote;
    rep.info(format("counters: %.0f bulk + %.0f interactive requests, "
                    "%.0f cells completed by workers",
                    requests[0], requests[1], remote));
    if (after.fleet.workerDeaths != before.fleet.workerDeaths)
        rep.problem("fleet-mixed: a worker died");
    if (after.fleet.malformedResults != before.fleet.malformedResults)
        rep.problem("fleet-mixed: a worker sent a malformed result");
    emitEndToEnd(s, "bulk requests", "interactive requests", rep);
    std::vector<Exchange> all = verify[0];
    all.insert(all.end(), verify[1].begin(), verify[1].end());
    verifyExchanges(all, env.store, "verify", rep);
}

} // namespace

void
runWorkload(const RunOptions &opt, Clock::time_point process_start,
            Report &rep)
{
    const Generator gen(opt.seed, opt.workload);
    switch (opt.workload) {
    case Workload::kColdAnalyze:
    case Workload::kWarmWhatif: {
        auto env = setUp<InprocEnv>(opt, gen, process_start, rep);
        if (opt.trace)
            traceInproc(opt, gen, *env, rep);
        else if (opt.workload == Workload::kColdAnalyze)
            measureCold(opt, gen, *env, rep);
        else
            measureWarm(opt, gen, *env, rep);
        break;
    }
    case Workload::kServeRepeat: {
        auto env = setUp<ServeEnv>(opt, gen, process_start, rep);
        if (opt.trace)
            traceServe(opt, gen, *env, rep);
        else
            measureServe(opt, gen, *env, rep);
        break;
    }
    case Workload::kFleetMixed: {
        auto env = setUp<FleetEnv>(opt, gen, process_start, rep);
        if (opt.trace)
            traceFleet(opt, gen, *env, rep);
        else
            measureFleet(opt, gen, *env, rep);
        break;
    }
    }
}

} // namespace perfbench
} // namespace gpuperf
