/**
 * @file
 * bench_gpuperf — the benchmark of gpuperf's analysis pipeline.
 *
 *   bench_gpuperf --workload NAME --seed N --seconds S --trace 0|1
 *   bench_gpuperf --check
 *
 * Runs one workload (cold-analyze, warm-whatif, serve-repeat,
 * fleet-mixed; see workloads.h and README.md) from the current working
 * directory, which receives its stores, sockets and traces. With
 * --trace 0 it reports the end-to-end metrics, with --trace 1 the
 * per-layer ones. Every output is checked; the last line printed is
 * the run's JSON report, and the exit code is 0 only when every check
 * passed. Fleet workers are started from GPUPERF_WORKER_BIN (default
 * ./gpuperf-worker).
 *
 * --check tests the benchmark itself: seeded request streams repeat
 * byte for byte and never repeat a kernel, the layer path equals the
 * service cell for cell, and the percentile and self-time arithmetic
 * is right.
 */

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "api/codecs.h"
#include "env.h"
#include "layers.h"
#include "phases.h"
#include "spans.h"
#include "summary.h"

namespace gpuperf {
namespace perfbench {

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "bench_gpuperf: %s\n"
                 "usage: bench_gpuperf --workload NAME --seed N "
                 "--seconds S --trace 0|1\n"
                 "       bench_gpuperf --check\n"
                 "workloads: cold-analyze warm-whatif serve-repeat "
                 "fleet-mixed\n",
                 why);
    return 2;
}

void
expect(bool ok, const std::string &what, Report &rep)
{
    std::printf("  %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok)
        rep.problem(what);
}

/** Every request a workload's stream opens with, binary-encoded. */
std::string
streamBytes(uint64_t seed, Workload w)
{
    const Generator gen(seed, w);
    std::vector<api::AnalysisRequest> reqs;
    switch (w) {
    case Workload::kColdAnalyze:
        for (uint64_t i = 0; i < 30; ++i)
            reqs.push_back(gen.cold(i, i % 2));
        break;
    case Workload::kWarmWhatif:
        reqs.push_back(gen.warmPopulate());
        for (uint64_t r = 0; r < 4; ++r)
            reqs.push_back(gen.warm(r, r % 2));
        break;
    case Workload::kServeRepeat:
        reqs = gen.servePool();
        break;
    case Workload::kFleetMixed:
        for (uint64_t r = 0; r < 10; ++r) {
            reqs.push_back(gen.fleetBulk(r, r == 0));
            reqs.push_back(gen.fleetInteractive(r, r % 2));
        }
        break;
    }
    store::ByteWriter w_out;
    for (const api::AnalysisRequest &req : reqs)
        api::writeRequest(w_out, req);
    if (w == Workload::kServeRepeat) {
        for (int c = 0; c < 2; ++c)
            for (uint64_t k = 0; k < 64; ++k)
                w_out.u32(static_cast<uint32_t>(gen.servePick(c, k)));
    }
    return w_out.bytes();
}

/** A kernel's identity: its factory and arguments. */
std::string
kernelIdentity(const api::KernelJob &job)
{
    std::string id = job.ref.factory;
    for (int64_t v : job.ref.iargs)
        id += " " + std::to_string(v);
    char buf[40];
    for (double v : job.ref.fargs) {
        std::snprintf(buf, sizeof(buf), " %.17g", v);
        id += buf;
    }
    return id;
}

/** No kernel repeats across a stream and its warm-up kernels. */
bool
kernelsUnique(const Generator &gen)
{
    std::set<std::string> seen;
    size_t total = 0;
    const auto add = [&](const api::AnalysisRequest &req) {
        for (const api::KernelJob &job : req.kernels) {
            seen.insert(kernelIdentity(job));
            ++total;
        }
    };
    for (uint64_t i = 0; i < gen.coldCapacity(); ++i)
        add(gen.cold(i));
    for (uint64_t i = 0; i < 7 * kWarmupBlocks; ++i)
        add(gen.cold(i, true));
    for (uint64_t r = 0; r < 3000; ++r)
        add(gen.fleetInteractive(r));
    for (uint64_t w = 0; w < 7; ++w)
        add(gen.fleetInteractive(w, true));
    return seen.size() == total;
}

/** Spans with fixed times: a root, two overlapping children, and so on. */
bool
selfTimeArithmetic()
{
    SpanRecorder rec;
    const auto add = [&rec](int32_t parent, int64_t start, int64_t end) {
        SpanRecorder::Span s;
        s.parent = parent;
        s.startNs = start;
        s.endNs = end;
        rec.record(s);
    };
    add(SpanRecorder::kNoParent, 0, 100); // 0: root
    add(0, 10, 40);                       // 1
    add(0, 30, 60);                       // 2: overlaps 1
    add(1, 15, 20);                       // 3: grandchild
    add(0, 90, 120);                      // 4: runs past the root
    const std::vector<int64_t> self = rec.selfNs();
    // Root: 100 minus the union [10, 60) and [90, 100).
    return self == std::vector<int64_t>{40, 25, 30, 5, 30};
}

bool
percentileArithmetic()
{
    std::vector<double> hundred, thousand;
    for (int i = 1; i <= 100; ++i)
        hundred.push_back(i);
    for (int i = 1; i <= 1000; ++i)
        thousand.push_back(i);
    const Summary h = Summary::of(hundred);
    const Summary t = Summary::of(thousand);
    return h.p50 == 50 && h.p90 == 90 && h.p99 == 99 && h.tailPm == 900 &&
           t.p99 == 990 && t.tailPm == 990 && tailPerMille(999) == 900 &&
           tailPerMille(10000) == 990 && tailPerMille(99) == 500 &&
           Summary::of({}).p50 == 0.0;
}

/**
 * The layer path against AnalysisService::execute on @p reqs: every
 * response must be equal. Returns the cells compared.
 */
size_t
compareLayerPath(const std::vector<api::AnalysisRequest> &reqs,
                 const std::string &ref_store,
                 const std::string &layer_store, bool reset, Report &rep)
{
    api::AnalysisService ref, layers;
    SpanRecorder rec;
    size_t cells = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
        if (reset)
            ref.reset();
        const api::AnalysisResponse want =
            ref.execute(withStore(reqs[i], ref_store, 1));
        const api::AnalysisResponse got =
            runLayers(layers, withStore(reqs[i], layer_store, 1), rec, i);
        std::string why;
        if (!api::responsesEqual(got, want, &why)) {
            std::printf("  %s: %s\n", reqs[i].jobName.c_str(), why.c_str());
            rep.problem(reqs[i].jobName + ": " + why);
        }
        for (const driver::BatchResult &cell : got.cells)
            cells += cell.ok ? 1 : 0;
    }
    return cells;
}

int
runCheck()
{
    Report rep;
    std::printf("bench_gpuperf --check\n");
    for (Workload w : allWorkloads()) {
        const std::string a = streamBytes(1, w);
        expect(a == streamBytes(1, w) && a != streamBytes(2, w),
               std::string(workloadName(w)) +
                   ": one seed repeats its stream byte for byte, "
                   "another seed changes it",
               rep);
    }
    expect(kernelsUnique(Generator(1, Workload::kColdAnalyze)) &&
               kernelsUnique(Generator(7, Workload::kFleetMixed)),
           "no kernel repeats within a stream's capacity", rep);
    expect(percentileArithmetic(), "nearest-rank percentiles and tails",
           rep);
    expect(selfTimeArithmetic(), "self time of a synthetic nested trace",
           rep);

    const Generator cold(1, Workload::kColdAnalyze);
    std::vector<api::AnalysisRequest> cold_reqs;
    for (uint64_t i = 0; i < 7; ++i)
        cold_reqs.push_back(cold.cold(i));
    {
        api::AnalysisService calibrator;
        calibrate(calibrator, withStore(cold_reqs[0], "check/cold-ref", 1));
    }
    copyCalibrations("check/cold-ref", "check/cold-layers");
    const size_t cold_cells = compareLayerPath(
        cold_reqs, "check/cold-ref", "check/cold-layers", false, rep);
    expect(cold_cells >= 20 && rep.correct(),
           "cold-analyze: layer path equals the service on " +
               std::to_string(cold_cells) + " cells",
           rep);

    const Generator warm(1, Workload::kWarmWhatif);
    copyCalibrations("check/cold-ref", "check/warm-ref");
    {
        api::AnalysisService populate;
        populate.execute(withStore(warm.warmPopulate(), "check/warm-ref"));
    }
    copyStore("check/warm-ref", "check/warm-layers");
    const size_t warm_cells =
        compareLayerPath({warm.warm(0)}, "check/warm-ref",
                         "check/warm-layers", true, rep);
    expect(warm_cells >= 20 && rep.correct(),
           "warm-whatif: layer path equals the service on " +
               std::to_string(warm_cells) + " cells",
           rep);
    std::printf("bench_gpuperf --check: %s\n",
                rep.correct() ? "pass" : "FAIL");
    return rep.correct() ? 0 : 1;
}

int
benchMain(int argc, char **argv)
{
    const Clock::time_point process_start = Clock::now();
    RunOptions opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--check")
            return argc == 2 ? runCheck() : usage("--check takes no flags");
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            if (!parseWorkload(value, &opt.workload))
                return usage(("unknown workload " + value).c_str());
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            if (!(opt.seconds > 0))
                return usage("--seconds must be positive");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else {
            return usage(("unknown flag " + arg).c_str());
        }
        if (end && *end)
            return usage(("not a number: " + value).c_str());
    }
    if (!have_workload)
        return usage("--workload is required");

    Report rep;
    try {
        runWorkload(opt, process_start, rep);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_gpuperf: %s: %s\n",
                     workloadName(opt.workload), e.what());
        return 1;
    }
    char title[160];
    std::snprintf(title, sizeof(title), "%s seed %llu, %s run of %g s",
                  workloadName(opt.workload),
                  static_cast<unsigned long long>(opt.seed),
                  opt.trace ? "traced" : "measured", opt.seconds);
    rep.print(title);
    return rep.correct() ? 0 : 1;
}

} // namespace

} // namespace perfbench
} // namespace gpuperf

int
main(int argc, char **argv)
{
    return gpuperf::perfbench::benchMain(argc, argv);
}
