/**
 * @file
 * Timing-replay throughput: event-driven engine vs the legacy scan
 * engine (the seed implementation), per-case.
 *
 * Each case is functionally simulated ONCE (the profile-sharing
 * pipeline's steady state, where the timing replay is the dominant
 * per-cell cost); the trace is then replayed repeatedly under both
 * engines. Results are checked bit-identical on every case before any
 * rate is reported — a faster engine that drifts would be a bug, not
 * a speedup.
 *
 * Gate: >= 2x replays/sec on the high-occupancy cases (stencil1d and
 * ELL SpMV, 24-32 resident warps per SM — where the legacy O(warps)
 * candidate scan hurts most). Low-occupancy cases are reported for
 * contrast but not gated. Set GPUPERF_REPLAY_GATE=report to log
 * instead of fail on machines with unusable clocks.
 *
 * One calibration-sweep launch (the Type II instruction bench at 32
 * warps/SM) is reported without a gate: it is cluster-symmetric, so
 * the event engine replays one cluster where the legacy engine
 * replays all of them, and the identity check covers that path on
 * every run. The "1 cluster" column marks the cases that take it.
 *
 * Writes bench_timing_replay.json next to the binary so CI can
 * archive the perf trajectory.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "driver/demo_cases.h"
#include "funcsim/interpreter.h"
#include "model/calibration.h"
#include "timing/replay_engine.h"
#include "timing/simulator.h"

using namespace gpuperf;

namespace {

struct ReplayCase
{
    driver::KernelCase kc;
    bool gated = false;  ///< part of the >= 2x high-occupancy gate
};

struct CaseResult
{
    std::string name;
    int residentWarps = 0;
    uint64_t ops = 0;
    double legacyPerSec = 0.0;
    double eventPerSec = 0.0;
    bool gated = false;
    bool oneCluster = false;  ///< the event engine replays one cluster

    double speedup() const { return eventPerSec / legacyPerSec; }
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Replays/sec of @p reps replays of @p trace. */
double
rate(const timing::TimingSimulator &sim,
     const funcsim::LaunchTrace &trace, int reps)
{
    const double start = now();
    for (int i = 0; i < reps; ++i)
        (void)sim.run(trace);
    const double elapsed = now() - start;
    return reps / elapsed;
}

CaseResult
runCase(const ReplayCase &rc, const arch::GpuSpec &spec)
{
    driver::PreparedLaunch launch = rc.kc.make();
    funcsim::FunctionalSimulator fsim(spec);
    funcsim::RunOptions opts = launch.options;
    opts.collectTrace = true;
    auto res = fsim.run(launch.kernel, launch.cfg, *launch.gmem, opts);

    const timing::TimingSimulator legacy(
        spec, timing::ReplayEngine::kLegacyScan);
    const timing::TimingSimulator event(
        spec, timing::ReplayEngine::kEventDriven);

    // Correctness first: a diverging engine reports no speedup.
    const timing::TimingResult lr = legacy.run(res.trace);
    const timing::TimingResult er = event.run(res.trace);
    if (er != lr) {
        std::cerr << rc.kc.name
                  << ": engines diverged — refusing to benchmark a "
                     "wrong result\n";
        std::exit(1);
    }

    // Size the repetition count off the slower (legacy) engine so
    // each measurement covers at least ~0.15 s.
    const double t0 = now();
    (void)legacy.run(res.trace);
    const double once = std::max(now() - t0, 1e-6);
    const int reps = static_cast<int>(
        std::min(2000.0, std::max(5.0, 0.15 / once)));

    CaseResult out;
    out.name = rc.kc.name;
    out.residentWarps = lr.occupancy.residentWarps;
    out.ops = lr.totalOps;
    out.gated = rc.gated;
    out.oneCluster = timing::detail::clusterSymmetric(spec, res.trace);
    // Best of three interleaved trials per engine: scheduler noise on
    // a shared machine only ever slows a trial down, so the max is
    // the fairest estimate for both engines alike.
    for (int trial = 0; trial < 3; ++trial) {
        out.legacyPerSec =
            std::max(out.legacyPerSec, rate(legacy, res.trace, reps));
        out.eventPerSec =
            std::max(out.eventPerSec, rate(event, res.trace, reps));
    }
    return out;
}

/** The calibration sweep's Type II instruction bench at 32 warps/SM. */
driver::KernelCase
calibrationCase(const arch::GpuSpec &spec)
{
    for (const model::SweepLaunch &l :
         model::Calibrator::sweepLaunches(spec)) {
        if (l.shared || l.type != arch::InstrType::TypeII || l.warps != 32)
            continue;
        driver::KernelCase kc;
        kc.name = "calibration type II";
        kc.make = [l]() {
            driver::PreparedLaunch launch(l.kernel);
            launch.cfg = l.cfg;
            launch.gmem =
                std::make_unique<funcsim::GlobalMemory>(l.imageBytes);
            launch.options.homogeneous = true;
            return launch;
        };
        return kc;
    }
    std::cerr << "no Type II launch at 32 warps/SM in the sweep\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const arch::GpuSpec spec = arch::GpuSpec::gtx285();
    const int scale = opts.full ? 4 : 1;

    printBanner(std::cout,
                "timing replay: event-driven vs legacy scan engine");

    // High-occupancy cases (gated): 24-32 resident warps per SM keep
    // the legacy candidate scan long. Low-occupancy contrast cases
    // are reported only.
    std::vector<ReplayCase> cases;
    cases.push_back({driver::makeStencil1dCase(
                         "stencil1d hi-occ", 240 * scale, 256),
                     true});
    // 10240 block rows = 240 thread blocks: fills all 8 resident
    // block slots of every SM (32 live warps each).
    cases.push_back({driver::makeSpmvEllCase(
                         "spmv-ell hi-occ", 10240 * scale, 9),
                     true});
    cases.push_back({driver::makeSharedConflictCase(
                         "conflict hi-occ", 120 * scale, 256, 4, 48),
                     true});
    // High occupancy but cluster-symmetric: the event engine replays
    // one cluster of it, so its speedup measures that path rather than
    // the scheduler the gate is about. Reported for the record.
    cases.push_back({driver::makeReductionCase(
                         "reduction hi-occ", 120 * scale, 256),
                     false});
    cases.push_back({driver::makeSaxpyCase(
                         "saxpy lo-occ", 30, 64, 2.0f),
                     false});
    cases.push_back({calibrationCase(spec), false});

    Table t({"case", "warps/SM", "warp ops", "1 cluster", "legacy/s",
             "event/s", "speedup"});
    std::vector<CaseResult> results;
    bool gate_ok = true;
    double worst_gated = 1e300;
    for (const ReplayCase &rc : cases) {
        CaseResult r = runCase(rc, spec);
        t.addRow({r.name, std::to_string(r.residentWarps),
                  std::to_string(r.ops), r.oneCluster ? "yes" : "no",
                  Table::num(r.legacyPerSec, 1),
                  Table::num(r.eventPerSec, 1),
                  Table::num(r.speedup(), 2) + "x" +
                      (r.gated ? "" : "  (not gated)")});
        if (r.gated) {
            worst_gated = std::min(worst_gated, r.speedup());
            gate_ok = gate_ok && r.speedup() >= 2.0;
        }
        results.push_back(std::move(r));
    }
    bench::emit(t, opts);

    std::cout << "\nworst gated speedup: " << Table::num(worst_gated, 2)
              << "x (gate: >= 2x on the high-occupancy cases)\n";
#ifndef NDEBUG
    // Debug builds cross-check every cached candidate against a
    // fresh recomputation (engine_event.cc), roughly doubling the
    // event engine's selection cost — a correctness harness, not the
    // shipped performance. Report, don't gate.
    if (!gate_ok) {
        std::cout << "replay gate in report-only mode (debug build "
                     "runs the per-issue candidate cross-check)\n";
        gate_ok = true;
    }
#endif
    if (const char *mode = std::getenv("GPUPERF_REPLAY_GATE");
        !gate_ok && mode && std::string(mode) == "report") {
        std::cout << "replay gate in report-only mode "
                     "(GPUPERF_REPLAY_GATE=report)\n";
        gate_ok = true;
    }

    // Machine-readable trajectory for CI artifacts.
    std::ofstream json("bench_timing_replay.json");
    json << "{\n  \"bench\": \"timing_replay\",\n  \"gate\": "
         << (gate_ok ? "\"pass\"" : "\"fail\"") << ",\n  \"cases\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const CaseResult &r = results[i];
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"resident_warps\": %d, "
                      "\"warp_ops\": %llu, \"legacy_per_sec\": %.3f, "
                      "\"event_per_sec\": %.3f, \"speedup\": %.3f, "
                      "\"gated\": %s, \"one_cluster\": %s}%s\n",
                      r.name.c_str(), r.residentWarps,
                      static_cast<unsigned long long>(r.ops),
                      r.legacyPerSec, r.eventPerSec, r.speedup(),
                      r.gated ? "true" : "false",
                      r.oneCluster ? "true" : "false",
                      i + 1 < results.size() ? "," : "");
        json << buf;
    }
    json << "  ]\n}\n";

    if (!gate_ok) {
        std::cerr << "timing-replay gate FAILED\n";
        return 1;
    }
    return 0;
}
