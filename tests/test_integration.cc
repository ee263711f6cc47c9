/**
 * @file
 * The calibration the paper's Figure 1 workflow rests on, end to end:
 * the microbenchmark tables (Figure 2) and the global-memory sweep
 * (Figure 3) on the simulated GTX 285. The case studies' claims are
 * rows of tests/test_paper.cc.
 *
 * The calibration sweep persists in a calibration store under the
 * working directory, so only the first test process pays for it.
 */

#include <gtest/gtest.h>

#include "driver/batch_runner.h"
#include "model/session.h"

namespace gpuperf {
namespace model {
namespace {

/** A session config adopting the GTX 285's stored calibration. */
SessionConfig
cachedConfig()
{
    static const std::shared_ptr<const CalibrationTables> tables = [] {
        driver::BatchRunner::Options opts;
        opts.numThreads = 1;
        opts.storeDir = "test_integration_store";
        return driver::BatchRunner(opts).calibrationFor(
            arch::GpuSpec::gtx285());
    }();
    SessionConfig config;
    config.tables = tables;
    return config;
}

TEST(Integration, CalibrationTablesAreSane)
{
    AnalysisSession session(arch::GpuSpec::gtx285(), cachedConfig());
    const CalibrationTables &t = session.calibrator().tables();
    const arch::GpuSpec &spec = session.spec();
    for (arch::InstrType type : arch::kAllInstrTypes) {
        const double peak = arch::peakThroughput(spec, type);
        double prev = 0.0;
        for (int w = 1; w <= t.maxWarps; ++w) {
            const double v = t.lookupInstr(type, w);
            EXPECT_GT(v, 0.0);
            EXPECT_LT(v, peak);
            EXPECT_GT(v, prev * 0.97);  // near-monotone in warps
            prev = v;
        }
        // Saturated throughput within 25% of the hardware peak.
        EXPECT_GT(t.lookupInstr(type, t.maxWarps), 0.75 * peak);
    }
    const double shared_peak = spec.peakSharedBandwidth();
    EXPECT_LT(t.sharedBandwidth(t.maxWarps), shared_peak);
    EXPECT_GT(t.sharedBandwidth(t.maxWarps), 0.7 * shared_peak);
    // Shared memory saturates later than the instruction pipeline
    // (paper Figure 2): at 6 warps type II is near saturation while
    // shared bandwidth still has >25% headroom.
    EXPECT_GT(t.lookupInstr(arch::InstrType::TypeII, 6) /
                  t.lookupInstr(arch::InstrType::TypeII, 32),
              0.9);
    EXPECT_LT(t.sharedBandwidth(6) / t.sharedBandwidth(32), 0.75);
}

TEST(Integration, GlobalBenchSaturatesAndSawtooths)
{
    AnalysisSession session(arch::GpuSpec::gtx285(), cachedConfig());
    Calibrator &cal = session.calibrator();
    const double peak = session.spec().peakGlobalBandwidth();

    const double bw4 = cal.runGlobalBench(4, 256, 96).bandwidth;
    const double bw40 = cal.runGlobalBench(40, 256, 96).bandwidth;
    EXPECT_GT(bw40, 2.5 * bw4);        // latency-bound region scales
    EXPECT_LT(bw40, peak);
    EXPECT_GT(bw40, 0.6 * peak);       // near saturation

    // Cluster sawtooth: 40 blocks (a multiple of the 10 clusters)
    // beats 41, whose leftover block unbalances one cluster.
    const double bw41 = cal.runGlobalBench(41, 256, 96).bandwidth;
    EXPECT_GT(bw40, bw41);
}

} // namespace
} // namespace model
} // namespace gpuperf
