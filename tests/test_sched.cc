/**
 * @file
 * Scheduler tests: cost-model monotonicity and EWMA refinement (in
 * process and through the TimingStore observation side-channel), the
 * policy-ordered PendingQueue (FIFO/SJF/biggest-first plus urgent
 * drain), fair-share starvation-freedom under a flooding client, and
 * the tentpole invariant — every policy's responses bit-identical
 * (api::responsesEqual) to the FIFO run across 1..8 threads.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/codecs.h"
#include "api/registry.h"
#include "api/request.h"
#include "api/service.h"
#include "arch/gpu_spec.h"
#include "sched/cost.h"
#include "sched/policy.h"
#include "store/timing_store.h"

namespace gpuperf {
namespace {

std::string
freshDir(const std::string &tag)
{
    static int counter = 0;
    const std::string dir = ::testing::TempDir() + "gpuperf-sched-" +
                            tag + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(counter++);
    (void)::system(("rm -rf " + dir).c_str());
    return dir;
}

// --- Policy parsing ---------------------------------------------------

TEST(SchedPolicy, ParsesEveryCanonicalSpelling)
{
    using sched::SchedPolicy;
    const SchedPolicy all[] = {
        SchedPolicy::kFifo, SchedPolicy::kBiggestFirst,
        SchedPolicy::kSjf, SchedPolicy::kFairShare};
    for (SchedPolicy p : all) {
        SchedPolicy parsed = SchedPolicy::kFifo;
        EXPECT_TRUE(
            sched::parseSchedPolicy(sched::schedPolicyName(p), &parsed));
        EXPECT_EQ(parsed, p);
    }
    SchedPolicy parsed = SchedPolicy::kFifo;
    EXPECT_FALSE(sched::parseSchedPolicy("round-robin", &parsed));
    EXPECT_FALSE(sched::parseSchedPolicy("", &parsed));
}

// --- Cost model -------------------------------------------------------

TEST(CostModel, StaticUnitsAreMonotoneInEveryFeature)
{
    sched::CostFeatures base;
    base.warpOps = 100;
    base.warps = 8;
    const double u0 = sched::CostModel::staticUnits(base);
    EXPECT_GE(u0, 1.0); // floor: nothing predicts "free"

    sched::CostFeatures moreOps = base;
    moreOps.warpOps = 1000;
    EXPECT_GT(sched::CostModel::staticUnits(moreOps), u0);

    sched::CostFeatures moreWarps = base;
    moreWarps.warps = 64;
    EXPECT_GT(sched::CostModel::staticUnits(moreWarps), u0);

    // Static estimate inherits the monotonicity through the model.
    sched::CostModel model;
    EXPECT_GT(model.estimateStatic(moreOps),
              model.estimateStatic(base));
    EXPECT_GT(model.estimateStatic(moreWarps),
              model.estimateStatic(base));
}

TEST(CostModel, ObservationsRefineTheEstimate)
{
    sched::CostModel model;
    sched::CostFeatures f;
    f.warpOps = 50;
    f.warps = 4;

    // Unobserved: the static fallback.
    EXPECT_DOUBLE_EQ(model.estimate("k", f), model.estimateStatic(f));

    // First observation replaces the estimate outright (EWMA with no
    // history IS the sample) ...
    model.observe("k", f, 40.0);
    EXPECT_DOUBLE_EQ(model.estimate("k", f), 40.0);

    // ... and later samples move it smoothly toward the new level.
    model.observe("k", f, 80.0);
    const double e = model.estimate("k", f);
    EXPECT_GT(e, 40.0);
    EXPECT_LT(e, 80.0);
    EXPECT_NEAR(e, 0.3 * 80.0 + 0.7 * 40.0, 1e-12);

    // Other keys are untouched.
    EXPECT_DOUBLE_EQ(model.estimate("other", f),
                     model.estimateStatic(f));

    // Prediction-error accounting saw both observations.
    EXPECT_EQ(model.predictionSamples(), 2u);
    EXPECT_GT(model.predictionErrorAbsSum(), 0.0);
}

TEST(CostModel, EwmaMergeFirstSampleWinsThenSmooths)
{
    EXPECT_DOUBLE_EQ(sched::CostModel::ewmaMerge(0.0, 0, 50.0), 50.0);
    EXPECT_NEAR(sched::CostModel::ewmaMerge(50.0, 1, 100.0),
                0.3 * 100.0 + 0.7 * 50.0, 1e-12);
}

// --- TimingStore observation side-channel -----------------------------

TEST(TimingStoreObservations, RecordsAndRefinesAcrossCalls)
{
    store::TimingStore store(freshDir("obs"));
    funcsim::ProfileKey key;
    key.kernelHash = 0x1234;
    key.inputHash = 0x5678;
    const arch::TimingFingerprint fp =
        arch::TimingFingerprint::of(arch::GpuSpec::gtx285());

    double ms = 0.0;
    uint64_t count = 0;
    EXPECT_FALSE(store.loadObservationMs(key, fp, &ms, &count));

    ASSERT_TRUE(store.recordObservationMs(key, fp, 100.0));
    ASSERT_TRUE(store.loadObservationMs(key, fp, &ms, &count));
    EXPECT_DOUBLE_EQ(ms, 100.0);
    EXPECT_EQ(count, 1u);

    // A second record merges by the model's own EWMA rule, so the
    // store-side and in-process refinement agree to the bit.
    ASSERT_TRUE(store.recordObservationMs(key, fp, 200.0));
    ASSERT_TRUE(store.loadObservationMs(key, fp, &ms, &count));
    EXPECT_NEAR(ms, sched::CostModel::ewmaMerge(100.0, 1, 200.0),
                1e-12);
    EXPECT_EQ(count, 2u);

    // Observations are keyed per (profile key, timing fingerprint).
    const arch::TimingFingerprint fp2 = arch::TimingFingerprint::of(
        arch::GpuSpec::gtx285MoreBlocks());
    EXPECT_FALSE(store.loadObservationMs(key, fp2, &ms, &count));
    funcsim::ProfileKey other = key;
    other.kernelHash = 0x9999;
    EXPECT_FALSE(store.loadObservationMs(other, fp, &ms, &count));
}

// --- PendingQueue policy ordering -------------------------------------

std::vector<int>
popAll(sched::PendingQueue<int> &q)
{
    std::vector<int> order;
    while (!q.empty())
        order.push_back(q.pop());
    return order;
}

TEST(PendingQueue, FifoPopsInArrivalOrderRegardlessOfCost)
{
    sched::PendingQueue<int> q(sched::SchedPolicy::kFifo);
    q.push(1, 5.0);
    q.push(2, 1.0);
    q.push(3, 3.0);
    EXPECT_EQ(popAll(q), (std::vector<int>{1, 2, 3}));
}

TEST(PendingQueue, SjfPopsCheapestFirstWithFifoTieBreak)
{
    sched::PendingQueue<int> q(sched::SchedPolicy::kSjf);
    q.push(1, 5.0);
    q.push(2, 1.0);
    q.push(3, 3.0);
    q.push(4, 1.0); // same cost as 2 — arrival order breaks the tie
    EXPECT_EQ(popAll(q), (std::vector<int>{2, 4, 3, 1}));
}

TEST(PendingQueue, BiggestFirstPopsDearestFirst)
{
    sched::PendingQueue<int> q(sched::SchedPolicy::kBiggestFirst);
    q.push(1, 5.0);
    q.push(2, 1.0);
    q.push(3, 3.0);
    EXPECT_EQ(popAll(q), (std::vector<int>{1, 3, 2}));
}

TEST(PendingQueue, UrgentEntriesDrainFirstUnderEveryPolicy)
{
    for (sched::SchedPolicy p :
         {sched::SchedPolicy::kFifo, sched::SchedPolicy::kSjf,
          sched::SchedPolicy::kBiggestFirst,
          sched::SchedPolicy::kFairShare}) {
        sched::PendingQueue<int> q(p);
        q.push(1, 0.5);
        q.pushUrgent(90);
        q.pushUrgent(91);
        EXPECT_EQ(q.pop(), 90) << sched::schedPolicyName(p);
        EXPECT_EQ(q.pop(), 91) << sched::schedPolicyName(p);
        EXPECT_EQ(q.pop(), 1) << sched::schedPolicyName(p);
    }
}

TEST(PendingQueue, EraseRemovesFromUrgentAndPolicyEntries)
{
    sched::PendingQueue<int> q(sched::SchedPolicy::kSjf);
    q.push(1, 1.0);
    q.push(2, 2.0);
    q.pushUrgent(3);
    EXPECT_TRUE(q.erase(3));
    EXPECT_TRUE(q.erase(1));
    EXPECT_FALSE(q.erase(42));
    EXPECT_EQ(q.pop(), 2);
    EXPECT_TRUE(q.empty());
}

TEST(PendingQueue, FairShareNeverStarvesTheTricklingClient)
{
    // Client A floods 60 expensive items; client B trickles 3 cheap
    // ones in AFTER the flood is queued. Under FIFO B would wait out
    // all 60; fair share must serve B's entire trickle within a few
    // pops, and A must keep making progress too.
    sched::PendingQueue<int> q(sched::SchedPolicy::kFairShare);
    for (int i = 0; i < 60; ++i)
        q.push(1000 + i, 10.0, "A");
    for (int i = 0; i < 3; ++i)
        q.push(2000 + i, 1.0, "B");

    std::vector<int> first(8);
    for (int i = 0; i < 8; ++i)
        first[i] = q.pop();

    size_t b_served = 0, a_served = 0;
    for (int item : first)
        (item >= 2000 ? b_served : a_served) += 1;
    EXPECT_EQ(b_served, 3u)
        << "flooded client starved the trickler";
    EXPECT_GE(a_served, 1u) << "flooding client starved entirely";

    // Accounting matches what happened.
    bool sawA = false, sawB = false;
    for (const sched::ClientShare &s : q.shares()) {
        if (s.client == "A") {
            sawA = true;
            EXPECT_EQ(s.popped, a_served);
        }
        if (s.client == "B") {
            sawB = true;
            EXPECT_EQ(s.popped, 3u);
            EXPECT_EQ(s.queued, 0u);
        }
    }
    EXPECT_TRUE(sawA);
    EXPECT_TRUE(sawB);
}

// --- Policy == FIFO bit-identity through the service ------------------

model::CalibrationTables
fakeTables()
{
    model::CalibrationTables t;
    t.maxWarps = 32;
    t.bytesPerPass = 64;
    for (int type = 0; type < arch::kNumInstrTypes; ++type) {
        t.instrThroughput[type].assign(33, 0.0);
        for (int w = 1; w <= 32; ++w)
            t.instrThroughput[type][w] = 1e10 * std::min(1.0, w / 8.0);
    }
    t.sharedPassThroughput.assign(33, 0.0);
    for (int w = 1; w <= 32; ++w)
        t.sharedPassThroughput[w] = 2e10 * std::min(1.0, w / 8.0);
    return t;
}

api::AnalysisRequest
schedRequest(int numThreads)
{
    api::AnalysisRequest req;
    req.jobName = "sched-identity";
    req.kernels.push_back(api::KernelJob::fromRef(
        "saxpy-small", api::CaseRef{"saxpy", {8, 128}, {2.0}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "conflicted",
        api::CaseRef{"shared-conflict", {8, 128, 8, 32}, {}}));
    req.kernels.push_back(api::KernelJob::fromRef(
        "hist", api::CaseRef{"histogram", {6, 128, 8, 4}, {}}));
    req.specs.push_back(arch::GpuSpec::gtx285());
    req.specs.push_back(arch::GpuSpec::gtx285MoreBlocks());
    req.sweep.noBankConflicts = true;
    req.sweep.warpsPerSm = {8.0, 32.0};
    req.sweep.coalescingFractions = {1.0};
    req.exec.numThreads = numThreads;
    return req;
}

TEST(SchedIdentity, EveryPolicyMatchesFifoBitExactlyAcrossThreads)
{
    const auto tables =
        std::make_shared<const model::CalibrationTables>(fakeTables());
    for (int threads = 1; threads <= 8; ++threads) {
        const api::AnalysisRequest req = schedRequest(threads);

        api::AnalysisService fifo;
        fifo.setSchedPolicy(sched::SchedPolicy::kFifo);
        for (const arch::GpuSpec &spec : req.specs)
            fifo.adoptCalibration(req, spec, tables);
        const api::AnalysisResponse want = fifo.run(req);
        ASSERT_EQ(want.cells.size(), 6u);

        for (sched::SchedPolicy p :
             {sched::SchedPolicy::kBiggestFirst,
              sched::SchedPolicy::kSjf,
              sched::SchedPolicy::kFairShare}) {
            api::AnalysisService service;
            // Policy BEFORE adoption: the policy is part of the
            // executor cache key, and the tables must land in the
            // executor that will run the request.
            service.setSchedPolicy(p);
            for (const arch::GpuSpec &spec : req.specs)
                service.adoptCalibration(req, spec, tables);
            const api::AnalysisResponse got = service.run(req);
            std::string why;
            EXPECT_TRUE(api::responsesEqual(got, want, &why))
                << sched::schedPolicyName(p) << " @ " << threads
                << " threads: " << why;
        }
    }
}

} // namespace
} // namespace gpuperf
