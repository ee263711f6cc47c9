/**
 * @file
 * Scheduler tests: cost-model monotonicity, EWMA refinement and its
 * bounded per-key memory, the request-side cost features, the
 * policy-ordered PendingQueue (FIFO/SJF/biggest-first plus urgent
 * drain, re-priced at each pick) and fair-share starvation-freedom
 * under a flooding client.
 * That every policy's responses match the FIFO run bit for bit is
 * pinned where a policy orders work, in tests/test_dispatch.cc.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/cell_cost.h"
#include "api/registry.h"
#include "api/request.h"
#include "arch/gpu_spec.h"
#include "driver/demo_cases.h"
#include "sched/cost.h"
#include "sched/policy.h"

namespace gpuperf {
namespace {

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

TEST(CostModel, ForgetsOldKeysBeyondTheBound)
{
    sched::CostModel model;
    sched::CostFeatures f;
    f.warpOps = 50;
    f.warps = 4;

    // Fill the model to its bound: "old" first, then distinct keys.
    model.observe("old", f, 40.0);
    for (size_t i = 1; i < sched::CostModel::kMaxObservedKeys; ++i)
        model.observe("k" + std::to_string(i), f, 10.0);
    EXPECT_DOUBLE_EQ(model.estimate("old", f), 40.0);
    // A key already held refines in place; nothing is forgotten.
    model.observe("k1", f, 10.0);
    EXPECT_DOUBLE_EQ(model.estimate("old", f), 40.0);
    EXPECT_DOUBLE_EQ(model.estimate("k1", f), 10.0);

    // One new key past the bound: every earlier key falls back to the
    // static estimate a never-seen key gets, and the new key is held.
    model.observe("new", f, 70.0);
    EXPECT_DOUBLE_EQ(model.estimate("new", f), 70.0);
    EXPECT_NE(model.estimateStatic(f), 40.0);
    EXPECT_DOUBLE_EQ(model.estimate("old", f), model.estimateStatic(f));
    EXPECT_DOUBLE_EQ(model.estimate("k1", f), model.estimateStatic(f));
}

// --- Request-side cost features ---------------------------------------

TEST(CellCost, RefFeaturesAreTheSameAfterTheCacheIsCleared)
{
    api::AnalysisRequest probe;
    probe.kernels.push_back(api::KernelJob::fromRef(
        "probe", api::CaseRef{"saxpy", {3, 64}, {2.0}}));
    probe.specs.push_back(arch::GpuSpec::gtx285());
    const sched::CostFeatures before = api::cellCostFeatures(probe);
    EXPECT_EQ(before.warps, 6u); // 3 blocks x 2 warps
    EXPECT_GT(before.warpOps, before.warps);

    // More distinct refs than the cache holds: one of them finds it
    // full and clears it, the probe's entry with it.
    for (size_t i = 0; i <= api::kMaxCachedRefFeatures; ++i) {
        api::AnalysisRequest filler;
        filler.kernels.push_back(api::KernelJob::fromRef(
            "filler", api::CaseRef{"saxpy", {1, 32},
                                   {0.5 + static_cast<double>(i)}}));
        (void)api::cellCostFeatures(filler);
    }

    const sched::CostFeatures after = api::cellCostFeatures(probe);
    EXPECT_EQ(after.warps, before.warps);
    EXPECT_EQ(after.warpOps, before.warpOps);
}

TEST(CellCost, AReRegisteredFactoryIsPricedFromItsNewLaunch)
{
    const auto register_saxpy = [](int grid) {
        api::registerCase("cell-cost-rereg", [grid](const api::CaseRef &,
                                                    const std::string &name) {
            return driver::makeSaxpyCase(name, grid, 64, 2.0f);
        });
    };
    api::AnalysisRequest req;
    req.kernels.push_back(api::KernelJob::fromRef(
        "probe", api::CaseRef{"cell-cost-rereg", {}, {}}));
    req.specs.push_back(arch::GpuSpec::gtx285());

    register_saxpy(3);
    EXPECT_EQ(api::cellCostFeatures(req).warps, 6u); // 3 blocks x 2 warps
    register_saxpy(5);
    EXPECT_EQ(api::cellCostFeatures(req).warps, 10u)
        << "the cached price of the replaced factory was served";
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

TEST(PendingQueue, AnEntryPricedBeforeTheModelLearnedIsRepriced)
{
    // A bulk cell queued before any observation is priced by the
    // static fallback at the default ms-per-unit factor: 2000 units
    // read as 0.2 ms. Then the model observes an interactive cell of
    // 50 units at 7.6 ms, and the next one is queued at that price.
    sched::CostFeatures bulk, interactive;
    bulk.warpOps = 1999;
    interactive.warpOps = 49;
    const std::vector<std::string> keys = {"bulk", "interactive"};
    const std::vector<sched::CostFeatures> features = {bulk, interactive};
    for (sched::SchedPolicy p :
         {sched::SchedPolicy::kSjf, sched::SchedPolicy::kBiggestFirst}) {
        SCOPED_TRACE(sched::schedPolicyName(p));
        const bool sjf = p == sched::SchedPolicy::kSjf;
        sched::CostModel model;
        const auto price = [&](const int &i) {
            return model.estimate(keys[i], features[i]);
        };
        sched::PendingQueue<int> q(p, 0.0, price);
        q.push(0, price(0));
        EXPECT_DOUBLE_EQ(price(0), 0.2);
        model.observe("interactive", interactive, 7.6);
        q.push(1, price(1));
        // At its stale 0.2 ms the bulk cell would rank below the
        // interactive one. The learned factor (7.6 ms / 50 units)
        // prices it at 304 ms.
        EXPECT_EQ(popAll(q), sjf ? (std::vector<int>{1, 0})
                                 : (std::vector<int>{0, 1}));
    }

    // FIFO never asks the pricer.
    sched::PendingQueue<int> fifo(sched::SchedPolicy::kFifo, 0.0,
                                  [](const int &) -> double {
                                      ADD_FAILURE() << "FIFO priced";
                                      return 0.0;
                                  });
    fifo.push(0, 1.0);
    fifo.push(1, 0.0);
    EXPECT_EQ(popAll(fifo), (std::vector<int>{0, 1}));
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

} // namespace
} // namespace gpuperf
