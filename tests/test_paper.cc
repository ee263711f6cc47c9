/**
 * @file
 * The paper's case-study claims as one table. Each row names a figure
 * of Zhang & Owens, reads the cells of the requests that reproduce it
 * through api::AnalysisService (at the sizes the figure harnesses ran
 * by default) and applies one predicate: a bottleneck call, an
 * ordering, or a ratio band under the one tolerance rule below.
 *
 * A row that fails must be on the known-divergence list, which records
 * what it measured and what the paper reports; a listed row that
 * starts to pass must leave the list. Every measured value is pinned
 * in tests/golden/paper.json, so a change that moves a model number
 * fails here and writes out its new file (tests/golden.h).
 *
 * The reference is the repo's timing simulator, not a GTX 285.
 * Calibrations, profiles and timings persist in test_paper_store/
 * under the working directory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <set>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/request.h"
#include "api/service.h"
#include "apps/spmv/traffic.h"
#include "model/roofline.h"

#include "golden.h"

namespace gpuperf {
namespace {

using apps::SpmvFormat;
using model::Component;

/**
 * The one tolerance rule for ratio bands: a measured ratio meets the
 * paper's when it lies within 20% of it. 20% is the model-error band
 * the case-study checks hold cyclic reduction and SpMV to against the
 * simulator, so a ratio the reproduction matches no closer than that
 * is not claimed as reproduced. No row has a band of its own.
 */
constexpr double kTolerance = 0.20;

// The figure harnesses' default sizes.
constexpr int kGemmSize = 512;
constexpr int kCrEquations = 512;
constexpr int kCrSystems = 512;
constexpr int kSpmvBlockRows = 4096;

// --- The requests ---------------------------------------------------

arch::GpuSpec
withTextureCache()
{
    arch::GpuSpec s = arch::GpuSpec::gtx285();
    s.name = "GTX 285 + texture cache";
    s.textureCacheEnabled = true;
    return s;
}

arch::GpuSpec
smallSegmentsNoOverhead()
{
    arch::GpuSpec s = arch::GpuSpec::gtx285SmallSegments(4);
    s.name += ", no per-transaction overhead";
    s.transactionOverheadCycles = 0;
    return s;
}

api::KernelJob
gemm(int tile)
{
    const std::string t = std::to_string(tile);
    return api::KernelJob::fromRef(
        "gemm " + t + "x" + t, {"gemm", {kGemmSize, tile}, {}});
}

api::KernelJob
cr(bool padded, bool forward_only)
{
    return api::KernelJob::fromRef(
        std::string(padded ? "CR-NBC" : "CR") +
            (forward_only ? " forward" : ""),
        {"cyclic-reduction",
         {kCrEquations, kCrSystems, padded, forward_only},
         {}});
}

api::KernelJob
spmv(SpmvFormat format, bool texture)
{
    return api::KernelJob::fromRef(
        std::string(apps::spmvFormatName(format)) +
            (texture ? "+Cache" : ""),
        {"spmv",
         {static_cast<int64_t>(format), kSpmvBlockRows, texture},
         {}});
}

/** One request: kernels x specs. */
struct Experiment
{
    std::vector<api::KernelJob> kernels;
    std::vector<arch::GpuSpec> specs;
};

std::vector<Experiment>
experiments()
{
    const arch::GpuSpec base = arch::GpuSpec::gtx285();
    return {
        // Figure 4 and the GEMM roofline.
        {{gemm(8), gemm(16), gemm(32)}, {base}},
        // Section 6: more resident blocks; more registers and shared
        // memory.
        {{gemm(16)}, {arch::GpuSpec::gtx285MoreBlocks()}},
        {{gemm(32)}, {arch::GpuSpec::gtx285BigResources()}},
        // Figures 6 and 7: the forward phase.
        {{cr(false, true), cr(true, true)}, {base}},
        // Figure 8 and the CR roofline: the full solve.
        {{cr(false, false), cr(true, false)}, {base}},
        // Section 6: a prime number of shared banks.
        {{cr(false, false)}, {arch::GpuSpec::gtx285PrimeBanks()}},
        // Figures 11(b) and 12 without the texture cache, and with it.
        {{spmv(SpmvFormat::kEll, false), spmv(SpmvFormat::kBellIm, false),
          spmv(SpmvFormat::kBellImIv, false)},
         {base}},
        {{spmv(SpmvFormat::kEll, true), spmv(SpmvFormat::kBellIm, true),
          spmv(SpmvFormat::kBellImIv, true)},
         {withTextureCache()}},
        // Section 6: smaller global-memory transactions.
        {{spmv(SpmvFormat::kEll, false)},
         {arch::GpuSpec::gtx285SmallSegments(16),
          arch::GpuSpec::gtx285SmallSegments(4),
          smallSegmentsNoOverhead()}},
    };
}

/** Every cell of every experiment, in request order. */
using Cells = std::vector<driver::BatchResult>;

/**
 * Run every experiment once per process. The requests go in at once,
 * so the eight machines calibrate side by side on the service's pool.
 */
const Cells &
cells()
{
    static const Cells all = [] {
        api::AnalysisService service;
        std::vector<std::future<api::AnalysisResponse>> runs;
        for (const Experiment &e : experiments()) {
            api::AnalysisRequest req;
            req.jobName = "paper";
            req.kernels = e.kernels;
            req.specs = e.specs;
            req.store.storeDir = "test_paper_store";
            // Recompute every prediction, so that a model change shows
            // here even where the store holds the old answer.
            req.store.reuseStoredResults = false;
            runs.push_back(std::async(std::launch::async, [&service, req] {
                return service.run(req);
            }));
        }
        Cells out;
        for (std::future<api::AnalysisResponse> &run : runs) {
            for (driver::BatchResult &r : run.get().cells) {
                if (!r.ok)
                    throw std::runtime_error(r.kernelName + " on " +
                                             r.specName + ": " + r.error);
                out.push_back(std::move(r));
            }
        }
        return out;
    }();
    return all;
}

const model::Analysis &
at(const Cells &cells, const std::string &kernel,
   const std::string &spec = arch::GpuSpec::gtx285().name)
{
    for (const driver::BatchResult &r : cells) {
        if (r.kernelName == kernel && r.specName == spec)
            return r.analysis;
    }
    throw std::runtime_error("no cell " + kernel + " on " + spec);
}

double
ms(const Cells &cells, const std::string &kernel,
   const std::string &spec = arch::GpuSpec::gtx285().name)
{
    return at(cells, kernel, spec).measuredMs();
}

// --- Predicates -----------------------------------------------------

/** What a row measured, and whether that meets its claim. */
struct Verdict
{
    std::string measured;
    bool met = false;
};

using Check = std::function<Verdict(const Cells &)>;

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), format, v);
    return buf;
}

/** @p fast takes less time than @p slow; measured is the speedup. */
Verdict
faster(double fast, double slow)
{
    return {fmt("%.2fx", slow / fast), fast < slow};
}

/** @p ratio lies within kTolerance of the paper's @p paper. */
Verdict
near(double ratio, double paper)
{
    return {fmt("%.2fx", ratio),
            std::fabs(ratio / paper - 1.0) <= kTolerance};
}

Check
bottleneck(const std::string &kernel, Component want)
{
    return [=](const Cells &c) {
        const Component got = at(c, kernel).prediction.bottleneck;
        return Verdict{model::componentName(got), got == want};
    };
}

/**
 * Stages [first, last] of @p kernel all bound by @p want. Over more
 * than one stage, measured lists each run of equal calls, e.g. "2-7
 * shared memory; 8-9 instruction pipeline".
 */
Check
stages(const std::string &kernel, size_t first, size_t last,
       Component want)
{
    return [=](const Cells &c) {
        const auto &st = at(c, kernel).prediction.stages;
        Verdict v{"", last < st.size()};
        for (size_t i = first; i <= last && i < st.size();) {
            size_t end = i;
            while (end < last && end + 1 < st.size() &&
                   st[end + 1].bottleneck == st[i].bottleneck)
                ++end;
            v.met = v.met && st[i].bottleneck == want;
            if (first != last) {
                v.measured += (v.measured.empty() ? "" : "; ") +
                              std::to_string(i) +
                              (end > i ? "-" + std::to_string(end) : "") +
                              " ";
            }
            v.measured += model::componentName(st[i].bottleneck);
            i = end + 1;
        }
        return v;
    };
}

Check
errorUnder(const std::string &kernel, double bound)
{
    return [=](const Cells &c) {
        const double e = at(c, kernel).errorFraction();
        return Verdict{fmt("%.1f%%", 100.0 * e), e < bound};
    };
}

/** Running @p kernel on @p spec beats running it on the GTX 285. */
Check
speedsUp(const std::string &kernel, const arch::GpuSpec &spec)
{
    return [=](const Cells &c) {
        return faster(ms(c, kernel, spec.name), ms(c, kernel));
    };
}

/**
 * The traditional model's call on @p kernel's measured time, given
 * its algorithmic @p flops and global @p bytes.
 */
Check
roofline(const std::string &kernel, double flops, double bytes,
         model::RooflineVerdict want)
{
    return [=](const Cells &c) {
        const model::RooflineAnalysis r = model::analyzeRoofline(
            arch::GpuSpec::gtx285(), flops, bytes,
            at(c, kernel).measurement.seconds());
        return Verdict{fmt("%.1f GFLOPS, ", r.sustainedFlops / 1e9) +
                           fmt("%.1f GB/s: ", r.sustainedBandwidth / 1e9) +
                           model::rooflineVerdictName(r.verdict),
                       r.verdict == want};
    };
}

/** @p check holds for each of the three formats without the cache. */
Check
everyFormat(const std::function<Verdict(const Cells &, const char *)> &check)
{
    return [=](const Cells &c) {
        Verdict v{"", true};
        for (const char *f : {"ELL", "BELL+IM", "BELL+IMIV"}) {
            const Verdict one = check(c, f);
            v.measured += (v.measured.empty() ? "" : ", ") +
                          std::string(f) + " " + one.measured;
            v.met = v.met && one.met;
        }
        return v;
    };
}

// --- The table ------------------------------------------------------

struct Row
{
    const char *figure;
    const char *claim;
    /** What the paper reports, or the bound a check carried over. */
    const char *paper;
    Check check;
};

const std::vector<Row> &
rows()
{
    const double n = kGemmSize;
    const double eq = kCrEquations;
    const double entries = kSpmvBlockRows * 13.0 * 9.0;
    const std::string tex = withTextureCache().name;
    static const std::vector<Row> table = {
        // Section 5.1, dense matrix multiply at 512 (the paper: 1024).
        {"Fig. 4(b)", "GEMM 8x8 is instruction-bound",
         "instruction pipeline",
         bottleneck("gemm 8x8", Component::kInstruction)},
        {"Fig. 4(b)", "GEMM 16x16 is instruction-bound",
         "instruction pipeline",
         bottleneck("gemm 16x16", Component::kInstruction)},
        {"Fig. 4(b)", "GEMM 32x32 is shared-memory-bound", "shared memory",
         bottleneck("gemm 32x32", Component::kShared)},
        {"Fig. 4(b)", "GEMM 16x16 is the fastest tile",
         "16x16 fastest (399 GFLOPS)",
         [](const Cells &c) {
             return faster(ms(c, "gemm 16x16"),
                           std::min(ms(c, "gemm 8x8"), ms(c, "gemm 32x32")));
         }},
        {"Fig. 4(b)", "GEMM 16x16 prediction error under 35%", "< 35%",
         errorUnder("gemm 16x16", 0.35)},
        {"Fig. 4(b)", "GEMM 32x32 prediction error under 35%", "< 35%",
         errorUnder("gemm 32x32", 0.35)},

        // Section 5.2, cyclic reduction: 512 systems of 512 equations.
        {"Fig. 6(a)", "CR step 0 is global-memory-bound", "global memory",
         stages("CR forward", 0, 0, Component::kGlobal)},
        {"Fig. 6(a)", "CR step 1 is instruction-bound",
         "instruction pipeline",
         stages("CR forward", 1, 1, Component::kInstruction)},
        {"Fig. 6(a)", "CR steps 2-9 are shared-memory-bound",
         "shared memory", stages("CR forward", 2, 9, Component::kShared)},
        {"Fig. 6(b)", "CR-NBC steps 1-9 are instruction-bound",
         "instruction pipeline",
         stages("CR-NBC forward", 1, 9, Component::kInstruction)},
        {"Fig. 6(b)", "padding makes step 1 heavier in instructions",
         "CR-NBC step 1 t_instr above CR's",
         [](const Cells &c) {
             return faster(
                 at(c, "CR forward").prediction.stages.at(1).tInstr,
                 at(c, "CR-NBC forward").prediction.stages.at(1).tInstr);
         }},
        {"Fig. 7(a)", "shared bandwidth falls with the warps of steps 1-4",
         "1029 > 723 > 470 > 330 GB/s",
         [](const Cells &c) {
             const auto &st = at(c, "CR forward").prediction.stages;
             Verdict v{"", true};
             for (size_t i = 1; i <= 4; ++i) {
                 v.measured += (i > 1 ? " > " : "") +
                               fmt("%.0f", st.at(i).sharedBandwidth / 1e9);
                 v.met = v.met && (i == 1 || st[i].sharedBandwidth <
                                                 st[i - 1].sharedBandwidth);
             }
             v.measured += " GB/s";
             return v;
         }},
        {"Fig. 8", "CR is shared-memory-bound", "shared memory",
         bottleneck("CR", Component::kShared)},
        {"Fig. 8", "CR's steps serialize (one block per SM)", "serialized",
         [](const Cells &c) {
             const bool s = at(c, "CR").prediction.serialized;
             return Verdict{s ? "serialized" : "overlapped", s};
         }},
        {"Fig. 8", "CR-NBC is instruction-bound", "instruction pipeline",
         bottleneck("CR-NBC", Component::kInstruction)},
        {"Fig. 8", "CR prediction error under 20%", "7% (bound < 20%)",
         errorUnder("CR", 0.20)},
        {"Fig. 8", "CR-NBC prediction error under 20%", "< 20%",
         errorUnder("CR-NBC", 0.20)},
        {"Fig. 8", "padding speeds CR up between 1.3x and 2.6x",
         "1.6x (bound 1.3x-2.6x)",
         [](const Cells &c) {
             const double s = ms(c, "CR") / ms(c, "CR-NBC");
             return Verdict{fmt("%.2fx", s), s > 1.3 && s < 2.6};
         }},
        {"Fig. 8", "padding speeds CR up 1.6x", "1.6x",
         [](const Cells &c) {
             return near(ms(c, "CR") / ms(c, "CR-NBC"), 1.6);
         }},
        {"Fig. 8", "the model predicts the padding's gain in advance",
         "CR-NBC predicted faster",
         [](const Cells &c) {
             return faster(at(c, "CR-NBC").predictedMs(),
                           at(c, "CR").predictedMs());
         }},

        // The traditional model on the three case studies, from each
        // kernel's algorithmic flops and global traffic.
        {"Sec. 5.2 roofline", "GEMM 16x16 is compute-bound",
         "compute-bound",
         roofline("gemm 16x16", 2.0 * n * n * n, 3.0 * n * n * 4,
                  model::RooflineVerdict::kComputeBound)},
        {"Sec. 5.2 roofline", "CR is neither compute- nor memory-bound",
         "~6 GFLOPS, ~7 GB/s: neither",
         roofline("CR", (12.0 * (eq - 1) + 5.0 * eq) * kCrSystems,
                  5.0 * eq * kCrSystems * 4,
                  model::RooflineVerdict::kUnexplained)},
        {"Sec. 5.2 roofline", "SpMV BELL+IMIV is memory-bound",
         "memory-bound",
         roofline("BELL+IMIV", 2.0 * entries,
                  entries * 4.0 + entries / 9.0 * 4.0 +
                      kSpmvBlockRows * 3.0 * 8.0,
                  model::RooflineVerdict::kMemoryBound)},

        // Section 5.3, SpMV on 4096 block rows (12,288 rows).
        {"Fig. 11(b)", "ELL is global-memory-bound", "global memory",
         bottleneck("ELL", Component::kGlobal)},
        {"Fig. 11(b)", "BELL+IM is global-memory-bound", "global memory",
         bottleneck("BELL+IM", Component::kGlobal)},
        {"Fig. 11(b)", "BELL+IMIV is global-memory-bound", "global memory",
         bottleneck("BELL+IMIV", Component::kGlobal)},
        {"Fig. 11(b)", "ELL prediction error under 20%", "< 20%",
         errorUnder("ELL", 0.20)},
        {"Fig. 11(b)", "BELL+IM prediction error under 20%", "< 20%",
         errorUnder("BELL+IM", 0.20)},
        {"Fig. 11(b)", "BELL+IMIV prediction error under 20%", "< 20%",
         errorUnder("BELL+IMIV", 0.20)},
        {"Fig. 11(b)", "every format's prediction error is within 5%",
         "within 5%",
         everyFormat([](const Cells &c, const char *f) {
             return errorUnder(f, 0.05)(c);
         })},
        {"Fig. 11(b)", "the instruction pipeline is every format's next "
                       "bottleneck",
         "instruction pipeline",
         everyFormat([](const Cells &c, const char *f) {
             const Component next = at(c, f).prediction.nextBottleneck;
             return Verdict{model::componentName(next),
                            next == Component::kInstruction};
         })},
        {"Fig. 12", "ELL, BELL+IM, BELL+IMIV run ever faster",
         "15.9 < 23.4 < 33.7 GFLOPS",
         [](const Cells &c) {
             const double ell = ms(c, "ELL"), im = ms(c, "BELL+IM"),
                          imiv = ms(c, "BELL+IMIV");
             return Verdict{fmt("%.3f > ", ell) + fmt("%.3f > ", im) +
                                fmt("%.3f ms", imiv),
                            ell > im && im > imiv};
         }},
        {"Fig. 12", "BELL+IMIV beats the prior best, BELL+IM+Cache",
         "1.05x (33.7 vs 32.0 GFLOPS)",
         [tex](const Cells &c) {
             return faster(ms(c, "BELL+IMIV"),
                           ms(c, "BELL+IM+Cache", tex));
         }},
        {"Fig. 12", "BELL+IMIV+Cache beats BELL+IM+Cache by 1.18x",
         "1.18x (37.7 vs 32.0 GFLOPS)",
         [tex](const Cells &c) {
             return near(ms(c, "BELL+IM+Cache", tex) /
                             ms(c, "BELL+IMIV+Cache", tex),
                         1.18);
         }},
        {"Fig. 12", "the texture cache speeds up every format",
         "ELL 1.47x, BELL+IM 1.37x, BELL+IMIV 1.12x",
         everyFormat([tex](const Cells &c, const char *f) {
             return faster(ms(c, std::string(f) + "+Cache", tex),
                           ms(c, f));
         })},

        // Section 6: the machine changes the analysis suggests, each
        // re-running the unchanged program on a modified machine.
        {"Sec. 6", "16 resident blocks speed up GEMM 16x16",
         "more warps, faster",
         speedsUp("gemm 16x16", arch::GpuSpec::gtx285MoreBlocks())},
        {"Sec. 6", "2x registers and shared memory speed up GEMM 32x32",
         "more warps, faster",
         speedsUp("gemm 32x32", arch::GpuSpec::gtx285BigResources())},
        {"Sec. 6", "17 shared banks speed up CR", "no conflicts, faster",
         speedsUp("CR", arch::GpuSpec::gtx285PrimeBanks())},
        {"Sec. 6", "16 B transactions speed up SpMV ELL",
         "less overfetch, faster",
         speedsUp("ELL", arch::GpuSpec::gtx285SmallSegments(16))},
        {"Sec. 6", "4 B transactions speed up SpMV ELL",
         "less overfetch, faster",
         speedsUp("ELL", arch::GpuSpec::gtx285SmallSegments(4))},
        {"Sec. 6", "4 B transactions without per-transaction overhead "
                   "speed up SpMV ELL",
         "less overfetch, faster",
         speedsUp("ELL", smallSegmentsNoOverhead())},
    };
    return table;
}

/**
 * The claims the reproduction does not meet, each with what the paper
 * reports and what this repo measures. An entry leaves the list when a
 * model change meets its claim or a written explanation replaces it.
 */
struct Divergence
{
    const char *claim;
    const char *paper;
    const char *measured;
};

const Divergence kKnownDivergences[] = {
    // t_global 0.67 ms against t_instr 0.49 ms; at the paper's 1024
    // the model reads 5.29 against 3.90 ms, within 1.4% of measured.
    {"GEMM 8x8 is instruction-bound", "instruction pipeline",
     "global memory"},
    // t_shared 0.0138 ms against t_instr 0.0111 ms.
    {"CR step 1 is instruction-bound", "instruction pipeline",
     "shared memory"},
    // One warp per SM from step 4 on: once the conflicts thin out,
    // the lone warp's instruction latency dominates.
    {"CR steps 2-9 are shared-memory-bound", "shared memory",
     "2-7 shared memory; 8-9 instruction pipeline"},
    // 0.568 ms against 0.278 ms; the paper measured 0.757 and 0.468.
    {"padding speeds CR up 1.6x", "1.6x", "2.04x"},
    // 38% of the memory peak, under the roofline's 50% threshold.
    {"SpMV BELL+IMIV is memory-bound", "memory-bound",
     "26.2 GFLOPS, 61.0 GB/s: neither (traditional model cannot "
     "explain)"},
    // 26.2 against 35.5 GFLOPS: the simulated texture cache serves
    // BELL+IM's gathers better than the GTX 285's did.
    {"BELL+IMIV beats the prior best, BELL+IM+Cache",
     "1.05x (33.7 vs 32.0 GFLOPS)", "0.74x"},
    // This 16x16 kernel is register-bound at 8 blocks, so raising the
    // block ceiling adds no warps.
    {"16 resident blocks speed up GEMM 16x16", "more warps, faster",
     "1.00x"},
};

const Divergence *
knownDivergence(const std::string &claim)
{
    for (const Divergence &d : kKnownDivergences) {
        if (claim == d.claim)
            return &d;
    }
    return nullptr;
}

/** The golden file: every row's measured value, every cell's numbers. */
std::string
paperJson(const Cells &c)
{
    api::Json rows_json = api::Json::array();
    for (const Row &row : rows()) {
        const Verdict v = row.check(c);
        api::Json r = api::Json::object();
        r.set("figure", api::Json::str(row.figure));
        r.set("claim", api::Json::str(row.claim));
        r.set("paper", api::Json::str(row.paper));
        r.set("measured", api::Json::str(v.measured));
        r.set("met", api::Json::boolean(v.met));
        rows_json.push(std::move(r));
    }
    api::Json cells_json = api::Json::array();
    for (const driver::BatchResult &cell : c) {
        const model::Prediction &p = cell.analysis.prediction;
        api::Json j = api::Json::object();
        j.set("kernel", api::Json::str(cell.kernelName));
        j.set("spec", api::Json::str(cell.specName));
        j.set("measured_ms",
              api::Json::number(cell.analysis.measuredMs()));
        j.set("predicted_ms", api::Json::number(p.milliseconds()));
        j.set("t_instr_ms", api::Json::number(p.tInstrTotal * 1e3));
        j.set("t_shared_ms", api::Json::number(p.tSharedTotal * 1e3));
        j.set("t_global_ms", api::Json::number(p.tGlobalTotal * 1e3));
        j.set("bottleneck",
              api::Json::str(model::componentName(p.bottleneck)));
        cells_json.push(std::move(j));
    }
    api::Json root = api::Json::object();
    root.set("tolerance_pct", api::Json::number(100.0 * kTolerance));
    root.set("rows", std::move(rows_json));
    root.set("cells", std::move(cells_json));
    return root.dump();
}

TEST(PaperClaims, EveryRowIsMetOrAKnownDivergence)
{
    for (const Row &row : rows()) {
        SCOPED_TRACE(std::string(row.figure) + ": " + row.claim);
        const Verdict v = row.check(cells());
        const Divergence *d = knownDivergence(row.claim);
        if (v.met) {
            EXPECT_EQ(d, nullptr)
                << "met (" << v.measured
                << "): take it off the known-divergence list";
            continue;
        }
        ASSERT_NE(d, nullptr)
            << "measured " << v.measured << ", the paper reports "
            << row.paper << ": not a known divergence";
        EXPECT_EQ(v.measured, d->measured)
            << "the known divergence moved";
        EXPECT_STREQ(row.paper, d->paper);
    }
}

TEST(PaperClaims, EveryKnownDivergenceNamesOneRow)
{
    std::set<std::string> claims;
    for (const Row &row : rows())
        EXPECT_TRUE(claims.insert(row.claim).second) << row.claim;
    for (const Divergence &d : kKnownDivergences)
        EXPECT_EQ(claims.count(d.claim), 1u) << d.claim;
}

TEST(PaperClaims, MeasuredValuesMatchTheGoldenFile)
{
    EXPECT_TRUE(golden::matchesGolden("paper.json", paperJson(cells())));
}

} // namespace
} // namespace gpuperf
