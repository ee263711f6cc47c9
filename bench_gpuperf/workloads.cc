#include "workloads.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/rng.h"

namespace gpuperf {
namespace perfbench {

namespace {

enum Family : size_t
{
    kSaxpy,
    kStrided,
    kConflict,
    kStencil,
    kReduction,
    kHistogram,
    kSpmvEll,
    kNumFamilies,
};

const char *const kFactories[kNumFamilies] = {
    "saxpy",     "saxpy-strided", "shared-conflict", "stencil1d",
    "reduction", "histogram",     "spmv-ell",
};

/** saxpy's factor a = 1 + (c + 1) / kSaxpyScale is unique per instance. */
constexpr uint64_t kSaxpyScale = uint64_t{1} << 16;

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
hashOf(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0,
       uint64_t d = 0)
{
    return mix(mix(mix(mix(mix(seed) ^ a) ^ b) ^ c) ^ d);
}

/** Distinct launch shapes a family offers. */
uint64_t
spaceSize(size_t family)
{
    switch (family) {
    case kSaxpy:
        return 32;
    case kStrided:
        return 5 * 5 * 12;
    case kConflict:
        return 16 * 16 * 3;
    case kStencil:
        return 128 * 6;
    case kReduction:
        return 256 * 3;
    case kHistogram:
        return 32 * 3 * 8;
    default:
        return 9000;
    }
}

/** Instances before a family's parameters would repeat. */
uint64_t
capacity(size_t family)
{
    // saxpy's factor a makes every instance distinct on its own.
    return family == kSaxpy ? kSaxpyScale - 1 : spaceSize(family);
}

/** saxpy's factor for instance @p c. */
double
saxpyFactor(uint64_t c)
{
    return 1.0 + static_cast<double>(c + 1) / static_cast<double>(kSaxpyScale);
}

/** Launch shape @p j of a family's space; @p c only feeds saxpy's a. */
api::CaseRef
caseRef(size_t family, uint64_t j, uint64_t c)
{
    const auto i = [](uint64_t v) { return static_cast<int64_t>(v); };
    switch (family) {
    case kSaxpy:
        return {"saxpy", {i(96 + j), 128}, {saxpyFactor(c)}};
    case kStrided: {
        // grid * block must be a power of two, so every factor is one.
        const int64_t stride = int64_t{2} << (j % 12);
        const int64_t block = int64_t{32} << ((j / 12) % 5);
        const int64_t n = int64_t{2048} << (j / 60);
        return {"saxpy-strided", {n / block, block, stride}, {}};
    }
    case kConflict:
        return {"shared-conflict",
                {i(24 + j % 16), 128, i(1 + (j / 16) % 16),
                 24 + 8 * i(j / 256)},
                {}};
    case kStencil: {
        static const int64_t kBlocks[] = {96, 128, 160, 192, 224, 256};
        return {"stencil1d", {i(96 + j % 128), kBlocks[j / 128]}, {}};
    }
    case kReduction:
        return {"reduction", {i(96 + j % 256), 64 << (j / 256)}, {}};
    case kHistogram:
        return {"histogram",
                {i(24 + j % 32), 128, 4 << ((j / 32) % 3), 3 + i(j / 96)},
                {}};
    default:
        // The spmv-ell kernels are the whales: 1k-10k block rows.
        return {"spmv-ell", {1000 + i(j), 3}, {}};
    }
}

/**
 * warm-whatif's kernels: one fixed launch shape per family and copy.
 * Those 16 kernels are a run's whole input, so a draw from the full
 * space would swing the run's cost and model error with the seed. The
 * seed changes the saxpy factors (and with them those kernels'
 * identities) and the sweep grids, not the work.
 */
api::CaseRef
warmCase(size_t family, uint64_t copy, uint64_t salt)
{
    const int64_t c = static_cast<int64_t>(copy);
    switch (family) {
    case kSaxpy:
        return {"saxpy",
                {384 + 64 * c, 128},
                {1.0 + static_cast<double>(salt % 4096 + 1) /
                           static_cast<double>(kSaxpyScale)}};
    case kStrided:
        return {"saxpy-strided", {256, 128, 4 << (3 * c)}, {}};
    case kConflict:
        return {"shared-conflict", {96 + 32 * c, 128, 2 + 6 * c, 32}, {}};
    case kStencil:
        return {"stencil1d", {512 + 128 * c, 128}, {}};
    case kReduction:
        return {"reduction", {512 + 128 * c, 128}, {}};
    case kHistogram:
        return {"histogram", {128 + 32 * c, 128, 8, 4}, {}};
    default:
        return {"spmv-ell", {1600 + 800 * c, 3}, {}};
    }
}

/** The fixed shapes: every family twice, plus a third saxpy, stencil1d. */
constexpr size_t kFixedShapes = 16;

/** Family and copy of fixed shape @p k. */
std::pair<size_t, uint64_t>
fixedShape(size_t k)
{
    if (k < 2 * kNumFamilies)
        return {k % kNumFamilies, k / kNumFamilies};
    return {k == 2 * kNumFamilies ? kSaxpy : kStencil, 2};
}

/** The smallest step >= 0.618 n coprime with n: a full-period walk. */
uint64_t
goldenStride(uint64_t n)
{
    uint64_t s = std::max<uint64_t>(1, (n * 618) / 1000);
    while (std::gcd(s, n) != 1)
        ++s;
    return s;
}

api::AnalysisRequest
requestShell(const std::string &name, std::vector<arch::GpuSpec> specs)
{
    api::AnalysisRequest req;
    req.jobName = name;
    req.specs = std::move(specs);
    return req;
}

/** @p count distinct integers from [1, @p top], seeded, ascending. */
std::vector<int>
pickDistinct(Rng &rng, int top, size_t count)
{
    std::vector<int> all(top);
    std::iota(all.begin(), all.end(), 1);
    for (size_t k = 0; k < count; ++k) {
        const size_t pick =
            k + rng.nextBelow(static_cast<uint64_t>(top) - k);
        std::swap(all[k], all[pick]);
    }
    all.resize(count);
    std::sort(all.begin(), all.end());
    return all;
}

} // namespace

const char *
workloadName(Workload w)
{
    switch (w) {
    case Workload::kColdAnalyze:
        return "cold-analyze";
    case Workload::kWarmWhatif:
        return "warm-whatif";
    case Workload::kServeRepeat:
        return "serve-repeat";
    case Workload::kFleetMixed:
        return "fleet-mixed";
    }
    return "?";
}

bool
parseWorkload(const std::string &name, Workload *out)
{
    for (Workload w : allWorkloads()) {
        if (name == workloadName(w)) {
            *out = w;
            return true;
        }
    }
    return false;
}

std::vector<Workload>
allWorkloads()
{
    return {Workload::kColdAnalyze, Workload::kWarmWhatif,
            Workload::kServeRepeat, Workload::kFleetMixed};
}

std::vector<arch::GpuSpec>
variantSpecs()
{
    return {arch::GpuSpec::gtx285(), arch::GpuSpec::gtx285MoreBlocks(),
            arch::GpuSpec::gtx285BigResources()};
}

Generator::Generator(uint64_t seed, Workload workload)
    : seed_(seed), workload_(workload)
{
}

std::pair<size_t, uint64_t>
Generator::slotOf(uint64_t i, bool warmup) const
{
    const uint64_t block = i / 7;
    std::array<size_t, kNumFamilies> order;
    std::iota(order.begin(), order.end(), 0);
    Rng rng(hashOf(seed_, static_cast<uint64_t>(workload_), 'F', block,
                   warmup));
    for (size_t k = kNumFamilies - 1; k > 0; --k)
        std::swap(order[k], order[rng.nextBelow(k + 1)]);
    const size_t family = order[i % 7];
    // saxpy-strided's launch shapes are all powers of two, so it has the
    // fewest; every other block gives its slot to saxpy, whose factor a
    // keeps instances distinct without limit.
    if (family == kStrided)
        return block % 2 ? std::make_pair<size_t>(kSaxpy, 2 * block + 1)
                         : std::make_pair<size_t>(kStrided, block / 2);
    return {family, family == kSaxpy ? 2 * block : block};
}

uint64_t
Generator::walk(uint64_t key, uint64_t n, uint64_t instance) const
{
    const uint64_t offset =
        hashOf(seed_, static_cast<uint64_t>(workload_), 'O', key) % n;
    return (instance % n * goldenStride(n) + offset) % n;
}

api::KernelJob
Generator::streamKernel(uint64_t i, bool warmup,
                        const std::string &prefix) const
{
    const auto [family, slot_instance] = slotOf(i, warmup);
    // Warm-up kernels walk down from the top of each family's space,
    // the measured stream up from the bottom: the two never meet.
    const uint64_t instance =
        warmup ? capacity(family) - 1 - slot_instance : slot_instance;
    return api::KernelJob::fromRef(
        prefix + std::to_string(i) + "-" + kFactories[family],
        caseRef(family, walk(family, spaceSize(family), instance),
                instance));
}

uint64_t
Generator::coldCapacity() const
{
    // Block b uses instance b of most families and b / 2 of
    // saxpy-strided; the top instances of each are the warm-up's.
    const uint64_t reserved = 2 * kWarmupBlocks;
    uint64_t blocks = 2 * (capacity(kStrided) - reserved);
    for (size_t f = kConflict; f < kNumFamilies; ++f)
        blocks = std::min(blocks, capacity(f) - reserved);
    return blocks * 7;
}

api::AnalysisRequest
Generator::cold(uint64_t i, bool warmup) const
{
    const std::string tag = warmup ? "cold-warmup-" : "cold-";
    api::AnalysisRequest req =
        requestShell(tag + std::to_string(i), variantSpecs());
    req.kernels.push_back(streamKernel(i, warmup, tag));
    req.sweep = driver::SweepSpec::defaults(arch::GpuSpec::gtx285());
    return req;
}

bool
Generator::coldIsWhale(uint64_t i) const
{
    return slotOf(i, false).first == kSpmvEll;
}

api::AnalysisRequest
Generator::warmPopulate() const
{
    api::AnalysisRequest req = requestShell("warm-populate", variantSpecs());
    for (size_t k = 0; k < kFixedShapes; ++k)
        req.kernels.push_back(fixedKernel(k, "w" + std::to_string(k), k));
    return req;
}

api::KernelJob
Generator::fixedKernel(size_t shape, const std::string &name,
                       uint64_t salt_key) const
{
    const auto [family, copy] = fixedShape(shape);
    const uint64_t salt =
        hashOf(seed_, static_cast<uint64_t>(workload_), 'J', salt_key);
    return api::KernelJob::fromRef(name + "-" + kFactories[family],
                                   warmCase(family, copy, salt));
}

api::AnalysisRequest
Generator::warm(uint64_t r, bool warmup) const
{
    api::AnalysisRequest req = warmPopulate();
    req.jobName = (warmup ? "warm-warmup-" : "warm-") + std::to_string(r);
    // Grids cycle through a seeded pool, so results overwrite a bounded
    // set of store entries: creating files in an ever-growing directory
    // runs up to 3x faster or slower from one directory to the next on
    // ext4, and that, not gpuperf, would set the run's speed.
    Rng rng(hashOf(seed_, static_cast<uint64_t>(workload_), 'G',
                   r % kWarmGrids));
    // Measured grids draw 14 warp targets and 15 coalescing fractions
    // from a fixed menu; the warm-up evaluates the whole menu, so every
    // synthetic global-memory benchmark a measured grid can need is in
    // the store before timing starts (otherwise the first seconds of a
    // run fill that memo and the run's speed depends on the draw).
    constexpr int kWarps = 32, kFractions = 16;
    req.sweep.noBankConflicts = true;
    for (int w : pickDistinct(rng, kWarps, warmup ? kWarps : 14))
        req.sweep.warpsPerSm.push_back(w);
    for (int k : pickDistinct(rng, kFractions, warmup ? kFractions : 15))
        req.sweep.coalescingFractions.push_back(double(k) / kFractions);
    req.store.reuseStoredResults = false;
    return req;
}

std::vector<api::AnalysisRequest>
Generator::servePool() const
{
    constexpr uint64_t kPool = 32;
    std::vector<api::AnalysisRequest> pool;
    for (uint64_t p = 0; p < kPool; ++p) {
        api::AnalysisRequest req = requestShell(
            "serve-" + std::to_string(p), {arch::GpuSpec::gtx285()});
        // The fixed shapes, like warm-whatif's: 64 kernels drawn from the
        // full spaces would move the pool's cost and model error with
        // the seed.
        for (uint64_t i = 2 * p; i < 2 * p + 2; ++i) {
            req.kernels.push_back(
                fixedKernel(i % kFixedShapes, "s" + std::to_string(i), i));
        }
        Rng rng(hashOf(seed_, static_cast<uint64_t>(workload_), 'S', p));
        req.sweep.noBankConflicts = true;
        for (int w : pickDistinct(rng, 32, 2))
            req.sweep.warpsPerSm.push_back(w);
        req.sweep.coalescingFractions.push_back(
            pickDistinct(rng, 64, 1)[0] / 64.0);
        req.exec.numThreads = 1;
        pool.push_back(std::move(req));
    }
    return pool;
}

size_t
Generator::servePick(int conn, uint64_t k) const
{
    // Each connection cycles through the whole pool in a fresh seeded
    // order every 32 requests, so every prefix hits the pool evenly.
    std::array<size_t, 32> order;
    std::iota(order.begin(), order.end(), 0);
    Rng rng(hashOf(seed_, static_cast<uint64_t>(workload_), 'P',
                   static_cast<uint64_t>(conn), k / 32));
    for (size_t m = order.size() - 1; m > 0; --m)
        std::swap(order[m], order[rng.nextBelow(m + 1)]);
    return order[k % 32];
}

api::AnalysisRequest
Generator::fleetBulk(uint64_t r, bool warmup) const
{
    const std::string tag = warmup ? "bulk-warmup-" : "bulk-";
    api::AnalysisRequest req =
        requestShell(tag + std::to_string(r), {arch::GpuSpec::gtx285()});
    for (uint64_t i = 8 * r; i < 8 * r + 8; ++i)
        req.kernels.push_back(streamKernel(i, warmup, tag));
    req.sweep = driver::SweepSpec::defaults(arch::GpuSpec::gtx285());
    req.exec.numThreads = 1;
    req.clientId = "bulk";
    return req;
}

uint64_t
Generator::fleetBulkCapacity() const
{
    return coldCapacity() / 8;
}

api::AnalysisRequest
Generator::fleetInteractive(uint64_t r, bool warmup) const
{
    const std::string tag = warmup ? "interactive-warmup-" : "interactive-";
    api::AnalysisRequest req =
        requestShell(tag + std::to_string(r), {arch::GpuSpec::gtx285()});
    // A small saxpy (16 to 31 blocks); its factor a makes it new.
    const uint64_t instance = warmup ? capacity(kSaxpy) - 1 - r : r;
    const int64_t grid =
        16 + static_cast<int64_t>(walk(kNumFamilies, 16, instance));
    req.kernels.push_back(api::KernelJob::fromRef(
        tag + std::to_string(r) + "-saxpy",
        api::CaseRef{"saxpy", {grid, 128}, {saxpyFactor(instance)}}));
    req.sweep = driver::SweepSpec::defaults(arch::GpuSpec::gtx285());
    req.exec.numThreads = 1;
    req.clientId = "interactive";
    return req;
}

uint64_t
Generator::fleetInteractiveCapacity() const
{
    return capacity(kSaxpy) - 7 * kWarmupBlocks;
}

} // namespace perfbench
} // namespace gpuperf
