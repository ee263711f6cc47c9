#include "api/registry.h"

#include <cstdio>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>

#include "driver/demo_cases.h"

namespace gpuperf {
namespace api {

namespace {

struct Registry
{
    std::mutex mutex;
    std::map<std::string, CaseFactory> factories;
    /**
     * Times each name was registered through registerCase(); absent
     * (generation 0) for a built-in never replaced.
     */
    std::map<std::string, uint64_t> generations;
};

/**
 * The identity materializeJob() gives a ref's case: an exact encoding
 * of the factory name, its registration @p generation, every integer
 * argument and the bits of every float argument (so 0.0 and -0.0, or
 * two NaN payloads, stay apart). Distinct refs never share one, and a
 * re-registered factory's cases never share the old factory's.
 */
std::string
caseIdentity(const CaseRef &ref, uint64_t generation)
{
    std::string id = std::to_string(ref.factory.size()) + ":" +
                     ref.factory + "|g" + std::to_string(generation) +
                     "|i";
    for (int64_t a : ref.iargs)
        id += std::to_string(a) + ",";
    id += "|f";
    for (double a : ref.fargs) {
        uint64_t bits;
        std::memcpy(&bits, &a, sizeof(bits));
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx,",
                      static_cast<unsigned long long>(bits));
        id += buf;
    }
    return id;
}

/** Argument accessors that turn mistakes into cell failures. */
int64_t
iarg(const CaseRef &ref, size_t index, int64_t fallback,
     size_t required)
{
    if (index < ref.iargs.size())
        return ref.iargs[index];
    if (index < required) {
        throw std::runtime_error(
            "case ref '" + ref.factory + "' needs at least " +
            std::to_string(required) + " integer argument(s), got " +
            std::to_string(ref.iargs.size()));
    }
    return fallback;
}

double
farg(const CaseRef &ref, size_t index, double fallback)
{
    return index < ref.fargs.size() ? ref.fargs[index] : fallback;
}

int
narrow(int64_t v, const char *what)
{
    if (v < -(1ll << 30) || v > (1ll << 30))
        throw std::runtime_error(std::string(what) +
                                 " argument out of range");
    return static_cast<int>(v);
}

/**
 * Wire-input validation: the demo factories enforce these with
 * GPUPERF_ASSERT (a process abort) or int arithmetic that assumes
 * sane sizes; a malformed ref from the wire must instead fail its
 * cell, so re-check here — in 64-bit math, products included — and
 * throw.
 */
void
requirePositive(int64_t v, const char *what)
{
    if (v <= 0)
        throw std::runtime_error(std::string(what) +
                                 " must be positive");
}

void
requirePowerOfTwo(int64_t v, const char *what)
{
    if (v <= 0 || (v & (v - 1)) != 0)
        throw std::runtime_error(std::string(what) +
                                 " must be a power of two");
}

/**
 * Cap a launch (or matrix) size product: keeps the factories' int
 * arithmetic far from overflow and a hostile ref from requesting a
 * multi-GB image. 2^26 threads is ~50x the largest demo launch.
 */
void
requireSaneProduct(int64_t a, int64_t b, const char *what)
{
    if (a * b > (int64_t{1} << 26))
        throw std::runtime_error(std::string(what) +
                                 " is unreasonably large");
}

bool
flag(int64_t v, const char *what)
{
    if (v != 0 && v != 1)
        throw std::runtime_error(std::string(what) + " must be 0 or 1");
    return v == 1;
}

void
registerBuiltinCases(Registry &r)
{
    // Demo workloads, keyed by family. Integer args lead with the
    // launch shape; the factories validate the rest (power-of-two
    // strides etc.) and throw std::runtime_error-compatible errors
    // via GPUPERF_ASSERT-free explicit checks below.
    r.factories["saxpy"] = [](const CaseRef &ref,
                              const std::string &name) {
        const int grid = narrow(iarg(ref, 0, 0, 2), "grid");
        const int block = narrow(iarg(ref, 1, 0, 2), "block");
        requirePositive(grid, "grid");
        requirePositive(block, "block");
        requireSaneProduct(grid, block, "grid * block");
        return driver::makeSaxpyCase(
            name, grid, block, static_cast<float>(farg(ref, 0, 2.0)));
    };
    r.factories["saxpy-strided"] = [](const CaseRef &ref,
                                      const std::string &name) {
        const int grid = narrow(iarg(ref, 0, 0, 3), "grid");
        const int block = narrow(iarg(ref, 1, 0, 3), "block");
        const int stride = narrow(iarg(ref, 2, 0, 3), "stride");
        requirePositive(grid, "grid");
        requirePositive(block, "block");
        requireSaneProduct(grid, block, "grid * block");
        requirePowerOfTwo(int64_t{grid} * block, "grid * block");
        requirePowerOfTwo(stride, "stride");
        return driver::makeStridedSaxpyCase(name, grid, block, stride);
    };
    r.factories["shared-conflict"] = [](const CaseRef &ref,
                                        const std::string &name) {
        const int grid = narrow(iarg(ref, 0, 0, 3), "grid");
        const int block = narrow(iarg(ref, 1, 0, 3), "block");
        const int stride = narrow(iarg(ref, 2, 0, 3), "stride");
        const int iters = narrow(iarg(ref, 3, 64, 3), "iterations");
        requirePositive(grid, "grid");
        requirePositive(block, "block");
        requirePositive(stride, "stride");
        requirePositive(iters, "iterations");
        requireSaneProduct(grid, block, "grid * block");
        requireSaneProduct(block, int64_t{stride} * 4,
                           "block * stride (shared bytes)");
        requireSaneProduct(iters, 1, "iterations");
        return driver::makeSharedConflictCase(name, grid, block,
                                              stride, iters);
    };
    r.factories["stencil1d"] = [](const CaseRef &ref,
                                  const std::string &name) {
        const int grid = narrow(iarg(ref, 0, 0, 2), "grid");
        const int block = narrow(iarg(ref, 1, 0, 2), "block");
        requirePositive(grid, "grid");
        requirePositive(block, "block");
        requireSaneProduct(grid, block, "grid * block");
        return driver::makeStencil1dCase(name, grid, block);
    };
    r.factories["reduction"] = [](const CaseRef &ref,
                                  const std::string &name) {
        const int grid = narrow(iarg(ref, 0, 0, 2), "grid");
        const int block = narrow(iarg(ref, 1, 0, 2), "block");
        requirePositive(grid, "grid");
        requirePowerOfTwo(block, "block");
        if (block < 2)
            throw std::runtime_error("block must be at least 2");
        requireSaneProduct(grid, block, "grid * block");
        return driver::makeReductionCase(name, grid, block);
    };
    r.factories["spmv-ell"] = [](const CaseRef &ref,
                                 const std::string &name) {
        const int rows = narrow(iarg(ref, 0, 0, 2), "block-rows");
        const int per_row = narrow(iarg(ref, 1, 0, 2),
                                   "blocks-per-row");
        requirePositive(rows, "block-rows");
        requirePositive(per_row, "blocks-per-row");
        requireSaneProduct(rows, int64_t{per_row} * 9,
                           "block-rows * blocks-per-row (entries)");
        return driver::makeSpmvEllCase(name, rows, per_row);
    };
    r.factories["histogram"] = [](const CaseRef &ref,
                                  const std::string &name) {
        const int grid = narrow(iarg(ref, 0, 0, 3), "grid");
        const int block = narrow(iarg(ref, 1, 0, 3), "block");
        const int bins = narrow(iarg(ref, 2, 0, 3), "bins");
        const int items = narrow(iarg(ref, 3, 8, 3), "items");
        requirePositive(grid, "grid");
        requirePositive(block, "block");
        requirePowerOfTwo(bins, "bins");
        if (bins < 2 || bins > 64 || bins > block)
            throw std::runtime_error(
                "bins must be in [2, 64] and at most block");
        requirePositive(items, "items");
        // Bound the factors before the triple product so the 64-bit
        // check itself cannot overflow.
        requireSaneProduct(grid, block, "grid * block");
        requireSaneProduct(int64_t{grid} * block, items,
                           "grid * block * items");
        requireSaneProduct(block, int64_t{bins} * 4,
                           "block * bins (shared bytes)");
        return driver::makeHistogramCase(name, grid, block, bins,
                                         items);
    };

    // The paper's three case studies (Section 5), at the sizes a ref
    // names; flags are 0 or 1.
    r.factories["gemm"] = [](const CaseRef &ref,
                             const std::string &name) {
        const int size = narrow(iarg(ref, 0, 0, 2), "size");
        const int tile = narrow(iarg(ref, 1, 0, 2), "tile");
        requirePowerOfTwo(size, "size");
        if (size < 64)
            throw std::runtime_error("size must be at least 64");
        if (tile != 8 && tile != 16 && tile != 32)
            throw std::runtime_error("tile must be 8, 16 or 32");
        requireSaneProduct(size, size, "size * size (elements)");
        return driver::makeGemmCase(name, size, tile);
    };
    r.factories["cyclic-reduction"] = [](const CaseRef &ref,
                                         const std::string &name) {
        const int n = narrow(iarg(ref, 0, 0, 2), "n");
        const int systems = narrow(iarg(ref, 1, 0, 2), "systems");
        const bool padded = flag(iarg(ref, 2, 0, 2), "padded");
        const bool forward = flag(iarg(ref, 3, 0, 2), "forward-only");
        requirePowerOfTwo(n, "n");
        // Five n-float arrays per block: beyond 512 equations they
        // outgrow a GT200 SM's 16 KB of shared memory.
        if (n < 4 || n > 512)
            throw std::runtime_error("n must be in [4, 512]");
        if (padded && n % 16 != 0)
            throw std::runtime_error(
                "padding needs n to be a multiple of 16");
        requirePositive(systems, "systems");
        requireSaneProduct(n, systems, "n * systems (equations)");
        return driver::makeCyclicReductionCase(name, n, systems, padded,
                                               forward);
    };
    r.factories["spmv"] = [](const CaseRef &ref,
                             const std::string &name) {
        // Format codes follow apps::SpmvFormat: 0 ELL, 1 BELL,
        // 2 BELL+IM, 3 BELL+IMIV.
        const int64_t format = iarg(ref, 0, 0, 2);
        const int rows = narrow(iarg(ref, 1, 0, 2), "block-rows");
        const bool texture = flag(iarg(ref, 2, 0, 2), "texture");
        if (format < 0 ||
            format > static_cast<int64_t>(apps::SpmvFormat::kBellImIv))
            throw std::runtime_error("unknown SpMV format " +
                                     std::to_string(format));
        if (rows < 13)
            throw std::runtime_error(
                "block-rows must be at least 13 (13 blocks per row)");
        requireSaneProduct(rows, 13 * 9,
                           "block-rows * 117 (entries)");
        return driver::makeSpmvCase(
            name, static_cast<apps::SpmvFormat>(format), rows, texture);
    };
}

Registry &
registry()
{
    static Registry *r = [] {
        auto *fresh = new Registry;
        registerBuiltinCases(*fresh);
        return fresh;
    }();
    return *r;
}

} // namespace

void
registerCase(const std::string &key, CaseFactory factory)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    r.factories[key] = std::move(factory);
    ++r.generations[key];
}

bool
caseRegistered(const std::string &key)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.factories.count(key) != 0;
}

std::vector<std::string>
registeredCases()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::string> names;
    names.reserve(r.factories.size());
    for (const auto &[key, factory] : r.factories) {
        (void)factory;
        names.push_back(key);
    }
    return names;
}

driver::KernelCase
materializeJob(const KernelJob &job)
{
    if (job.isInline()) {
        // The factory copies the captured launch each call, so every
        // evaluation gets a fresh image — and rebuilding hashes to
        // the same profile key every time (the repeatable-factory
        // contract the shared pipeline requires).
        auto inlined = job.inlined;
        driver::KernelCase kc;
        kc.name = job.name;
        kc.make = [inlined]() {
            driver::PreparedLaunch launch(inlined->kernel);
            launch.cfg = inlined->cfg;
            launch.options = inlined->options;
            launch.gmem = inlined->rebuildMemory();
            return launch;
        };
        return kc;
    }
    CaseFactory factory;
    std::string identity;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mutex);
        const auto it = r.factories.find(job.ref.factory);
        if (it != r.factories.end()) {
            factory = it->second;
            const auto gen = r.generations.find(job.ref.factory);
            identity = caseIdentity(
                job.ref, gen == r.generations.end() ? 0 : gen->second);
        }
    }
    if (!factory) {
        throw std::runtime_error("unknown case factory '" +
                                 job.ref.factory +
                                 "' (register it with "
                                 "api::registerCase)");
    }
    driver::KernelCase kc = factory(job.ref, job.name);
    kc.identity = std::move(identity);
    return kc;
}

} // namespace api
} // namespace gpuperf
