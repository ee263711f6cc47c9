/**
 * @file
 * The benchmark's four workloads and the seeded generator of their
 * requests. gpuperf only ever receives the generated requests; the
 * seed decides every kernel, parameter and sweep grid, so one seed
 * always yields byte-identical request streams.
 *
 * Kernels come from the seven registry families in stratified blocks:
 * every block of seven consecutive kernels holds each family once, in
 * a seeded order (saxpy-strided, whose shapes are scarce, gives every
 * other slot to a second saxpy). Instance c of a family maps
 * injectively onto the family's parameter space through a
 * low-discrepancy walk, so no kernel repeats within a stream and any
 * prefix of the stream covers each family's sizes evenly. That keeps
 * the cost mix of a run the same from seed to seed while the kernels
 * themselves differ. warm-whatif and serve-repeat, whose inputs are a
 * few kernels repeated, use 16 fixed shapes instead.
 */

#ifndef GPUPERF_BENCH_GPUPERF_WORKLOADS_H
#define GPUPERF_BENCH_GPUPERF_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/request.h"

namespace gpuperf {
namespace perfbench {

enum class Workload
{
    kColdAnalyze,
    kWarmWhatif,
    kServeRepeat,
    kFleetMixed,
};

const char *workloadName(Workload w);
/** False when @p name names no workload. */
bool parseWorkload(const std::string &name, Workload *out);
std::vector<Workload> allWorkloads();

/** The three GTX 285 variants sharing one funcsim fingerprint. */
std::vector<arch::GpuSpec> variantSpecs();

/**
 * Blocks of seven kernels a stream's warm-up may use. Warm-up kernels
 * come from the top of each family's space, measured ones from the
 * bottom, so measured kernels are never warm.
 */
constexpr uint64_t kWarmupBlocks = 2;

/** warm-whatif's sweep grids cycle through this many seeded grids. */
constexpr uint64_t kWarmGrids = 64;

class Generator
{
  public:
    Generator(uint64_t seed, Workload workload);

    // --- cold-analyze ---------------------------------------------------
    /** Request @p i (or warm-up request @p i): 1 new kernel x 3 specs. */
    api::AnalysisRequest cold(uint64_t i, bool warmup = false) const;
    /** Requests before the cold stream would repeat a kernel. */
    uint64_t coldCapacity() const;
    /** True when cold request @p i carries an spmv-ell whale. */
    bool coldIsWhale(uint64_t i) const;

    // --- warm-whatif ----------------------------------------------------
    /** The 16 kernels x 3 specs, empty sweep: profiled during setup. */
    api::AnalysisRequest warmPopulate() const;
    /**
     * Request @p r: the same cells under seeded 30-point grid
     * r % kWarmGrids (the warm-up's grid holds every point the pool
     * draws from).
     */
    api::AnalysisRequest warm(uint64_t r, bool warmup = false) const;

    // --- serve-repeat ---------------------------------------------------
    /** The fixed pool: 32 requests of 2 fixed-shape kernels x gtx285. */
    std::vector<api::AnalysisRequest> servePool() const;
    /** Pool index of connection @p conn's @p k-th request. */
    size_t servePick(int conn, uint64_t k) const;

    // --- fleet-mixed ----------------------------------------------------
    /** Bulk request @p r: 8 new kernels (whales included) x gtx285. */
    api::AnalysisRequest fleetBulk(uint64_t r, bool warmup = false) const;
    uint64_t fleetBulkCapacity() const;
    /** Interactive request @p r: 1 new small kernel x gtx285. */
    api::AnalysisRequest fleetInteractive(uint64_t r,
                                          bool warmup = false) const;
    uint64_t fleetInteractiveCapacity() const;

  private:
    /** Family and family instance of kernel @p i of the stream. */
    std::pair<size_t, uint64_t> slotOf(uint64_t i, bool warmup) const;
    /** Kernel @p i of the stratified stream (whales for spmv-ell). */
    api::KernelJob streamKernel(uint64_t i, bool warmup,
                                const std::string &prefix) const;
    /** Shape of @p instance in an n-shape space: a seeded golden walk. */
    uint64_t walk(uint64_t key, uint64_t n, uint64_t instance) const;
    /** Fixed shape @p shape, its saxpy factor salted by @p salt_key. */
    api::KernelJob fixedKernel(size_t shape, const std::string &name,
                               uint64_t salt_key) const;

    uint64_t seed_;
    Workload workload_;
};

} // namespace perfbench
} // namespace gpuperf

#endif // GPUPERF_BENCH_GPUPERF_WORKLOADS_H
