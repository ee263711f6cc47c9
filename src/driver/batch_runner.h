/**
 * @file
 * Concurrent batch analysis: evaluate N kernel cases against M GpuSpec
 * variants (N x M full Figure-1 workflows plus an optional what-if
 * sweep each) as an explicit per-batch TASK GRAPH on a thread pool.
 *
 * The paper's Figure-1 workflow is a dependency graph — calibration
 * and functional simulation feed timing replay, which feeds
 * extraction, prediction and what-if sweeps — and the runner builds
 * exactly that graph per batch (common/task_graph.h) instead of
 * executing each cell as one opaque task:
 *
 *  - one calibrate(spec) and one benchMemo(spec) node per distinct
 *    spec fingerprint, so the expensive microbenchmark sweep runs at
 *    most once per machine description — and, with a store, at most
 *    once ACROSS cooperating processes (the CalibrationStore lease);
 *  - one prepare(case, funcsim fp) node running the case's factory
 *    once — producing the profile key every sibling cell shares and
 *    capturing a factory error once for all of them. With a store, a
 *    case that carries an identity (KernelCase::identity; every
 *    registry ref does) has its key remembered by the runner, so an
 *    exact repeat (same identity and name) runs no factory at all: a
 *    warm cell is then one
 *    result-store read, and a cell that misses takes the profile
 *    node's usual path (profile-store load, else a factory rebuild
 *    checked against the remembered key);
 *  - one profile(case, funcsim fp) node per needed profile, so an
 *    N x M batch runs N functional simulations instead of N x M (the
 *    paper's Section 5 what-if studies, which reuse one Barra run per
 *    application across model variants) — created LAZILY: cells
 *    served warm from the result store never materialize their
 *    simulation nodes at all;
 *  - one timing(profile key, timing fp) node per needed replay;
 *  - one cell(case, spec) node per batch cell, delivering its result
 *    the moment it finishes;
 *  - dedicated writer nodes for store persistence, so disk I/O never
 *    sits on a cell's latency path.
 *
 * No worker ever blocks on an unfinished dependency — a node is
 * scheduled only when its inputs exist, so every worker always runs
 * ready work. Ready nodes start in the order they became ready (the
 * pool's one FIFO queue); scheduling policies (`?sched=`) order the
 * fleet dispatcher's queue, never this graph.
 *
 * With Options::storeDir set, profiles, calibrations, timings and
 * finished results persist on disk, so repeated batch runs skip
 * functional simulation and calibration across process restarts
 * (src/store/).
 *
 * Every evaluation owns its session, so runs are independent and the
 * result of a batch is bit-identical to the serial per-cell reference
 * (tests/reference_pipeline.h: every cell re-simulated and replayed
 * from a fresh launch) regardless of the worker count, store warmth,
 * or delivery mode (run() vs runStream()).
 */

#ifndef GPUPERF_DRIVER_BATCH_RUNNER_H
#define GPUPERF_DRIVER_BATCH_RUNNER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/once_map.h"
#include "common/thread_pool.h"
#include "driver/sweep.h"
#include "funcsim/profile.h"
#include "model/session.h"
#include "store/lease.h"
#include "store/stats.h"

namespace gpuperf {

namespace store {
class CalibrationStore;
class ProfileStore;
class ResultStore;
class TimingStore;
} // namespace store

namespace driver {

/** A kernel launch ready to execute, with its own memory image. */
struct PreparedLaunch
{
    explicit PreparedLaunch(isa::Kernel k) : kernel(std::move(k)) {}

    isa::Kernel kernel;
    funcsim::LaunchConfig cfg;
    std::unique_ptr<funcsim::GlobalMemory> gmem;
    funcsim::RunOptions options{};
};

/**
 * A named, repeatable kernel case. make() is invoked once per
 * evaluation (each spec variant gets a fresh memory image) and may run
 * on any worker thread concurrently with other cases' factories, so it
 * must not touch shared mutable state.
 */
struct KernelCase
{
    std::string name;
    std::function<PreparedLaunch()> make;
    /**
     * Optional promise that make() is a pure function of this string
     * and name: cases with equal names and equal non-empty identities
     * build equal launches, whenever they are built. A runner with a
     * store remembers the profile key of an identified case, so
     * repeating it builds no launch. Empty (the default, and every
     * inline launch) promises nothing, and the factory runs on every
     * evaluation.
     */
    std::string identity{};
};

/** Outcome of one kernel case on one spec variant. */
struct BatchResult
{
    std::string kernelName;
    std::string specName;

    bool ok = false;
    /** What went wrong when !ok (factory or analysis threw). */
    std::string error;

    model::Analysis analysis;
    /** Sweep results, best predicted speedup first (empty sweep ok). */
    std::vector<RankedWhatIf> whatifs;

    /** Best predicted sweep speedup, or 1.0 with no sweep points. */
    double bestSpeedup() const
    {
        return whatifs.empty() ? 1.0 : whatifs.front().speedup();
    }
};

/** Runs batches of analyses on a worker pool. */
class BatchRunner
{
  public:
    /**
     * Remembered (case identity, name, funcsim fingerprint) profile
     * keys held before a new one clears them all; a cleared case runs
     * its factory once more on its next evaluation.
     */
    static constexpr size_t kMaxRememberedKeys = size_t{1} << 12;

    struct Options
    {
        /** Worker threads; 0 = one per hardware thread. */
        int numThreads = 0;
        /**
         * Root of the persistent binary store ("" = disabled).
         * Profiles, calibration tables, timing replays and finished
         * results are kept in subdirectories and reused across
         * process restarts; stale entries (key or format-version
         * mismatch) are recomputed, never served.
         */
        std::string storeDir;
        /**
         * With storeDir set, serve finished cells straight from the
         * result store (skipping timing, extraction, prediction and
         * sweep as well). Results remain bit-identical. Finished
         * cells are always persisted when a store is configured;
         * this switch only gates serving them back.
         */
        bool reuseStoredResults = true;
        /**
         * Timing replay engine for every session and standalone
         * replay this runner creates. The engines are bit-identical
         * by contract, so this never changes results — only the
         * replay loop producing them.
         */
        timing::ReplayEngine engine =
            timing::ReplayEngine::kEventDriven;
    };

    BatchRunner(); ///< default Options
    explicit BatchRunner(Options options);
    ~BatchRunner();

    /**
     * Calibration tables for @p spec, running the microbenchmark
     * sweep at most once per distinct spec (memoized under a mutex;
     * safe to call from any thread).
     */
    std::shared_ptr<const model::CalibrationTables>
    calibrationFor(const arch::GpuSpec &spec);

    /**
     * Pre-seed the calibration memo for @p spec with existing tables
     * (e.g. loaded from disk, or injected by tests), so no
     * microbenchmark sweep runs for it. Call before run() /
     * calibrationFor() for the same spec: adopting while a
     * calibration for that spec is already in flight leaves the two
     * callers with different table objects.
     */
    void adoptCalibration(
        const arch::GpuSpec &spec,
        std::shared_ptr<const model::CalibrationTables> tables);

    /**
     * Evaluate every kernel case on every spec variant, applying
     * @p sweep to each analysis. Results arrive in deterministic
     * kernel-major order (kernels[0] x specs[0..M-1], then
     * kernels[1] x ..., independent of the worker count). A case
     * whose factory or analysis throws — or whose spec's calibration
     * fails — yields ok == false with the error message; it never
     * aborts the rest of the batch. Implemented as a
     * collect-and-reorder wrapper over runStream().
     */
    std::vector<BatchResult>
    run(const std::vector<KernelCase> &kernels,
        const std::vector<arch::GpuSpec> &specs,
        const SweepSpec &sweep = SweepSpec{});

    /**
     * Invoked once per finished cell, in COMPLETION order.
     * @p index is the cell's kernel-major position
     * (ki * specs.size() + si) — what run() uses to reorder.
     * Invocations are serialized (the callback needs no locking of
     * its own) and happen on worker threads while the rest of the
     * batch is still executing; a slow callback therefore delays
     * later deliveries, not the analyses themselves.
     */
    using ResultCallback =
        std::function<void(size_t index, BatchResult result)>;

    /** What a runStream() call observed (drives gates and benches). */
    struct StreamStats
    {
        /** Cells delivered (kernels x specs). */
        size_t cells = 0;
        /** Seconds from entry to the FIRST onResult invocation. */
        double firstResultSeconds = 0.0;
        /**
         * Seconds from entry until the last calibrate(spec) node
         * finished. Streaming's point in one number:
         * firstResultSeconds < lastCalibrationSeconds on any batch
         * whose specs calibrate at different speeds — early cells
         * flow out while the slowest calibration still runs.
         */
        double lastCalibrationSeconds = 0.0;
        /** Seconds from entry until every node (writers too) drained. */
        double totalSeconds = 0.0;
    };

    /**
     * The streaming form of run(): identical evaluations (results are
     * bit-identical, pinned by tests), but each finished cell is
     * handed to @p onResult immediately, in completion order, instead
     * of parking until the whole batch drains. If @p onResult throws,
     * its first exception is captured, delivery of later results is
     * abandoned (the batch itself still completes, including store
     * writes), and the exception is rethrown from runStream() after
     * the graph drains.
     */
    StreamStats
    runStream(const std::vector<KernelCase> &kernels,
              const std::vector<arch::GpuSpec> &specs,
              const SweepSpec &sweep, const ResultCallback &onResult);

    /**
     * Shared synthetic-benchmark memo for a spec (memoized like
     * calibrations). With a store configured, a fresh memo is
     * pre-seeded from the persisted benchmark results, so a warm
     * process re-measures nothing.
     */
    std::shared_ptr<model::GlobalBenchMemo>
    benchMemoFor(const arch::GpuSpec &spec);

    int numThreads() const { return pool_.numThreads(); }

    /**
     * Microbenchmark sweeps this runner actually ran (as opposed to
     * serving from memo, store, or another process's lease-guarded
     * sweep). Cross-process sharding tests pin "at most one sweep per
     * spec between cooperating processes" on this.
     */
    uint64_t calibrationsComputed() const
    {
        return calibrationsComputed_.load();
    }

    /**
     * Functional simulations this runner actually ran (as opposed to
     * serving from the profile store or another process's
     * lease-guarded funcsim).
     */
    uint64_t funcsimsComputed() const
    {
        return funcsimsComputed_.load();
    }

    /**
     * Timing replays this runner actually ran (as opposed to serving
     * from the in-memory memo, the timing store, or another process's
     * lease-guarded replay).
     */
    uint64_t timingsComputed() const
    {
        return timingsComputed_.load();
    }

    /** The persistent stores (null when storeDir is unset). */
    const store::ProfileStore *profileStore() const
    {
        return profileStore_.get();
    }
    const store::CalibrationStore *calibrationStore() const
    {
        return calibrationStore_.get();
    }
    const store::ResultStore *resultStore() const
    {
        return resultStore_.get();
    }
    const store::TimingStore *timingStore() const
    {
        return timingStore_.get();
    }

    /**
     * The four stores' cache-health counters side by side (all zero
     * when storeDir is unset) — what this executor did to the shared
     * store: hit/miss traffic, bytes moved, publishes, lease steals.
     */
    store::StoreLayerStats storeStats() const;

  private:
    /** Memoization key: the spec's full fingerprint. */
    static std::string specKey(const arch::GpuSpec &spec);

    /**
     * Produce tables for @p spec: store hit, or the microbenchmark
     * sweep under the spec's cross-process lease — while another
     * process holds the lease, this one polls for the published entry
     * instead of duplicating the sweep (no memoization here;
     * calibrationFor() wraps it in the OnceMap).
     */
    std::shared_ptr<const model::CalibrationTables>
    calibrate(const arch::GpuSpec &spec);

    /** The sweep itself, unconditionally (counts the run). */
    std::shared_ptr<const model::CalibrationTables>
    runCalibration(const arch::GpuSpec &spec);

    /**
     * The timing memo: serve (profile key, timing fp) from memory or
     * the timing store, replaying on a full miss — in memory across
     * the runner's lifetime and, with a store, on disk across
     * processes — WITHOUT persisting a fresh replay. @p computed
     * reports whether this call replayed; the caller hands
     * persistence to a writer node. When this call replayed under a
     * store, @p lease_out carries the replay's held in-flight lease —
     * the caller releases it AFTER saving, so waiting processes load
     * the entry instead of re-replaying.
     */
    std::shared_ptr<const timing::TimingResult>
    timingCompute(
        const std::shared_ptr<const funcsim::KernelProfile> &profile,
        const arch::GpuSpec &spec, bool *computed,
        std::shared_ptr<store::Lease> *lease_out);

    /**
     * Serve @p key's profile from the store, waiting out another
     * process's in-flight funcsim via the profile lease. Returns the
     * loaded profile, or nullptr when the caller should simulate —
     * in which case *@p lease (when a store is configured) holds the
     * key's lease, to be released after the save. Without a store,
     * returns nullptr immediately.
     */
    std::shared_ptr<const funcsim::KernelProfile>
    profileAwait(const funcsim::ProfileKey &key, store::Lease *lease);

    /** The key remembered under @p memo_key, if any. */
    bool recallProfileKey(const std::string &memo_key,
                          funcsim::ProfileKey *key);

    /** Remember @p key, clearing the memo when it is full. */
    void rememberProfileKey(const std::string &memo_key,
                            const funcsim::ProfileKey &key);

    Options options_;
    ThreadPool pool_;

    std::atomic<uint64_t> calibrationsComputed_{0};
    std::atomic<uint64_t> funcsimsComputed_{0};
    std::atomic<uint64_t> timingsComputed_{0};

    std::unique_ptr<store::ProfileStore> profileStore_;
    std::unique_ptr<store::CalibrationStore> calibrationStore_;
    std::unique_ptr<store::ResultStore> resultStore_;
    std::unique_ptr<store::TimingStore> timingStore_;

    /**
     * Compute-once per spec key: the first caller for a key
     * calibrates, later callers (and other threads) wait on its
     * result; distinct keys calibrate concurrently.
     */
    OnceMap<std::string,
            std::shared_ptr<const model::CalibrationTables>>
        calibrations_;
    OnceMap<std::string, std::shared_ptr<model::GlobalBenchMemo>>
        benchMemos_;
    /**
     * Timing memo, keyed by content — (profile key, timing
     * fingerprint) — not by batch position, so it safely spans run()
     * calls and case lists for the runner's lifetime.
     */
    OnceMap<std::string, std::shared_ptr<const timing::TimingResult>>
        timings_;
    /**
     * Profile keys of identified cases, by (identity, name, funcsim
     * fingerprint); filled and read only with a store configured, and
     * bounded by kMaxRememberedKeys.
     */
    std::mutex rememberedMutex_;
    std::unordered_map<std::string, funcsim::ProfileKey> remembered_;
};

} // namespace driver
} // namespace gpuperf

#endif // GPUPERF_DRIVER_BATCH_RUNNER_H
