/**
 * @file
 * The event-driven replay engine (the default).
 *
 * The legacy engine re-derives every live warp's earliest issue time
 * from scratch for each issued operation — O(live warps) per issue,
 * and the dominant cost of a replay at high occupancy (32 resident
 * warps per SM). This engine exploits two invariants of the machine
 * model to make selection O(log warps):
 *
 *  1. A warp's *dependency readiness* — the max of its in-order
 *     ready time, its source registers' ready times and (for
 *     shared-memory traffic) its per-warp pass limit — is fixed from
 *     the moment its current op becomes current until that op issues:
 *     registers, sharedNext and inorderReady are only written by the
 *     warp's own issues and by barrier releases, both of which
 *     re-prepare the op. It can therefore be computed once and used
 *     as a stable heap key.
 *
 *  2. The remaining constraints are SM-wide busy clocks that depend
 *     only on the *unit class* of the op: pure arithmetic
 *     (issue+arith), arithmetic with a shared operand
 *     (issue+arith+shared), shared memory (issue+shared), and memory
 *     port ops (issue only). A warp's earliest issue time is
 *     max(readiness, classBusy), so the per-class minimum over warps
 *     is max(classBusy, min readiness) — four heap peeks.
 *
 * Structure per SM: one pending 4-ary min-heap per class keyed by
 * readiness, and one ready bitmask per class over live-list
 * positions. An op whose readiness is already within its class's busy
 * clock enters the ready mask directly (the common case for
 * back-to-back instruction streams); a warp moves from pending to
 * ready only when its readiness falls at or below its class's busy
 * clock — from then on its issue time IS the busy clock (which only
 * grows), so membership stays valid for the rest of the op's life and
 * stalled warps drain in batches, at most once per op. Warps whose
 * readiness exactly equals the candidate time while exceeding their
 * class's busy clock (dependency-bound ties) are enumerated in place
 * by a read-only heap-prefix walk; heap entries carry the warp's op
 * epoch so an entry orphaned by a tie issue is skipped lazily. The
 * legacy round-robin tie-break — first warp in scan order (rr + k) %
 * n among those issuable at the candidate time — becomes a circular
 * first-set-bit query over the union of the participating ready
 * masks and the tie walk; that union provably equals the legacy
 * scan's arg-min set, which is what makes the two engines
 * bit-identical (pinned by tests/test_timing_engine.cc).
 *
 * Across SMs, per-SM candidates are cached (they depend only on
 * SM-local state) and ordered by a tournament winner tree whose only
 * per-issue cost is one root-path replay — replacing the global
 * priority queue's push + pop pair.
 *
 * Barrier arrivals, which the legacy engine performs as side effects
 * of the candidate scan, happen eagerly here the moment a warp's
 * current op becomes a barrier; completed blocks queue on a per-SM
 * release list processed after the triggering event. The state each
 * release reads (members' in-order and shared-drain times) is only
 * written by issues, so eager processing observes exactly what the
 * legacy engine's next scan would have observed.
 *
 * Cluster-symmetric launches replay one cluster. Clusters share
 * nothing but the global block queue: each owns its memory port and
 * texture cache, and an SM's issue times depend only on SM-local
 * state. When clusterSymmetric() holds —
 *
 *  1. the machine has more than one cluster,
 *  2. the grid is a whole multiple of numSms with at most
 *     residentBlocks blocks per SM, so the round-robin placement gives
 *     every SM the same number of blocks at time 0 and no block is
 *     ever pulled from the queue later, and
 *  3. every block lists block 0's warp traces and none is empty (an
 *     all-empty block would free its slot and pull the next block) —
 *
 * every cluster starts from the same state and touches nothing of the
 * others', so each replays cluster 0's events at the same times. The
 * engine then replays cluster 0 alone: its end time is the launch's,
 * and operation and texture counts scale by the cluster count. The
 * busy-cycle sums are floating point, so their order matters: the full
 * replay issues in (time, SM index) order, which at each issue time
 * visits cluster 0's issuing SMs, then cluster 1's same SMs, and so
 * on. BusySum holds one issue time's increments and adds them
 * cluster-count times in a row, so every TimingResult field stays
 * bit-identical to the full replay (pinned against the legacy engine,
 * which always replays every SM, by tests/test_timing_engine.cc).
 */

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "arch/instr_class.h"
#include "common/logging.h"
#include "timing/replay_engine.h"
#include "timing/texture_cache.h"

namespace gpuperf {
namespace timing {
namespace detail {

namespace {

using funcsim::LaunchTrace;
using funcsim::TraceOp;
using funcsim::WarpTrace;
using isa::UnitKind;

constexpr double kInf = 1e300;

/** Unit classes sharing one set of SM-wide busy constraints. */
enum WarpClass : int
{
    kClassArith = 0,        ///< arith, no shared operand
    kClassArithShared = 1,  ///< arith with shared-memory passes
    kClassShared = 2,       ///< LDS/STS
    kClassMem = 3,          ///< global/texture port ops
};
constexpr int kNumClasses = 4;

/** Mutable replay state of one resident warp. */
struct WarpCtx
{
    const WarpTrace *trace = nullptr;
    size_t opIdx = 0;
    double inorderReady = 0.0;  ///< earliest issue time of the next op
    double drainTime = 0.0;     ///< all issued results available
    double lastIssue = 0.0;
    double sharedNext = 0.0;    ///< per-warp shared-pass rate limit
    /** Completion time of the warp's shared-memory stores; barriers
     *  wait for these (but not for in-flight global loads). */
    double sharedDrain = 0.0;
    std::vector<double> regReady;  ///< index = register + 1
    bool done = false;
    bool arrived = false;       ///< waiting at a barrier

    // --- Event-driven bookkeeping -------------------------------------
    /** Unit class of the current op. */
    int cls = kClassMem;
    /** Position in SmCtx::live, -1 once removed. */
    int livePos = -1;
    /** In the class ready mask (drained from pending). */
    bool inReadyMask = false;
    /**
     * Bumped whenever the warp's current op advances; a pending-heap
     * entry with a stale epoch refers to an already-issued op and is
     * discarded lazily.
     */
    uint32_t epoch = 0;

    int blockSlot = -1;
};

/** A resident block. */
struct BlockCtx
{
    std::vector<int> warps;   ///< warp slot indices
    int arrivedCount = 0;
    int doneCount = 0;
};

/** Cluster-level memory pipeline state. */
struct ClusterCtx
{
    double portBusy = 0.0;
    TextureCache *tex = nullptr;
};

/**
 * A busy-cycle total summed in the full replay's order. A full replay
 * adds each increment as it issues. A one-cluster replay standing for
 * @c copies clusters holds the current issue time's increments, and
 * endStep() adds them @c copies times in a row (see the file comment).
 */
class BusySum
{
  public:
    void setCopies(int copies) { copies_ = copies; }

    void add(double cycles)
    {
        if (copies_ == 1)
            total_ += cycles;
        else
            step_.push_back(cycles);
    }

    void endStep()
    {
        for (int c = 0; c < copies_; ++c) {
            for (double cycles : step_)
                total_ += cycles;
        }
        step_.clear();
    }

    double total() const { return total_; }

  private:
    int copies_ = 1;
    double total_ = 0.0;
    std::vector<double> step_;
};

/** The kernel's occupancy on @p spec, from the trace's resources. */
arch::Occupancy
occupancyOf(const arch::GpuSpec &spec, const LaunchTrace &trace)
{
    arch::KernelResources res;
    res.registersPerThread = trace.registersPerThread;
    res.sharedBytesPerBlock = trace.sharedBytesPerBlock;
    res.threadsPerBlock = trace.blockDim;
    return arch::computeOccupancy(spec, res);
}

/** Set a bit in a position mask, growing it as needed. */
inline void
maskSet(std::vector<uint64_t> &mask, int pos)
{
    const size_t word = static_cast<size_t>(pos) >> 6;
    if (word >= mask.size())
        mask.resize(word + 1, 0);
    mask[word] |= uint64_t{1} << (pos & 63);
}

inline void
maskClear(std::vector<uint64_t> &mask, int pos)
{
    mask[static_cast<size_t>(pos) >> 6] &=
        ~(uint64_t{1} << (pos & 63));
}

/** A pending-heap entry: readiness, warp slot, op epoch. */
struct PendItem
{
    double ready;
    int32_t warp;
    /** Truncated WarpCtx::epoch; 32 bits outlive any trace (the
     *  functional simulator aborts warps beyond maxWarpOps). */
    uint32_t epoch;

    bool operator>(const PendItem &o) const { return ready > o.ready; }
};

/**
 * Open-coded 4-ary array min-heap of pending warps: half the depth
 * of a binary heap over the 24-32 resident warps of a busy SM, with
 * the four children of a node on one cache line. Beyond push/pop, it
 * supports a read-only enumeration of every entry at or below a
 * threshold (the subtree-prefix property of a heap), which is how
 * candidate-time ties are collected without pop/re-push churn.
 */
struct PendHeap
{
    std::vector<PendItem> a;

    bool empty() const { return a.empty(); }
    const PendItem &top() const { return a.front(); }

    void push(const PendItem &v)
    {
        size_t i = a.size();
        a.push_back(v);
        while (i > 0) {
            const size_t parent = (i - 1) >> 2;
            if (a[parent].ready <= v.ready)
                break;
            a[i] = a[parent];
            i = parent;
        }
        a[i] = v;
    }

    void pop()
    {
        const PendItem v = a.back();
        a.pop_back();
        if (a.empty())
            return;
        const size_t n = a.size();
        size_t i = 0;
        while (true) {
            const size_t first = 4 * i + 1;
            if (first >= n)
                break;
            size_t min_child = first;
            const size_t last = std::min(first + 4, n);
            for (size_t c = first + 1; c < last; ++c) {
                if (a[c].ready < a[min_child].ready)
                    min_child = c;
            }
            if (a[min_child].ready >= v.ready)
                break;
            a[i] = a[min_child];
            i = min_child;
        }
        a[i] = v;
    }

    /** Invoke @p f on every entry with ready <= @p threshold. */
    template <typename F>
    void forEachAtMost(double threshold, F &&f) const
    {
        if (!a.empty())
            visit(0, threshold, f);
    }

  private:
    template <typename F>
    void visit(size_t i, double threshold, F &f) const
    {
        if (a[i].ready > threshold)
            return;
        f(a[i]);
        const size_t first = 4 * i + 1;
        const size_t last = std::min(first + 4, a.size());
        for (size_t c = first; c < last; ++c)
            visit(c, threshold, f);
    }
};

/** One streaming multiprocessor. */
struct SmCtx
{
    std::vector<WarpCtx> warps;      // grows; done warps removed from live
    std::vector<int> live;           // indices of non-done warps
    std::vector<BlockCtx> blocks;    // grows over the run
    double arithBusy = 0.0;
    double sharedBusy = 0.0;
    double issueBusy = 0.0;
    /** Issue counter driving the round-robin tie-break; 64-bit so the
     *  position arithmetic stays defined for arbitrarily long runs. */
    int64_t rr = 0;
    int cluster = 0;
    int residentBlocks = 0;

    /** Warps whose readiness lies beyond their class's busy clock;
     *  drained in batches as the busy clocks advance. */
    PendHeap pending[kNumClasses];
    /** Stale entries (tie-issued pending warps) per class heap; when
     *  zero, the top needs no epoch validation. */
    int staleCount[kNumClasses] = {0, 0, 0, 0};
    /** Live-list position masks of drained (busy-bound) warps. */
    std::vector<uint64_t> readyMask[kNumClasses];
    int readyCount[kNumClasses] = {0, 0, 0, 0};

    /** Block slots with a completed barrier awaiting release (FIFO). */
    std::vector<int> releaseQueue;

    /**
     * Cached nextCandidate() result. Per-SM candidates depend only
     * on SM-local state, which no other SM's issue can touch, so the
     * value computed when the SM enters the global heap is still
     * exact when it pops; issuing invalidates it.
     */
    double candT = 0.0;
    int candWarp = -1;
    bool candValid = false;
};

/**
 * Tournament winner tree over the SMs, keyed by (candidate time, SM
 * index) with invalidated candidates at +inf. Replacing the winner's
 * key — the only mutation the replay loop ever performs — costs
 * log2(SMs) compares along one root path, with no element moves; the
 * global priority queue this replaces paid a full push + pop pair per
 * issued operation. The selection order is identical (least candidate
 * time, ties to the lower SM index).
 */
class SmTournament
{
  public:
    /** All keys start at +inf; set() them before relying on winner(). */
    void init(int sms)
    {
        k_ = sms;
        p_ = 1;
        while (p_ < k_)
            p_ <<= 1;
        // Keys live in a dense array of their own so a match compares
        // two adjacent doubles, not fields of two far-apart SmCtx.
        key_.assign(static_cast<size_t>(p_), kInf);
        w_.assign(static_cast<size_t>(2 * p_), -1);
        for (int s = 0; s < k_; ++s)
            w_[p_ + s] = s;
        for (int n = p_ - 1; n >= 1; --n)
            w_[n] = better(w_[2 * n], w_[2 * n + 1]);
    }

    /** Change @p s's key and re-run the matches on its root path. */
    void set(int s, double key)
    {
        key_[s] = key;
        for (int n = (p_ + s) >> 1; n >= 1; n >>= 1)
            w_[n] = better(w_[2 * n], w_[2 * n + 1]);
    }

    /** SM with the least (key, index); -1 when empty. */
    int winner() const { return w_[1]; }

    double winnerKey() const { return w_[1] < 0 ? kInf : key_[w_[1]]; }

  private:
    int better(int a, int b) const
    {
        if (a < 0)
            return b;
        if (b < 0)
            return a;
        const double ta = key_[a];
        const double tb = key_[b];
        if (ta < tb)
            return a;
        if (tb < ta)
            return b;
        return a < b ? a : b;
    }

    int k_ = 0;
    int p_ = 1;
    std::vector<double> key_;
    std::vector<int> w_;
};

/** Whole-machine replay engine. */
class EventEngine
{
  public:
    EventEngine(const arch::GpuSpec &spec, const LaunchTrace &trace)
        : spec_(spec), trace_(trace)
    {
        for (int t = 0; t < arch::kNumInstrTypes; ++t) {
            arithOcc_[t] = arch::issueIntervalCycles(
                               spec_, static_cast<arch::InstrType>(t)) +
                           spec_.issueOverheadCycles;
        }
        sharedPassCycles_ = static_cast<double>(spec_.warpSize) /
                            spec_.sharedIssueGroup;
        clusterRate_ = spec_.clusterBytesPerCycle();
    }

    TimingResult run();

  private:
    void placeBlock(SmCtx &sm, int block_id, double start);

    /**
     * Classify and key warp @p wi's current (non-done) op: barrier
     * ops arrive immediately (queueing the block for release when
     * complete); everything else computes its dependency readiness
     * and enters the class pending heap.
     */
    void advanceWarp(SmCtx &sm, int wi);

    /** Release every queued completed barrier, in FIFO order. */
    void processReleases(SmCtx &sm);

    /**
     * Earliest issuable operation on @p sm: four heap peeks for the
     * candidate time, a batched drain of newly-ready warps, and a
     * circular first-set-bit for the round-robin tie-break.
     * @return issue time, or kInf when the SM has nothing left.
     */
    double nextCandidate(SmCtx &sm, int &warp_out);

    /**
     * Issue the next op of warp @p wi on @p sm at time @p t (the
     * candidate time nextCandidate() proved exact — equal to what
     * the legacy engine's per-issue recomputation would produce, so
     * no constraint needs re-deriving here); updates all state.
     */
    void issue(SmCtx &sm, int wi, double t);

    void finishWarp(SmCtx &sm, int wi);

    /** Close the busy-cycle step of issue time stepTime_. */
    void endStep()
    {
        arithCycles_.endStep();
        sharedCycles_.endStep();
        portCycles_.endStep();
    }

    const arch::GpuSpec &spec_;
    const LaunchTrace &trace_;

    std::vector<SmCtx> sms_;
    std::vector<ClusterCtx> clusters_;
    std::vector<TextureCache> texStorage_;
    int nextBlock_ = 0;

    double arithOcc_[arch::kNumInstrTypes] = {};
    double sharedPassCycles_ = 2.0;
    double clusterRate_ = 1.0;

    double endTime_ = 0.0;
    TimingResult result_;

    /** Clusters the replayed one stands for (1: a full replay). */
    int copies_ = 1;
    /** Issue time of the busy-cycle step being collected. */
    double stepTime_ = 0.0;
    BusySum arithCycles_;
    BusySum sharedCycles_;
    BusySum portCycles_;

    /** Per-call scratch of nextCandidate (single-threaded engine). */
    std::vector<uint64_t> tieMask_;
};

void
EventEngine::placeBlock(SmCtx &sm, int block_id, double start)
{
    BlockCtx block;
    const auto &bt = trace_.blocks[block_id];
    for (int trace_idx : bt.warpTraceIdx) {
        WarpCtx w;
        w.trace = &trace_.pool[trace_idx];
        w.inorderReady = start;
        w.drainTime = start;
        w.lastIssue = start;
        w.regReady.assign(
            static_cast<size_t>(trace_.registersPerThread) + 1, start);
        w.blockSlot = static_cast<int>(sm.blocks.size());
        const int slot = static_cast<int>(sm.warps.size());
        if (w.trace->ops.empty()) {
            w.done = true;
        } else {
            w.livePos = static_cast<int>(sm.live.size());
            sm.live.push_back(slot);
        }
        block.warps.push_back(slot);
        if (w.done)
            ++block.doneCount;
        sm.warps.push_back(std::move(w));
    }
    sm.blocks.push_back(std::move(block));
    ++sm.residentBlocks;

    // Prepare every live warp of the block (the legacy engine does
    // the equivalent lazily on its next candidate scan).
    const BlockCtx &placed_ref = sm.blocks.back();
    for (int wi : placed_ref.warps) {
        if (!sm.warps[wi].done)
            advanceWarp(sm, wi);
    }

    // A fully-empty block frees its slot immediately.
    BlockCtx &placed = sm.blocks.back();
    if (placed.doneCount == static_cast<int>(placed.warps.size())) {
        --sm.residentBlocks;
        if (nextBlock_ < static_cast<int>(trace_.blocks.size()))
            placeBlock(sm, nextBlock_++, start);
    }
}

void
EventEngine::advanceWarp(SmCtx &sm, int wi)
{
    WarpCtx &w = sm.warps[wi];
    GPUPERF_ASSERT(!w.done && w.opIdx < w.trace->ops.size(),
                   "advancing a finished warp");
    const TraceOp &op = w.trace->ops[w.opIdx];

    if (op.unit == UnitKind::kBarrier) {
        // Eager arrival; the release itself is deferred to the queue
        // so cascades fire in the legacy engine's discovery order.
        w.arrived = true;
        BlockCtx &block = sm.blocks[w.blockSlot];
        ++block.arrivedCount;
        const int waiting =
            static_cast<int>(block.warps.size()) - block.doneCount;
        if (block.arrivedCount == waiting)
            sm.releaseQueue.push_back(w.blockSlot);
        return;
    }

    double r = w.inorderReady;
    for (int s = 0; s < 3; ++s) {
        if (op.src[s])
            r = std::max(r, w.regReady[op.src[s]]);
    }
    int cls;
    switch (op.unit) {
      case UnitKind::kArithI:
      case UnitKind::kArithII:
      case UnitKind::kArithIII:
      case UnitKind::kArithIV:
        if (op.sharedPasses > 0) {
            cls = kClassArithShared;
            r = std::max(r, w.sharedNext);
        } else {
            cls = kClassArith;
        }
        break;
      case UnitKind::kSharedMem:
        cls = kClassShared;
        r = std::max(r, w.sharedNext);
        break;
      default:
        cls = kClassMem;
        break;
    }
    w.cls = cls;
    // An op whose dependencies are already within its class's busy
    // clock is issue-limited, not dependency-limited: it enters the
    // ready mask directly and never touches the heap. This is the
    // common case for back-to-back instruction streams (the next
    // op's in-order time is exactly the issue clock).
    double clock;
    switch (cls) {
      case kClassArith:
        clock = std::max(sm.issueBusy, sm.arithBusy);
        break;
      case kClassArithShared:
        clock = std::max(std::max(sm.issueBusy, sm.arithBusy),
                         sm.sharedBusy);
        break;
      case kClassShared:
        clock = std::max(sm.issueBusy, sm.sharedBusy);
        break;
      default:
        clock = sm.issueBusy;
        break;
    }
    if (r <= clock) {
        maskSet(sm.readyMask[cls], w.livePos);
        w.inReadyMask = true;
        ++sm.readyCount[cls];
    } else {
        w.inReadyMask = false;
        sm.pending[cls].push(PendItem{r, wi, w.epoch});
    }
}

void
EventEngine::processReleases(SmCtx &sm)
{
    // Index-based FIFO: releases may queue further releases (via
    // placed blocks or consecutive barriers) while we iterate.
    for (size_t head = 0; head < sm.releaseQueue.size(); ++head) {
        const int slot = sm.releaseQueue[head];
        // Copy the member list: finishWarp() may place a new block
        // and reallocate sm.blocks.
        const std::vector<int> members = sm.blocks[slot].warps;
        // A barrier waits until every warp has issued all prior
        // instructions and its shared-memory stores are visible;
        // in-flight global loads keep going across the barrier.
        double release = 0.0;
        for (int bw : members) {
            WarpCtx &other = sm.warps[bw];
            if (other.done)
                continue;
            release = std::max(release, std::max(other.inorderReady,
                                                 other.sharedDrain));
        }
        for (int bw : members) {
            WarpCtx &other = sm.warps[bw];
            if (other.done)
                continue;
            other.arrived = false;
            other.inorderReady = release;
            ++other.epoch;
            ++other.opIdx;
            if (other.opIdx == other.trace->ops.size())
                finishWarp(sm, bw);
        }
        sm.blocks[slot].arrivedCount = 0;
        for (int bw : members) {
            if (!sm.warps[bw].done)
                advanceWarp(sm, bw);
        }
    }
    sm.releaseQueue.clear();
}

double
EventEngine::nextCandidate(SmCtx &sm, int &warp_out)
{
    warp_out = -1;
    const int n = static_cast<int>(sm.live.size());
    if (n == 0)
        return kInf;

    // Per-class SM-wide busy constraints (the non-warp half of the
    // legacy scan's max chain).
    double busy[kNumClasses];
    busy[kClassArith] = std::max(sm.issueBusy, sm.arithBusy);
    busy[kClassArithShared] = std::max(busy[kClassArith], sm.sharedBusy);
    busy[kClassShared] = std::max(sm.issueBusy, sm.sharedBusy);
    busy[kClassMem] = sm.issueBusy;

    // Valid top of a class's pending heap, discarding entries
    // orphaned by a tie-issued op (stale epoch). With no stale
    // entries outstanding the top is trusted as-is.
    auto peek = [&](int c) -> const PendItem * {
        PendHeap &pq = sm.pending[c];
        if (sm.staleCount[c] > 0) {
            while (!pq.empty() &&
                   pq.top().epoch != sm.warps[pq.top().warp].epoch) {
                pq.pop();
                --sm.staleCount[c];
            }
        }
        return pq.empty() ? nullptr : &pq.top();
    };

    // min over warps of max(readiness, classBusy)
    //   == min over classes of max(classBusy, min readiness):
    // ready warps all satisfy readiness <= classBusy.
    double best = kInf;
    for (int c = 0; c < kNumClasses; ++c) {
        if (sm.readyCount[c] > 0)
            best = std::min(best, busy[c]);
        if (const PendItem *top = peek(c))
            best = std::min(best, std::max(busy[c], top->ready));
    }
    if (best >= kInf)
        return kInf;  // every live warp is waiting at a barrier

    // Batched advancement: a warp becomes (permanently) ready once
    // its dependencies resolve at or below its class's busy clock —
    // its issue time is the busy clock from here on, and busy clocks
    // only grow, so this happens at most once per op.
    for (int c = 0; c < kNumClasses; ++c) {
        const double threshold = std::min(best, busy[c]);
        while (const PendItem *top = peek(c)) {
            if (top->ready > threshold)
                break;
            WarpCtx &w = sm.warps[top->warp];
            sm.pending[c].pop();
            maskSet(sm.readyMask[c], w.livePos);
            w.inReadyMask = true;
            ++sm.readyCount[c];
        }
    }

    // Tie-break identical to the legacy scan: among the warps
    // issuable exactly at `best` — every (permanently) ready warp of
    // a class whose busy clock has been reached, plus the pending
    // warps whose readiness lands exactly on the candidate time
    // (dependency-bound ties, enumerated in place) — take the first
    // live-list position in circular order from rr.
    const int start = static_cast<int>(sm.rr % n);
    int pos = -1;
    if (n <= 64) {
        // Fast path: every live position fits one word.
        uint64_t tied = 0;
        for (int c = 0; c < kNumClasses; ++c) {
            if (busy[c] > best)
                continue;
            if (sm.readyCount[c] > 0)
                tied |= sm.readyMask[c][0];
            sm.pending[c].forEachAtMost(
                best, [&](const PendItem &item) {
                    const WarpCtx &w = sm.warps[item.warp];
                    if (item.epoch == w.epoch)
                        tied |= uint64_t{1} << w.livePos;
                });
        }
        GPUPERF_ASSERT(tied != 0, "candidate time with no tied warp");
        const uint64_t from_start = tied & (~uint64_t{0} << start);
        pos = __builtin_ctzll(from_start ? from_start : tied);
    } else {
        const int nwords = (n + 63) >> 6;
        tieMask_.assign(static_cast<size_t>(nwords), 0);
        for (int c = 0; c < kNumClasses; ++c) {
            if (busy[c] > best)
                continue;
            if (sm.readyCount[c] > 0) {
                const auto &mask = sm.readyMask[c];
                const size_t limit =
                    std::min(mask.size(), static_cast<size_t>(nwords));
                for (size_t word = 0; word < limit; ++word)
                    tieMask_[word] |= mask[word];
            }
            sm.pending[c].forEachAtMost(
                best, [&](const PendItem &item) {
                    const WarpCtx &w = sm.warps[item.warp];
                    if (item.epoch == w.epoch)
                        maskSet(tieMask_, w.livePos);
                });
        }
        const int start_word = start >> 6;
        uint64_t w0 =
            tieMask_[start_word] & (~uint64_t{0} << (start & 63));
        if (w0) {
            pos = (start_word << 6) + __builtin_ctzll(w0);
        } else {
            for (int word = start_word + 1; word < nwords; ++word) {
                if (tieMask_[word]) {
                    pos = (word << 6) + __builtin_ctzll(tieMask_[word]);
                    break;
                }
            }
            if (pos < 0) {
                for (int word = 0; word <= start_word; ++word) {
                    uint64_t u = tieMask_[word];
                    if (word == start_word) {
                        const int bit = start & 63;
                        u &= bit ? (uint64_t{1} << bit) - 1
                                 : uint64_t{0};
                    }
                    if (u) {
                        pos = (word << 6) + __builtin_ctzll(u);
                        break;
                    }
                }
            }
        }
    }
    GPUPERF_ASSERT(pos >= 0 && pos < n, "ready mask/live desync");
    warp_out = sm.live[pos];
    return best;
}

void
EventEngine::finishWarp(SmCtx &sm, int wi)
{
    WarpCtx &w = sm.warps[wi];
    GPUPERF_ASSERT(!w.inReadyMask, "finishing a ready warp");
    w.done = true;
    endTime_ = std::max(endTime_, w.drainTime);

    const int p = w.livePos;
    if (p >= 0) {
        const int last = static_cast<int>(sm.live.size()) - 1;
        if (p != last) {
            const int moved = sm.live[last];
            sm.live[p] = moved;
            WarpCtx &mw = sm.warps[moved];
            mw.livePos = p;
            if (mw.inReadyMask) {
                maskClear(sm.readyMask[mw.cls], last);
                maskSet(sm.readyMask[mw.cls], p);
            }
        }
        sm.live.pop_back();
        w.livePos = -1;
    }

    BlockCtx &block = sm.blocks[w.blockSlot];
    ++block.doneCount;
    if (block.doneCount == static_cast<int>(block.warps.size())) {
        double finish = 0.0;
        for (int bw : block.warps)
            finish = std::max(finish, sm.warps[bw].drainTime);
        --sm.residentBlocks;
        if (nextBlock_ < static_cast<int>(trace_.blocks.size()))
            placeBlock(sm, nextBlock_++, finish);
    }
}

void
EventEngine::issue(SmCtx &sm, int wi, double t)
{
    WarpCtx &w = sm.warps[wi];
    const TraceOp &op = w.trace->ops[w.opIdx];
    ClusterCtx &cluster = clusters_[sm.cluster];

    // Leave the ready set (a transient-tie warp never entered it; its
    // pending entry goes stale through the epoch bump below).
    if (w.inReadyMask) {
        maskClear(sm.readyMask[w.cls], w.livePos);
        --sm.readyCount[w.cls];
        w.inReadyMask = false;
    } else {
        ++sm.staleCount[w.cls];
    }

    // The legacy engine re-derives the issue time from the warp's
    // dependencies and the busy clocks here; @p t is that exact value
    // (max(readiness, class busy clock) — the candidate's invariant,
    // cross-checked against a fresh recomputation in debug builds),
    // so the update arithmetic below starts from it directly. It is
    // kept textually identical to engine_legacy.cc otherwise (busy
    // cycles go to BusySum steps, which add them in the same order) —
    // bit-identity depends on it.
    double dst_ready = t;
    switch (op.unit) {
      case UnitKind::kArithI:
      case UnitKind::kArithII:
      case UnitKind::kArithIII:
      case UnitKind::kArithIV: {
        const int type_idx = static_cast<int>(op.unit);
        const double occ = arithOcc_[type_idx];
        sm.arithBusy = t + occ;
        arithCycles_.add(occ);
        double latency = std::max<double>(spec_.aluDepCycles, occ);
        if (op.sharedPasses > 0) {
            // A shared operand occupies the shared pipeline too and the
            // result arrives with the shared pipeline's latency.
            const double shared_occ = op.sharedPasses * sharedPassCycles_;
            sm.sharedBusy = t + shared_occ;
            w.sharedNext =
                t + op.sharedPasses * spec_.warpSharedPassIntervalCycles;
            sharedCycles_.add(shared_occ);
            latency = std::max<double>(latency, spec_.sharedDepCycles);
        }
        dst_ready = t + latency;
        break;
      }
      case UnitKind::kSharedMem: {
        const double occ = op.conflict * sharedPassCycles_ +
                           spec_.issueOverheadCycles;
        sm.sharedBusy = t + occ;
        w.sharedNext =
            t + op.conflict * spec_.warpSharedPassIntervalCycles;
        sharedCycles_.add(occ);
        dst_ready = t + std::max<double>(spec_.sharedDepCycles, occ);
        if (!op.dst) {
            // Store: barriers must see it complete.
            w.sharedDrain = std::max(w.sharedDrain, dst_ready);
        }
        break;
      }
      case UnitKind::kGlobalLoad:
      case UnitKind::kGlobalStore: {
        const double start = std::max(t + 1.0, cluster.portBusy);
        const double service =
            op.numXacts * spec_.transactionOverheadCycles +
            op.xactBytes / clusterRate_;
        cluster.portBusy = start + service;
        portCycles_.add(service);
        endTime_ = std::max(endTime_, cluster.portBusy);
        dst_ready = cluster.portBusy + spec_.globalLatencyCycles;
        if (op.unit == UnitKind::kGlobalStore) {
            // Stores complete at port service for drain purposes.
            dst_ready = cluster.portBusy;
        }
        break;
      }
      case UnitKind::kTexLoad: {
        int miss_bytes = 0;
        int misses = 0;
        if (spec_.textureCacheEnabled) {
            for (uint16_t i = 0; i < op.numXacts; ++i) {
                const uint32_t line =
                    w.trace->texLines[op.texIdx + i];
                if (!cluster.tex->access(line, t)) {
                    ++misses;
                    miss_bytes += spec_.textureCacheLineBytes;
                }
            }
        } else {
            misses = op.numXacts;
            miss_bytes = op.xactBytes;
        }
        if (misses > 0) {
            const double start = std::max(t + 1.0, cluster.portBusy);
            const double service =
                misses * spec_.transactionOverheadCycles +
                miss_bytes / clusterRate_;
            cluster.portBusy = start + service;
            portCycles_.add(service);
            endTime_ = std::max(endTime_, cluster.portBusy);
            dst_ready = cluster.portBusy + spec_.globalLatencyCycles;
        } else {
            dst_ready = t + spec_.textureHitLatencyCycles;
        }
        break;
      }
      case UnitKind::kBarrier:
      case UnitKind::kNone:
        panic("barrier/none ops never reach issue()");
    }

    sm.issueBusy = t + 1.0;
    w.inorderReady = t + 1.0;
    w.lastIssue = t;
    if (op.dst)
        w.regReady[op.dst] = dst_ready;
    w.drainTime = std::max(w.drainTime, dst_ready);
    endTime_ = std::max(endTime_, w.drainTime);
    sm.rr = sm.rr + 1;

    ++result_.totalOps;
    ++w.epoch;
    ++w.opIdx;
    sm.candValid = false;
    if (w.opIdx == w.trace->ops.size())
        finishWarp(sm, wi);
    else
        advanceWarp(sm, wi);
    if (!sm.releaseQueue.empty())
        processReleases(sm);
}

TimingResult
EventEngine::run()
{
    const int grid = static_cast<int>(trace_.blocks.size());
    if (grid == 0)
        fatal("timing: empty launch trace");

    result_.occupancy = occupancyOf(spec_, trace_);
    const int max_resident = result_.occupancy.residentBlocks;

    // A cluster-symmetric launch replays cluster 0 only; the others
    // would replay the same events (see the file comment).
    const int clusters = spec_.numClusters();
    copies_ = clusterSymmetric(spec_, trace_) ? clusters : 1;
    for (BusySum *sum : {&arithCycles_, &sharedCycles_, &portCycles_})
        sum->setCopies(copies_);
    const int replayed_sms = spec_.numSms / copies_;
    sms_.resize(replayed_sms);
    clusters_.resize(clusters / copies_);
    texStorage_.clear();
    texStorage_.reserve(clusters_.size());
    for (size_t c = 0; c < clusters_.size(); ++c) {
        texStorage_.emplace_back(spec_.textureCacheBytesPerCluster,
                                 spec_.textureCacheLineBytes,
                                 spec_.textureCacheWays);
        clusters_[c].tex = &texStorage_[c];
    }
    for (int i = 0; i < replayed_sms; ++i)
        sms_[i].cluster = i / spec_.smsPerCluster;

    // Initial distribution: uniform round-robin across CLUSTERS first
    // (then across the SMs within each cluster), exactly as in the
    // legacy engine. A block bound for a cluster that is not replayed
    // is only counted.
    std::vector<int> sm_order(spec_.numSms);
    for (int i = 0; i < spec_.numSms; ++i)
        sm_order[i] = (i % clusters) * spec_.smsPerCluster + i / clusters;
    nextBlock_ = 0;
    for (int round = 0; round < max_resident; ++round) {
        for (int i = 0; i < spec_.numSms && nextBlock_ < grid; ++i) {
            if (sm_order[i] >= replayed_sms) {
                ++nextBlock_;
                continue;
            }
            SmCtx &sm = sms_[sm_order[i]];
            if (sm.residentBlocks < max_resident)
                placeBlock(sm, nextBlock_++, 0.0);
        }
    }

    // The tournament tree orders SMs by their cached per-SM
    // candidates. A cached candidate stays exact until the SM's next
    // own issue: it depends only on SM-local state, which no other
    // SM's issue can change (placeBlock always targets the finishing
    // SM, and the shared cluster port never constrains issue times,
    // only completions). Debug builds re-derive and cross-check it at
    // every selection.
    SmTournament tournament;
    tournament.init(replayed_sms);
    auto refreshCandidate = [&](int s) {
        SmCtx &sm = sms_[s];
        int warp = -1;
        const double t = nextCandidate(sm, warp);
        if (t < kInf) {
            sm.candT = t;
            sm.candWarp = warp;
            sm.candValid = true;
        }
        tournament.set(s, t);
    };
    for (int s = 0; s < replayed_sms; ++s) {
        // Initial barrier releases in SM order, matching the legacy
        // engine's first per-SM candidate scans (they consume the
        // global block queue in this order).
        processReleases(sms_[s]);
        refreshCandidate(s);
    }

    while (tournament.winnerKey() < kInf) {
        const int s = tournament.winner();
        SmCtx &sm = sms_[s];
        GPUPERF_ASSERT(sm.candValid, "tournament selected a drained SM");
#ifndef NDEBUG
        {
            int check_warp = -1;
            const double check_t = nextCandidate(sm, check_warp);
            GPUPERF_ASSERT(check_t == sm.candT &&
                               check_warp == sm.candWarp,
                           "cached SM candidate diverged from fresh");
        }
#endif
        // Issues arrive in (time, SM) order: a new time closes the
        // previous time's busy-cycle step.
        if (sm.candT != stepTime_) {
            endStep();
            stepTime_ = sm.candT;
        }
        issue(sm, sm.candWarp, sm.candT);  // invalidates the cache
        refreshCandidate(s);
    }
    endStep();

    // Sanity: everything must have completed.
    for (const SmCtx &sm : sms_) {
        if (!sm.live.empty())
            panic("timing: SM finished with %zu live warps — deadlock?",
                  sm.live.size());
    }
    if (nextBlock_ != grid)
        panic("timing: only %d of %d blocks were scheduled", nextBlock_,
              grid);

    result_.cycles = endTime_;
    result_.seconds = endTime_ / spec_.coreClockHz;
    result_.totalOps *= static_cast<uint64_t>(copies_);
    result_.arithBusyCycles = arithCycles_.total();
    result_.sharedBusyCycles = sharedCycles_.total();
    result_.portBusyCycles = portCycles_.total();
    for (const auto &tc : texStorage_) {
        result_.texHits += tc.hits() * copies_;
        result_.texMisses += tc.misses() * copies_;
    }
    return result_;
}

} // namespace

bool
clusterSymmetric(const arch::GpuSpec &spec,
                 const funcsim::LaunchTrace &trace)
{
    const int grid = static_cast<int>(trace.blocks.size());
    if (spec.numClusters() < 2 || grid == 0 || grid % spec.numSms != 0 ||
        grid / spec.numSms > occupancyOf(spec, trace).residentBlocks)
        return false;
    const std::vector<int> &warps = trace.blocks[0].warpTraceIdx;
    if (warps.empty())
        return false;
    for (int idx : warps) {
        if (trace.pool[idx].ops.empty())
            return false;
    }
    for (const funcsim::BlockTrace &block : trace.blocks) {
        if (block.warpTraceIdx != warps)
            return false;
    }
    return true;
}

TimingResult
replayEventDriven(const arch::GpuSpec &spec,
                  const funcsim::LaunchTrace &trace)
{
    EventEngine engine(spec, trace);
    return engine.run();
}

} // namespace detail
} // namespace timing
} // namespace gpuperf
