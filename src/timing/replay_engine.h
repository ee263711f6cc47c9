/**
 * @file
 * Internal interface between TimingSimulator and its two replay
 * engines. Both produce bit-identical TimingResults for every valid
 * LaunchTrace (pinned by tests/test_timing_engine.cc):
 *
 *  - the legacy scan engine (engine_legacy.cc): the original
 *    reference implementation, re-scanning every live warp of an SM
 *    for each issued operation;
 *  - the event-driven engine (engine_event.cc): per-SM per-class
 *    ready heaps with batched drain of stalled warps, the default.
 *    It replays a cluster-symmetric launch (clusterSymmetric()) as
 *    one cluster standing for all of them; the legacy engine always
 *    replays every SM and is the full-replay oracle for that path.
 *
 * Not installed API — include only from src/timing/ and the tests
 * and benches of the engines.
 */

#ifndef GPUPERF_TIMING_REPLAY_ENGINE_H
#define GPUPERF_TIMING_REPLAY_ENGINE_H

#include "arch/gpu_spec.h"
#include "funcsim/trace.h"
#include "timing/simulator.h"

namespace gpuperf {
namespace timing {
namespace detail {

/** Replay @p trace with the original O(live warps)-per-issue scan. */
TimingResult replayLegacyScan(const arch::GpuSpec &spec,
                              const funcsim::LaunchTrace &trace);

/**
 * True when every cluster of @p spec replays @p trace's events
 * identically, so the event-driven engine replays cluster 0 alone:
 *
 *  1. the machine has more than one cluster;
 *  2. the grid is a whole multiple of numSms with at most
 *     occupancy.residentBlocks blocks per SM, so every SM receives the
 *     same number of blocks at time 0 and none is pulled from the
 *     block queue later;
 *  3. every block's warpTraceIdx equals block 0's, and no warp trace
 *     is empty.
 *
 * Clusters share only the block queue (each has its own memory port
 * and texture cache), and condition 2 keeps the queue idle after
 * time 0, so under these conditions clusters never interact. The
 * engine scales the counts by the cluster count and sums busy cycles
 * in the full replay's (time, SM index) order, so its TimingResult is
 * bit-identical to a full replay's.
 */
bool clusterSymmetric(const arch::GpuSpec &spec,
                      const funcsim::LaunchTrace &trace);

/** Replay @p trace with the event-driven scheduler. */
TimingResult replayEventDriven(const arch::GpuSpec &spec,
                               const funcsim::LaunchTrace &trace);

} // namespace detail
} // namespace timing
} // namespace gpuperf

#endif // GPUPERF_TIMING_REPLAY_ENGINE_H
