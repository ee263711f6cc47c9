/**
 * @file
 * Pre-execution cost prediction for per-cell requests — the glue
 * between the fleet dispatcher's pending queue and sched::CostModel.
 *
 * Before a cell runs, no profile key exists yet, so the observation
 * key here is the cell's CONTENT (a hash of its serialized request
 * bytes): two submissions of the same work share one cost history in
 * the dispatcher's in-process cost model, and a re-dispatched or
 * resubmitted job predicts from the wall times its earlier runs
 * recorded. The static fallback reads the launch shape straight off
 * the request (instruction count x resident warps for inline
 * launches; registry refs are materialized once and their features
 * cached by case identity (api/registry.h, so re-registering a
 * factory re-prices its refs), for at most kMaxCachedRefFeatures
 * refs before the cache starts over).
 */

#ifndef GPUPERF_API_CELL_COST_H
#define GPUPERF_API_CELL_COST_H

#include <cstddef>
#include <string>

#include "api/request.h"
#include "sched/cost.h"

namespace gpuperf {
namespace api {

/**
 * Registry refs whose features are cached; a new ref arriving at the
 * bound clears the cache first (a ref is re-materialized on its next
 * pricing, with the same result).
 */
constexpr size_t kMaxCachedRefFeatures = 4096;

/**
 * The observation key of one cell request: a content hash of its
 * serialized bytes, equal for every submission of the same work.
 */
std::string cellCostKey(const AnalysisRequest &cell);

/**
 * Static cost features of @p req read off the request alone (never
 * executes anything; a ref whose factory throws contributes zero).
 * Sums over every (kernel, spec) cell, so it works for whole
 * requests as well as single-cell jobs.
 */
sched::CostFeatures cellCostFeatures(const AnalysisRequest &req);

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_CELL_COST_H
