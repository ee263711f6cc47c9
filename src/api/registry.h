/**
 * @file
 * The kernel-case registry: resolves wire-portable CaseRefs (factory
 * name + arguments) to executable driver::KernelCases. This is what
 * lets a dispatched job stay tiny — the worker rebuilds the kernel and
 * its deterministic input image from the same factory the submitter
 * named, instead of shipping megabytes of instructions and memory.
 *
 * Built-in factories (see registerBuiltinCases() for the argument
 * lists) cover every demo workload; registerCase() adds more at run
 * time for embedding applications.
 */

#ifndef GPUPERF_API_REGISTRY_H
#define GPUPERF_API_REGISTRY_H

#include <functional>
#include <string>
#include <vector>

#include "api/request.h"
#include "driver/batch_runner.h"

namespace gpuperf {
namespace api {

/**
 * A registered factory: given the reference and the job's display
 * name, produce the kernel case. Must throw std::runtime_error (with
 * a message naming the problem) on invalid arguments — the error
 * becomes the cell's failure, never a crash.
 */
using CaseFactory = std::function<driver::KernelCase(
    const CaseRef &ref, const std::string &name)>;

/**
 * Register @p factory under @p key (replacing any previous entry).
 * Thread-safe. Registration is process-global: a worker process must
 * register the same factories as its submitter to execute its refs.
 */
void registerCase(const std::string &key, CaseFactory factory);

/** True when @p key resolves (built-ins are always present). */
bool caseRegistered(const std::string &key);

/** The registered factory names, sorted (diagnostics, tooling). */
std::vector<std::string> registeredCases();

/**
 * Materialize @p job into an executable case: registry lookup for
 * refs, image rebuild for inline launches. Throws std::runtime_error
 * on an unknown factory or malformed arguments.
 */
driver::KernelCase materializeJob(const KernelJob &job);

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_REGISTRY_H
