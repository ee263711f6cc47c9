/**
 * @file
 * The kernel-case registry: resolves wire-portable CaseRefs (factory
 * name + arguments) to executable driver::KernelCases. This is what
 * lets a dispatched job stay tiny — the worker rebuilds the kernel and
 * its deterministic input image from the same factory the submitter
 * named, instead of shipping megabytes of instructions and memory.
 *
 * Built-in factories (see registerBuiltinCases() for the argument
 * lists) cover the seven demo families and the paper's three case
 * studies: `gemm` (size, tile), `cyclic-reduction` (n, systems,
 * padded, forward-only) and `spmv` (format, block rows, texture).
 * registerCase() adds more at run time for embedding applications.
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
 *
 * The case's launch (kernel, launch shape, run options and input
 * image) must be a pure function of the ref and the name: it may not
 * read outside state that can change between requests, such as a
 * file the ref names, the clock or a mutable global (register the
 * factory again to change what a ref builds). materializeJob() stamps
 * the case with an identity built from the ref
 * (driver::KernelCase::identity), and an executor with a store
 * remembers the case's profile key under its identity and name, so
 * an exact repeat runs no factory and never sees a changed launch.
 */
using CaseFactory = std::function<driver::KernelCase(
    const CaseRef &ref, const std::string &name)>;

/**
 * Register @p factory under @p key (replacing any previous entry).
 * Thread-safe. Registration is process-global: a worker process must
 * register the same factories as its submitter to execute its refs.
 * Every call bumps the name's registration generation, which is part
 * of its cases' identity: after a replacement no executor serves a
 * profile key the old factory's launch produced.
 */
void registerCase(const std::string &key, CaseFactory factory);

/** True when @p key resolves (built-ins are always present). */
bool caseRegistered(const std::string &key);

/** The registered factory names, sorted (diagnostics, tooling). */
std::vector<std::string> registeredCases();

/**
 * Materialize @p job into an executable case: registry lookup for
 * refs, image rebuild for inline launches. A ref's case carries an
 * identity: an exact encoding of the factory name, its registration
 * generation, the integer arguments and the float arguments' bits.
 * An inline launch's identity is empty. Throws std::runtime_error on
 * an unknown factory or malformed arguments.
 */
driver::KernelCase materializeJob(const KernelJob &job);

} // namespace api
} // namespace gpuperf

#endif // GPUPERF_API_REGISTRY_H
