#include "model/device.h"

#include "common/logging.h"

namespace gpuperf {
namespace model {

SimulatedDevice::SimulatedDevice(const arch::GpuSpec &spec,
                                 const SessionConfig &config)
    : spec_(spec), funcSim_(spec), timingSim_(spec, config.engine)
{
}

Measurement
SimulatedDevice::run(const isa::Kernel &kernel,
                     const funcsim::LaunchConfig &cfg,
                     funcsim::GlobalMemory &gmem,
                     funcsim::RunOptions options)
{
    // One-shot path (e.g. the calibrator's many microbenchmark runs):
    // functionally identical to funcsim::profileKernel() + a timing
    // replay + measure(profile, timing), minus the profile-identity
    // work — no input-image hash, no stats copy — that only sharing or
    // persisting the artifact would need.
    options.collectTrace = true;
    funcsim::RunResult func = funcSim_.run(kernel, cfg, gmem, options);
    Measurement m;
    m.timing = timingSim_.run(func.trace);
    m.stats = std::move(func.stats);
    return m;
}

namespace {

/**
 * Re-apply the launch-ceiling checks the functional simulator
 * performed under the producing spec, against @p spec: a shared
 * profile must fail exactly where a per-cell functional run would
 * have (same conditions, same messages).
 */
void
revalidateLaunch(const funcsim::KernelProfile &profile,
                 const arch::GpuSpec &spec)
{
    const funcsim::LaunchConfig &cfg = profile.key.cfg;
    if (cfg.gridDim <= 0 || cfg.blockDim <= 0)
        fatal("launch of kernel '%s' has empty grid (%d x %d)",
              profile.kernelName.c_str(), cfg.gridDim, cfg.blockDim);
    if (cfg.blockDim > spec.maxThreadsPerBlock)
        fatal("kernel '%s': block of %d threads exceeds the %d-thread "
              "block ceiling", profile.kernelName.c_str(), cfg.blockDim,
              spec.maxThreadsPerBlock);
    if (profile.resources.sharedBytesPerBlock > spec.sharedMemPerSm)
        fatal("kernel '%s': %d B shared memory exceeds the %d B SM "
              "capacity", profile.kernelName.c_str(),
              profile.resources.sharedBytesPerBlock, spec.sharedMemPerSm);
}

} // namespace

Measurement
SimulatedDevice::measure(const funcsim::KernelProfile &profile,
                         const timing::TimingResult &timing) const
{
    revalidateLaunch(profile, spec_);
    if (profile.key.fingerprint != arch::FuncsimFingerprint::of(spec_))
        fatal("kernel '%s': profile was produced under an incompatible "
              "functional-simulation fingerprint — recompute it for "
              "spec '%s'", profile.kernelName.c_str(),
              spec_.name.c_str());
    Measurement m;
    m.timing = timing;
    m.stats = profile.stats;
    return m;
}

} // namespace model
} // namespace gpuperf
