/**
 * @file
 * Versioned codecs for the AnalysisService request/response schema —
 * what makes a job a wire-portable artifact — and the field walks
 * (store/wire.h) of the request types; responses walk the store's.
 *
 *  - BINARY: what the socket frames ship between processes. A foreign
 *    kSchemaVersion is a read failure, never a misparsed job.
 *  - JSON (api/json.h): the human- and tool-facing format. Doubles
 *    use %.17g (exact round trip), non-finite ones the strings
 *    "nan"/"inf"/"-inf"; u64 values are decimal strings (readers also
 *    take numbers); memory images are hex. Field order is fixed, so
 *    equal responses dump to byte-identical text.
 *
 * Readers return false (with a message where the signature allows) on
 * malformed input; a bad job fails, it never crashes the service.
 * tests/test_codecs.cc pins every format's bytes.
 */

#ifndef GPUPERF_API_CODECS_H
#define GPUPERF_API_CODECS_H

#include <string>

#include "api/request.h"
#include "store/codecs.h"
#include "store/result_store.h"

namespace gpuperf {
namespace api {

// --- Binary ----------------------------------------------------------

void writeRequest(store::ByteWriter &w, const AnalysisRequest &req);
bool readRequest(store::ByteReader &r, AnalysisRequest *req);

void writeResponse(store::ByteWriter &w, const AnalysisResponse &resp);
bool readResponse(store::ByteReader &r, AnalysisResponse *resp);

// --- JSON ------------------------------------------------------------

std::string requestToJson(const AnalysisRequest &req);
bool requestFromJson(const std::string &text, AnalysisRequest *req,
                     std::string *error);

std::string responseToJson(const AnalysisResponse &resp);
bool responseFromJson(const std::string &text, AnalysisResponse *resp,
                      std::string *error);

// --- Equality (tests, smoke diffs) ----------------------------------

/**
 * Bit-exact equality of two responses: every field of every cell,
 * doubles compared by bit pattern (NaN == NaN, -0.0 != +0.0). What
 * "pinned bit-identical" means, in one reusable place. @p whyNot
 * names the first differing field, e.g.
 * "cell 0 (k0 x s0): analysis.prediction.stages[0].tShared".
 */
bool responsesEqual(const AnalysisResponse &a, const AnalysisResponse &b,
                    std::string *whyNot = nullptr);

/**
 * Wire bounds for an inline launch's memory: at least what
 * funcsim::GlobalMemory's constructor accepts without a fatal(), at
 * most 4 GiB, so a forged job cannot make a worker zero-allocate
 * terabytes.
 */
inline bool
memoryGeometryValid(uint64_t capacity, size_t image_bytes)
{
    constexpr uint64_t kMaxCapacity = uint64_t{1} << 32; // 4 GiB
    return capacity >= 512 && capacity <= kMaxCapacity &&
           image_bytes >= 256 && image_bytes <= capacity;
}

/**
 * isa::Kernel's structural validation as a message ("" = valid)
 * instead of a fatal(): a malformed stream must fail its request, not
 * abort a worker. Keep in sync with isa/kernel.cc::validateAndIndex.
 */
std::string kernelStructureError(const std::vector<isa::Instruction> &instrs,
                                 int num_regs, int num_preds);

} // namespace api

namespace wire {

template <>
struct EnumWire<isa::Opcode>
    : ByNumber<static_cast<int>(isa::Opcode::kNumOpcodes)> {};
template <>
struct EnumWire<isa::CmpOp>
    : ByNumber<static_cast<int>(isa::CmpOp::kNe) + 1> {};
template <>
struct EnumWire<isa::SpecialReg>
    : ByNumber<static_cast<int>(isa::SpecialReg::kWarpId) + 1> {};

inline constexpr const char *kEngineNames[] = {"event-driven",
                                               "legacy-scan", "auto"};
template <>
struct EnumWire<timing::ReplayEngine> : ByName<kEngineNames> {};
inline constexpr const char *kPipelineNames[] = {"shared", "per-cell"};
template <>
struct EnumWire<api::ExecutionPolicy::Pipeline> : ByName<kPipelineNames> {};
inline constexpr const char *kDeliveryNames[] = {"collect", "stream"};
template <>
struct EnumWire<api::ExecutionPolicy::Delivery> : ByName<kDeliveryNames> {};

/** In JSON, a flat tuple of numbers. */
template <class V>
void
fields(V &v, isa::Instruction &x)
{
    v.tuple();
    v("op", x.op);
    v("dst", x.dst);
    v("src0", x.src[0]);
    v("src1", x.src[1]);
    v("src2", x.src[2]);
    v("imm", x.imm);
    v("useImm", x.useImm);
    v("pred", x.pred);
    v("predNegate", x.predNegate);
    v("cmp", x.cmp);
    v("sreg", x.sreg);
}

/**
 * isa::Kernel is immutable and validates on construction: walks see
 * copies of its fields, and readers rebuild it only once the stream
 * is known good.
 */
template <class V>
void
fields(V &v, isa::Kernel &x)
{
    std::string name = x.name();
    int registers = x.numRegisters();
    int predicates = x.numPredicates();
    int shared = x.sharedBytes();
    std::vector<isa::Instruction> instrs =
        V::kReads ? std::vector<isa::Instruction>() : x.instructions();
    v("name", name);
    v("registers", registers);
    v("predicates", predicates);
    v("sharedBytes", shared);
    v("instructions", instrs);
    v.check([&] {
        if (registers < 0 || predicates < 0 || shared < 0)
            return std::string("kernel resources must be non-negative");
        const std::string why =
            api::kernelStructureError(instrs, registers, predicates);
        return why.empty() ? why : "kernel '" + name + "': " + why;
    });
    if constexpr (V::kReads) {
        if (v.ok()) {
            x = isa::Kernel(std::move(name), std::move(instrs), registers,
                            predicates, shared);
        }
    }
}

template <class V>
void
fields(V &v, funcsim::RunOptions &x)
{
    v("collectTrace", x.collectTrace);
    v("homogeneous", x.homogeneous);
    v("sampleBlocks", x.sampleBlocks);
    v("maxWarpOps", x.maxWarpOps);
}

template <class V>
void
fields(V &v, api::InlineLaunch &x)
{
    v("kernel", x.kernel);
    fields(v, x.cfg);
    v("options", x.options);
    v.group("memory", [&] {
        v("capacity", x.memoryCapacity);
        v("image", x.memoryImage, kHex);
    });
    v.check([&] {
        return api::memoryGeometryValid(x.memoryCapacity,
                                        x.memoryImage.size())
                   ? std::string()
                   : std::string("memory geometry out of range");
    });
}

template <class V>
void
fields(V &v, api::CaseRef &x)
{
    v("factory", x.factory);
    v("iargs", x.iargs);
    v("fargs", x.fargs);
}

template <class V>
void
fields(V &v, api::KernelJob &x)
{
    v("name", x.name);
    v.either(x.isInline(), "case", x.ref, "inline", x.inlined);
}

/**
 * Every field, in declaration order. GpuSpec::fingerprint() is
 * written by hand; tests/test_codecs.cc perturbs each field named
 * here and fails unless the fingerprint moves.
 */
template <class V>
void
fields(V &v, arch::GpuSpec &x)
{
    v("name", x.name);
    v("numSms", x.numSms);
    v("smsPerCluster", x.smsPerCluster);
    v("spsPerSm", x.spsPerSm);
    v("sfuMulPerSm", x.sfuMulPerSm);
    v("sfuPerSm", x.sfuPerSm);
    v("dpPerSm", x.dpPerSm);
    v("warpSize", x.warpSize);
    v("coreClockHz", x.coreClockHz);
    v("registersPerSm", x.registersPerSm);
    v("sharedMemPerSm", x.sharedMemPerSm);
    v("maxThreadsPerSm", x.maxThreadsPerSm);
    v("maxThreadsPerBlock", x.maxThreadsPerBlock);
    v("maxBlocksPerSm", x.maxBlocksPerSm);
    v("maxWarpsPerSm", x.maxWarpsPerSm);
    v("registerAllocUnit", x.registerAllocUnit);
    v("sharedAllocUnit", x.sharedAllocUnit);
    v("sharedStaticPerBlock", x.sharedStaticPerBlock);
    v("numSharedBanks", x.numSharedBanks);
    v("sharedBankWidth", x.sharedBankWidth);
    v("sharedIssueGroup", x.sharedIssueGroup);
    v("memClockHz", x.memClockHz);
    v("busWidthBits", x.busWidthBits);
    v("coalesceGroup", x.coalesceGroup);
    v("minSegmentBytes", x.minSegmentBytes);
    v("maxSegmentBytes", x.maxSegmentBytes);
    v("aluDepCycles", x.aluDepCycles);
    v("sharedDepCycles", x.sharedDepCycles);
    v("warpSharedPassIntervalCycles", x.warpSharedPassIntervalCycles);
    v("globalLatencyCycles", x.globalLatencyCycles);
    v("transactionOverheadCycles", x.transactionOverheadCycles);
    v("issueOverheadCycles", x.issueOverheadCycles);
    v("textureCacheEnabled", x.textureCacheEnabled);
    v("textureCacheBytesPerCluster", x.textureCacheBytesPerCluster);
    v("textureCacheLineBytes", x.textureCacheLineBytes);
    v("textureCacheWays", x.textureCacheWays);
    v("textureHitLatencyCycles", x.textureHitLatencyCycles);
}

template <class V>
void
fields(V &v, driver::SweepSpec &x)
{
    v("noBankConflicts", x.noBankConflicts);
    v("warpsPerSm", x.warpsPerSm);
    v("coalescingFractions", x.coalescingFractions);
}

template <class V>
void
fields(V &v, api::StorePolicy &x)
{
    v("dir", x.storeDir);
    v("calibrationCacheDir", x.calibrationCacheDir);
    v("reuseStoredResults", x.reuseStoredResults);
}

template <class V>
void
fields(V &v, api::ExecutionPolicy &x)
{
    v("numThreads", x.numThreads);
    v("engine", x.engine);
    v("pipeline", x.pipeline);
    v("shareTiming", x.shareTiming);
    v("delivery", x.delivery);
}

/** Readers accept exactly kSchemaVersion. */
inline std::string
schemaError(uint32_t v)
{
    return v == api::kSchemaVersion
               ? "" : "unsupported schema version " + std::to_string(v);
}

template <class V>
void
fields(V &v, api::AnalysisRequest &x)
{
    v("schema", x.schemaVersion);
    v.check([&] { return schemaError(x.schemaVersion); });
    v("job", x.jobName);
    // Schema v2; hand-written JSON may leave it out.
    v("client", x.clientId, kOptional);
    v("kernels", x.kernels);
    v("specs", x.specs);
    v("sweep", x.sweep);
    v("store", x.store);
    v("exec", x.exec);
}

template <class V>
void
fields(V &v, api::AnalysisResponse &x)
{
    v("schema", x.schemaVersion);
    v.check([&] { return schemaError(x.schemaVersion); });
    v("job", x.jobName);
    v("numKernels", x.numKernels);
    v("numSpecs", x.numSpecs);
    v("cells", x.cells);
}

} // namespace wire
} // namespace gpuperf

#endif // GPUPERF_API_CODECS_H
