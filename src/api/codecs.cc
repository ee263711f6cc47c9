#include "api/codecs.h"

#include <cmath>
#include <cstring>

#include "api/json.h"
#include "store/codecs.h"
#include "store/result_store.h"

namespace gpuperf {
namespace api {

// =====================================================================
// Binary
// =====================================================================

namespace {

using store::ByteReader;
using store::ByteWriter;

/**
 * Wire bounds for an inline launch's memory geometry. The lower
 * bound mirrors funcsim::GlobalMemory's constructor (which fatal()s
 * below 512 B — a process abort the wire path must never reach); the
 * upper bound stops a forged job from asking the worker to
 * zero-allocate terabytes.
 */
bool
memoryGeometryValid(uint64_t capacity, size_t image_bytes)
{
    constexpr uint64_t kMaxCapacity = uint64_t{1} << 32; // 4 GiB
    return capacity >= 512 && capacity <= kMaxCapacity &&
           image_bytes >= 256 && image_bytes <= capacity;
}

/**
 * Wire-side mirror of isa::Kernel's structural validation
 * (validateAndIndex), returning a message instead of fatal()-ing: a
 * malformed instruction stream from a job file or JSON must fail its
 * request, never abort the worker mid-claim (a crashed worker parks
 * the job for the next worker to crash on). Runs BEFORE the Kernel
 * constructor, which still fatal()s — by then the stream is known
 * good. Empty return = valid. Keep in sync with
 * isa/kernel.cc::validateAndIndex.
 */
std::string
kernelStructureError(const std::vector<isa::Instruction> &instrs,
                     int num_regs, int num_preds)
{
    using isa::Opcode;
    const auto at = [](int pc, const std::string &what) {
        return "instruction " + std::to_string(pc) + ": " + what;
    };
    if (num_regs <= 0)
        return "kernel needs at least one register";
    const int n = static_cast<int>(instrs.size());
    std::vector<Opcode> stack;
    for (int pc = 0; pc < n; ++pc) {
        const isa::Instruction &inst = instrs[pc];
        switch (inst.op) {
          case Opcode::kIf:
            if (inst.pred == isa::kNoPred)
                return at(pc, "IF without a guard predicate");
            stack.push_back(Opcode::kIf);
            break;
          case Opcode::kElse:
            if (stack.empty() || stack.back() != Opcode::kIf)
                return at(pc, "ELSE without an open IF");
            // One ELSE per IF: mark the frame as "in else".
            stack.back() = Opcode::kElse;
            break;
          case Opcode::kEndif:
            if (stack.empty() || (stack.back() != Opcode::kIf &&
                                  stack.back() != Opcode::kElse))
                return at(pc, "ENDIF without an open IF");
            stack.pop_back();
            break;
          case Opcode::kLoop:
            stack.push_back(Opcode::kLoop);
            break;
          case Opcode::kBrk:
            if (inst.pred == isa::kNoPred)
                return at(pc, "BRK without a guard predicate");
            if (stack.empty() || stack.back() != Opcode::kLoop)
                return at(pc, "BRK not directly inside a LOOP");
            break;
          case Opcode::kEndloop:
            if (stack.empty() || stack.back() != Opcode::kLoop)
                return at(pc, "ENDLOOP without an open LOOP");
            stack.pop_back();
            break;
          case Opcode::kExit:
            if (pc != n - 1)
                return at(pc, "EXIT before the last instruction");
            break;
          default:
            break;
        }
        if (isa::writesRegister(inst.op) &&
            (inst.dst == isa::kNoReg || inst.dst >= num_regs))
            return at(pc, "destination register out of range");
        if (isa::writesPredicate(inst.op) && inst.pred >= num_preds)
            return at(pc, "destination predicate out of range");
        for (isa::Reg s : inst.src) {
            if (s != isa::kNoReg && s >= num_regs)
                return at(pc, "source register out of range");
        }
    }
    if (!stack.empty())
        return "unterminated control structures";
    return std::string();
}

void
writeKernelBin(ByteWriter &w, const isa::Kernel &k)
{
    w.str(k.name());
    w.i32(k.numRegisters());
    w.i32(k.numPredicates());
    w.i32(k.sharedBytes());
    w.u64(k.instructions().size());
    for (const isa::Instruction &in : k.instructions()) {
        w.u8(static_cast<uint8_t>(in.op));
        w.u16(in.dst);
        w.u16(in.src[0]);
        w.u16(in.src[1]);
        w.u16(in.src[2]);
        w.i32(in.imm);
        w.b(in.useImm);
        w.u8(in.pred);
        w.b(in.predNegate);
        w.u8(static_cast<uint8_t>(in.cmp));
        w.u8(static_cast<uint8_t>(in.sreg));
    }
}

bool
readInstruction(ByteReader &r, isa::Instruction *in)
{
    const uint8_t op = r.u8();
    if (op >= static_cast<uint8_t>(isa::Opcode::kNumOpcodes)) {
        r.fail();
        return false;
    }
    in->op = static_cast<isa::Opcode>(op);
    in->dst = r.u16();
    in->src[0] = r.u16();
    in->src[1] = r.u16();
    in->src[2] = r.u16();
    in->imm = r.i32();
    in->useImm = r.b();
    in->pred = r.u8();
    in->predNegate = r.b();
    const uint8_t cmp = r.u8();
    if (cmp > static_cast<uint8_t>(isa::CmpOp::kNe)) {
        r.fail();
        return false;
    }
    in->cmp = static_cast<isa::CmpOp>(cmp);
    const uint8_t sreg = r.u8();
    if (sreg > static_cast<uint8_t>(isa::SpecialReg::kWarpId)) {
        r.fail();
        return false;
    }
    in->sreg = static_cast<isa::SpecialReg>(sreg);
    return r.ok();
}

bool
readKernelBin(ByteReader &r, std::unique_ptr<isa::Kernel> *out)
{
    const std::string name = r.str();
    const int regs = r.i32();
    const int preds = r.i32();
    const int shared = r.i32();
    const uint64_t n = r.u64();
    if (!r.ok() || regs < 0 || preds < 0 || shared < 0 ||
        n > (1u << 24)) {
        r.fail();
        return false;
    }
    std::vector<isa::Instruction> instrs;
    instrs.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        isa::Instruction in;
        if (!readInstruction(r, &in))
            return false;
        instrs.push_back(in);
    }
    // Structural pre-validation: the Kernel ctor fatal()-aborts on a
    // malformed stream; a forged wire kernel must instead read as a
    // failure.
    if (!kernelStructureError(instrs, regs, preds).empty()) {
        r.fail();
        return false;
    }
    *out = std::make_unique<isa::Kernel>(name, std::move(instrs), regs,
                                         preds, shared);
    return r.ok();
}

void
writeSpecBin(ByteWriter &w, const arch::GpuSpec &s)
{
    // Every field, in declaration order — the GpuSpec::fingerprint()
    // contract applies here too: a new field joins this codec (and
    // the JSON one below) or cached jobs would alias across specs.
    w.str(s.name);
    w.i32(s.numSms);
    w.i32(s.smsPerCluster);
    w.i32(s.spsPerSm);
    w.i32(s.sfuMulPerSm);
    w.i32(s.sfuPerSm);
    w.i32(s.dpPerSm);
    w.i32(s.warpSize);
    w.f64(s.coreClockHz);
    w.i32(s.registersPerSm);
    w.i32(s.sharedMemPerSm);
    w.i32(s.maxThreadsPerSm);
    w.i32(s.maxThreadsPerBlock);
    w.i32(s.maxBlocksPerSm);
    w.i32(s.maxWarpsPerSm);
    w.i32(s.registerAllocUnit);
    w.i32(s.sharedAllocUnit);
    w.i32(s.sharedStaticPerBlock);
    w.i32(s.numSharedBanks);
    w.i32(s.sharedBankWidth);
    w.i32(s.sharedIssueGroup);
    w.f64(s.memClockHz);
    w.i32(s.busWidthBits);
    w.i32(s.coalesceGroup);
    w.i32(s.minSegmentBytes);
    w.i32(s.maxSegmentBytes);
    w.i32(s.aluDepCycles);
    w.i32(s.sharedDepCycles);
    w.f64(s.warpSharedPassIntervalCycles);
    w.i32(s.globalLatencyCycles);
    w.i32(s.transactionOverheadCycles);
    w.f64(s.issueOverheadCycles);
    w.b(s.textureCacheEnabled);
    w.i32(s.textureCacheBytesPerCluster);
    w.i32(s.textureCacheLineBytes);
    w.i32(s.textureCacheWays);
    w.i32(s.textureHitLatencyCycles);
}

bool
readSpecBin(ByteReader &r, arch::GpuSpec *s)
{
    s->name = r.str();
    s->numSms = r.i32();
    s->smsPerCluster = r.i32();
    s->spsPerSm = r.i32();
    s->sfuMulPerSm = r.i32();
    s->sfuPerSm = r.i32();
    s->dpPerSm = r.i32();
    s->warpSize = r.i32();
    s->coreClockHz = r.f64();
    s->registersPerSm = r.i32();
    s->sharedMemPerSm = r.i32();
    s->maxThreadsPerSm = r.i32();
    s->maxThreadsPerBlock = r.i32();
    s->maxBlocksPerSm = r.i32();
    s->maxWarpsPerSm = r.i32();
    s->registerAllocUnit = r.i32();
    s->sharedAllocUnit = r.i32();
    s->sharedStaticPerBlock = r.i32();
    s->numSharedBanks = r.i32();
    s->sharedBankWidth = r.i32();
    s->sharedIssueGroup = r.i32();
    s->memClockHz = r.f64();
    s->busWidthBits = r.i32();
    s->coalesceGroup = r.i32();
    s->minSegmentBytes = r.i32();
    s->maxSegmentBytes = r.i32();
    s->aluDepCycles = r.i32();
    s->sharedDepCycles = r.i32();
    s->warpSharedPassIntervalCycles = r.f64();
    s->globalLatencyCycles = r.i32();
    s->transactionOverheadCycles = r.i32();
    s->issueOverheadCycles = r.f64();
    s->textureCacheEnabled = r.b();
    s->textureCacheBytesPerCluster = r.i32();
    s->textureCacheLineBytes = r.i32();
    s->textureCacheWays = r.i32();
    s->textureHitLatencyCycles = r.i32();
    return r.ok();
}

void
writeSweepBin(ByteWriter &w, const driver::SweepSpec &s)
{
    w.b(s.noBankConflicts);
    w.u64(s.warpsPerSm.size());
    for (double v : s.warpsPerSm)
        w.f64(v);
    w.u64(s.coalescingFractions.size());
    for (double v : s.coalescingFractions)
        w.f64(v);
}

bool
readSweepBin(ByteReader &r, driver::SweepSpec *s)
{
    s->noBankConflicts = r.b();
    const uint64_t warps = r.u64();
    for (uint64_t i = 0; i < warps && r.ok(); ++i)
        s->warpsPerSm.push_back(r.f64());
    const uint64_t fracs = r.u64();
    for (uint64_t i = 0; i < fracs && r.ok(); ++i)
        s->coalescingFractions.push_back(r.f64());
    return r.ok();
}

void
writeJobBin(ByteWriter &w, const KernelJob &job)
{
    w.str(job.name);
    w.u8(job.isInline() ? 1 : 0);
    if (!job.isInline()) {
        w.str(job.ref.factory);
        w.u64(job.ref.iargs.size());
        for (int64_t v : job.ref.iargs)
            w.i64(v);
        w.u64(job.ref.fargs.size());
        for (double v : job.ref.fargs)
            w.f64(v);
        return;
    }
    const InlineLaunch &in = *job.inlined;
    writeKernelBin(w, in.kernel);
    w.i32(in.cfg.gridDim);
    w.i32(in.cfg.blockDim);
    w.b(in.options.collectTrace);
    w.b(in.options.homogeneous);
    w.i32(in.options.sampleBlocks);
    w.u64(in.options.maxWarpOps);
    w.u64(in.memoryCapacity);
    w.str(in.memoryImage);
}

bool
readJobBin(ByteReader &r, KernelJob *job)
{
    job->name = r.str();
    const uint8_t kind = r.u8();
    if (kind > 1) {
        r.fail();
        return false;
    }
    if (kind == 0) {
        job->ref.factory = r.str();
        const uint64_t ni = r.u64();
        for (uint64_t i = 0; i < ni && r.ok(); ++i)
            job->ref.iargs.push_back(r.i64());
        const uint64_t nf = r.u64();
        for (uint64_t i = 0; i < nf && r.ok(); ++i)
            job->ref.fargs.push_back(r.f64());
        return r.ok();
    }
    std::unique_ptr<isa::Kernel> kernel;
    if (!readKernelBin(r, &kernel))
        return false;
    funcsim::LaunchConfig cfg;
    cfg.gridDim = r.i32();
    cfg.blockDim = r.i32();
    funcsim::RunOptions options;
    options.collectTrace = r.b();
    options.homogeneous = r.b();
    options.sampleBlocks = r.i32();
    options.maxWarpOps = r.u64();
    InlineLaunch launch{std::move(*kernel), cfg, options, 0, {}};
    launch.memoryCapacity = r.u64();
    launch.memoryImage = r.str();
    if (!r.ok() || !memoryGeometryValid(launch.memoryCapacity,
                                        launch.memoryImage.size())) {
        r.fail();
        return false;
    }
    job->inlined =
        std::make_shared<const InlineLaunch>(std::move(launch));
    return true;
}

} // namespace

void
writeRequest(ByteWriter &w, const AnalysisRequest &req)
{
    w.u32(req.schemaVersion);
    w.str(req.jobName);
    w.str(req.clientId);
    w.u64(req.kernels.size());
    for (const KernelJob &job : req.kernels)
        writeJobBin(w, job);
    w.u64(req.specs.size());
    for (const arch::GpuSpec &spec : req.specs)
        writeSpecBin(w, spec);
    writeSweepBin(w, req.sweep);
    w.str(req.store.storeDir);
    w.str(req.store.calibrationCacheDir);
    w.b(req.store.reuseStoredResults);
    w.i32(req.exec.numThreads);
    w.u8(static_cast<uint8_t>(req.exec.engine));
    w.u8(static_cast<uint8_t>(req.exec.pipeline));
    w.b(req.exec.shareTiming);
    w.u8(static_cast<uint8_t>(req.exec.delivery));
}

bool
readRequest(ByteReader &r, AnalysisRequest *req)
{
    req->schemaVersion = r.u32();
    if (req->schemaVersion != kSchemaVersion) {
        r.fail();
        return false;
    }
    req->jobName = r.str();
    req->clientId = r.str();
    const uint64_t kernels = r.u64();
    if (!r.ok() || kernels > (1u << 20)) {
        r.fail();
        return false;
    }
    for (uint64_t i = 0; i < kernels; ++i) {
        KernelJob job;
        if (!readJobBin(r, &job))
            return false;
        req->kernels.push_back(std::move(job));
    }
    const uint64_t specs = r.u64();
    if (!r.ok() || specs > (1u << 20)) {
        r.fail();
        return false;
    }
    for (uint64_t i = 0; i < specs; ++i) {
        arch::GpuSpec spec;
        if (!readSpecBin(r, &spec))
            return false;
        req->specs.push_back(std::move(spec));
    }
    if (!readSweepBin(r, &req->sweep))
        return false;
    req->store.storeDir = r.str();
    req->store.calibrationCacheDir = r.str();
    req->store.reuseStoredResults = r.b();
    req->exec.numThreads = r.i32();
    const uint8_t engine = r.u8();
    if (engine > static_cast<uint8_t>(timing::ReplayEngine::kAuto)) {
        r.fail();
        return false;
    }
    req->exec.engine = static_cast<timing::ReplayEngine>(engine);
    const uint8_t pipeline = r.u8();
    if (pipeline > static_cast<uint8_t>(
                       ExecutionPolicy::Pipeline::kPerCell)) {
        r.fail();
        return false;
    }
    req->exec.pipeline =
        static_cast<ExecutionPolicy::Pipeline>(pipeline);
    req->exec.shareTiming = r.b();
    const uint8_t delivery = r.u8();
    if (delivery > static_cast<uint8_t>(
                       ExecutionPolicy::Delivery::kStream)) {
        r.fail();
        return false;
    }
    req->exec.delivery =
        static_cast<ExecutionPolicy::Delivery>(delivery);
    return r.ok();
}

void
writeResponse(ByteWriter &w, const AnalysisResponse &resp)
{
    w.u32(resp.schemaVersion);
    w.str(resp.jobName);
    w.u32(resp.numKernels);
    w.u32(resp.numSpecs);
    w.u64(resp.cells.size());
    for (const driver::BatchResult &cell : resp.cells) {
        w.b(cell.ok);
        w.str(cell.error);
        store::writeBatchResult(w, cell);
    }
}

bool
readResponse(ByteReader &r, AnalysisResponse *resp)
{
    resp->schemaVersion = r.u32();
    if (resp->schemaVersion != kSchemaVersion) {
        r.fail();
        return false;
    }
    resp->jobName = r.str();
    resp->numKernels = r.u32();
    resp->numSpecs = r.u32();
    const uint64_t cells = r.u64();
    if (!r.ok() || cells > (1u << 24)) {
        r.fail();
        return false;
    }
    for (uint64_t i = 0; i < cells; ++i) {
        driver::BatchResult cell;
        cell.ok = r.b();
        cell.error = r.str();
        if (!store::readBatchResult(r, &cell))
            return false;
        resp->cells.push_back(std::move(cell));
    }
    return r.ok();
}

// =====================================================================
// JSON
// =====================================================================

namespace {

// --- Emission helpers -------------------------------------------------

/** Finite doubles as numbers; NaN/Inf as tagged strings. */
Json
jnum(double v)
{
    if (std::isfinite(v))
        return Json::number(v);
    if (std::isnan(v))
        return Json::str("nan");
    return Json::str(v > 0 ? "inf" : "-inf");
}

/** 64-bit counters as decimal strings (beyond 2^53 digits matter). */
Json
ju64(uint64_t v)
{
    return Json::str(std::to_string(v));
}

// --- Reading helpers --------------------------------------------------

bool
jfail(std::string *error, const std::string &what)
{
    if (error && error->empty())
        *error = what;
    return false;
}

const Json *
member(const Json &obj, const char *key, std::string *error)
{
    if (!obj.isObject())
        return jfail(error, std::string("expected object around '") +
                                key + "'"),
               nullptr;
    const Json *v = obj.find(key);
    if (!v)
        jfail(error, std::string("missing field '") + key + "'");
    return v;
}

bool
getBool(const Json &obj, const char *key, bool *out, std::string *error)
{
    const Json *v = member(obj, key, error);
    if (!v)
        return false;
    if (!v->isBool())
        return jfail(error, std::string("field '") + key +
                                "' must be a boolean");
    *out = v->asBool();
    return true;
}

bool
getF64Value(const Json &v, const char *key, double *out,
            std::string *error)
{
    if (v.isNumber()) {
        *out = v.asNumber();
        return true;
    }
    if (v.isString()) {
        const std::string &s = v.asString();
        if (s == "nan") {
            *out = std::nan("");
            return true;
        }
        if (s == "inf") {
            *out = HUGE_VAL;
            return true;
        }
        if (s == "-inf") {
            *out = -HUGE_VAL;
            return true;
        }
    }
    return jfail(error, std::string("field '") + key +
                            "' must be a number (or nan/inf string)");
}

bool
getF64(const Json &obj, const char *key, double *out, std::string *error)
{
    const Json *v = member(obj, key, error);
    return v && getF64Value(*v, key, out, error);
}

bool
getI32(const Json &obj, const char *key, int *out, std::string *error)
{
    const Json *v = member(obj, key, error);
    if (!v)
        return false;
    // Range-check before the cast: converting an out-of-range double
    // to int is undefined behaviour, and the value came off the wire.
    if (!v->isNumber() || !(v->asNumber() >= -2147483648.0) ||
        !(v->asNumber() <= 2147483647.0))
        return jfail(error, std::string("field '") + key +
                                "' must be a 32-bit integer");
    *out = static_cast<int>(v->asNumber());
    return true;
}

bool
getU64Value(const Json &v, const char *key, uint64_t *out,
            std::string *error)
{
    // 2^64 as a double; values at or above it (or negative) would
    // make the cast undefined behaviour.
    if (v.isNumber() && v.asNumber() >= 0 &&
        v.asNumber() < 18446744073709551616.0) {
        *out = static_cast<uint64_t>(v.asNumber());
        return true;
    }
    if (v.isString()) {
        const std::string &s = v.asString();
        char *end = nullptr;
        const unsigned long long parsed =
            std::strtoull(s.c_str(), &end, 10);
        if (end && *end == '\0' && !s.empty()) {
            *out = parsed;
            return true;
        }
    }
    return jfail(error, std::string("field '") + key +
                            "' must be an unsigned integer (number or "
                            "decimal string)");
}

bool
getU64(const Json &obj, const char *key, uint64_t *out,
       std::string *error)
{
    const Json *v = member(obj, key, error);
    return v && getU64Value(*v, key, out, error);
}

bool
getString(const Json &obj, const char *key, std::string *out,
          std::string *error)
{
    const Json *v = member(obj, key, error);
    if (!v)
        return false;
    if (!v->isString())
        return jfail(error, std::string("field '") + key +
                                "' must be a string");
    *out = v->asString();
    return true;
}

const Json *
getArray(const Json &obj, const char *key, std::string *error)
{
    const Json *v = member(obj, key, error);
    if (!v)
        return nullptr;
    if (!v->isArray()) {
        jfail(error,
              std::string("field '") + key + "' must be an array");
        return nullptr;
    }
    return v;
}

const Json *
getObject(const Json &obj, const char *key, std::string *error)
{
    const Json *v = member(obj, key, error);
    if (!v)
        return nullptr;
    if (!v->isObject()) {
        jfail(error,
              std::string("field '") + key + "' must be an object");
        return nullptr;
    }
    return v;
}

// --- Enum names -------------------------------------------------------

const char *
engineName(timing::ReplayEngine e)
{
    switch (e) {
      case timing::ReplayEngine::kEventDriven: return "event-driven";
      case timing::ReplayEngine::kLegacyScan: return "legacy-scan";
      case timing::ReplayEngine::kAuto: return "auto";
    }
    return "event-driven";
}

bool
engineFromName(const std::string &s, timing::ReplayEngine *out)
{
    if (s == "event-driven")
        *out = timing::ReplayEngine::kEventDriven;
    else if (s == "legacy-scan")
        *out = timing::ReplayEngine::kLegacyScan;
    else if (s == "auto")
        *out = timing::ReplayEngine::kAuto;
    else
        return false;
    return true;
}

const char *
whatIfKindName(driver::SweepPoint::Kind kind)
{
    switch (kind) {
      case driver::SweepPoint::Kind::kNoBankConflicts:
        return "no-bank-conflicts";
      case driver::SweepPoint::Kind::kWarpsPerSm:
        return "warps-per-sm";
      case driver::SweepPoint::Kind::kCoalescingFraction:
        return "coalescing-fraction";
    }
    return "no-bank-conflicts";
}

bool
whatIfKindFromName(const std::string &s, driver::SweepPoint::Kind *out)
{
    if (s == "no-bank-conflicts")
        *out = driver::SweepPoint::Kind::kNoBankConflicts;
    else if (s == "warps-per-sm")
        *out = driver::SweepPoint::Kind::kWarpsPerSm;
    else if (s == "coalescing-fraction")
        *out = driver::SweepPoint::Kind::kCoalescingFraction;
    else
        return false;
    return true;
}

// --- Schema pieces: request -------------------------------------------

Json
kernelJobToJson(const KernelJob &job)
{
    Json j = Json::object();
    j.set("name", Json::str(job.name));
    if (!job.isInline()) {
        Json ref = Json::object();
        ref.set("factory", Json::str(job.ref.factory));
        Json iargs = Json::array();
        for (int64_t v : job.ref.iargs)
            iargs.push(Json::number(static_cast<double>(v)));
        ref.set("iargs", std::move(iargs));
        Json fargs = Json::array();
        for (double v : job.ref.fargs)
            fargs.push(jnum(v));
        ref.set("fargs", std::move(fargs));
        j.set("case", std::move(ref));
        return j;
    }
    const InlineLaunch &in = *job.inlined;
    Json launch = Json::object();
    Json kernel = Json::object();
    kernel.set("name", Json::str(in.kernel.name()));
    kernel.set("registers", Json::number(in.kernel.numRegisters()));
    kernel.set("predicates", Json::number(in.kernel.numPredicates()));
    kernel.set("sharedBytes", Json::number(in.kernel.sharedBytes()));
    Json instrs = Json::array();
    for (const isa::Instruction &i : in.kernel.instructions()) {
        // Flat tuple [op, dst, s0, s1, s2, imm, useImm, pred,
        // predNegate, cmp, sreg] — compact and order-stable.
        Json t = Json::array();
        t.push(Json::number(static_cast<double>(i.op)));
        t.push(Json::number(i.dst));
        t.push(Json::number(i.src[0]));
        t.push(Json::number(i.src[1]));
        t.push(Json::number(i.src[2]));
        t.push(Json::number(i.imm));
        t.push(Json::number(i.useImm ? 1 : 0));
        t.push(Json::number(i.pred));
        t.push(Json::number(i.predNegate ? 1 : 0));
        t.push(Json::number(static_cast<double>(i.cmp)));
        t.push(Json::number(static_cast<double>(i.sreg)));
        instrs.push(std::move(t));
    }
    kernel.set("instructions", std::move(instrs));
    launch.set("kernel", std::move(kernel));
    launch.set("gridDim", Json::number(in.cfg.gridDim));
    launch.set("blockDim", Json::number(in.cfg.blockDim));
    Json options = Json::object();
    options.set("collectTrace", Json::boolean(in.options.collectTrace));
    options.set("homogeneous", Json::boolean(in.options.homogeneous));
    options.set("sampleBlocks", Json::number(in.options.sampleBlocks));
    options.set("maxWarpOps", ju64(in.options.maxWarpOps));
    launch.set("options", std::move(options));
    Json memory = Json::object();
    memory.set("capacity", ju64(in.memoryCapacity));
    memory.set("image", Json::str(hexEncode(in.memoryImage)));
    launch.set("memory", std::move(memory));
    j.set("inline", std::move(launch));
    return j;
}

bool
kernelJobFromJson(const Json &j, KernelJob *job, std::string *error)
{
    if (!getString(j, "name", &job->name, error))
        return false;
    const Json *inlined = j.isObject() ? j.find("inline") : nullptr;
    if (!inlined) {
        const Json *ref = getObject(j, "case", error);
        if (!ref)
            return jfail(error, "kernel job needs 'case' or 'inline'");
        if (!getString(*ref, "factory", &job->ref.factory, error))
            return false;
        if (const Json *iargs = getArray(*ref, "iargs", error)) {
            for (size_t i = 0; i < iargs->size(); ++i) {
                // Bounded to the exactly-representable integer range
                // before the cast (out-of-range double-to-int64 is
                // undefined behaviour on wire input).
                const Json &v = iargs->at(i);
                if (!v.isNumber() ||
                    !(v.asNumber() >= -9007199254740992.0) ||
                    !(v.asNumber() <= 9007199254740992.0))
                    return jfail(error,
                                 "iargs must be integers within "
                                 "+/-2^53");
                job->ref.iargs.push_back(
                    static_cast<int64_t>(v.asNumber()));
            }
        } else {
            return false;
        }
        if (const Json *fargs = getArray(*ref, "fargs", error)) {
            for (size_t i = 0; i < fargs->size(); ++i) {
                double v = 0.0;
                if (!getF64Value(fargs->at(i), "fargs", &v, error))
                    return false;
                job->ref.fargs.push_back(v);
            }
        } else {
            return false;
        }
        return true;
    }
    const Json *kernel = getObject(*inlined, "kernel", error);
    if (!kernel)
        return false;
    std::string kname;
    int regs = 0, preds = 0, shared = 0;
    if (!getString(*kernel, "name", &kname, error) ||
        !getI32(*kernel, "registers", &regs, error) ||
        !getI32(*kernel, "predicates", &preds, error) ||
        !getI32(*kernel, "sharedBytes", &shared, error)) {
        return false;
    }
    const Json *instrs = getArray(*kernel, "instructions", error);
    if (!instrs)
        return false;
    std::vector<isa::Instruction> list;
    list.reserve(instrs->size());
    for (size_t i = 0; i < instrs->size(); ++i) {
        const Json &t = instrs->at(i);
        if (!t.isArray() || t.size() != 11)
            return jfail(error,
                         "instruction tuples must have 11 fields");
        // Per-field bounds matched to the destination types, checked
        // BEFORE any cast (an out-of-range double-to-integer
        // conversion is undefined behaviour on wire input): register
        // operands are u16, the predicate u8, imm i32.
        static const double kLo[11] = {0, 0, 0, 0, 0, -2147483648.0,
                                       0, 0, 0, 0, 0};
        static const double kHi[11] = {
            2147483647.0, 65535.0, 65535.0,      65535.0,
            65535.0,      2147483647.0, 2147483647.0, 255.0,
            2147483647.0, 2147483647.0, 2147483647.0};
        for (size_t k = 0; k < 11; ++k) {
            if (!t.at(k).isNumber() ||
                !(t.at(k).asNumber() >= kLo[k]) ||
                !(t.at(k).asNumber() <= kHi[k]))
                return jfail(error,
                             "instruction field out of range");
        }
        isa::Instruction in;
        const int op = static_cast<int>(t.at(0).asNumber());
        if (op < 0 ||
            op >= static_cast<int>(isa::Opcode::kNumOpcodes))
            return jfail(error, "instruction opcode out of range");
        in.op = static_cast<isa::Opcode>(op);
        in.dst = static_cast<isa::Reg>(t.at(1).asNumber());
        in.src[0] = static_cast<isa::Reg>(t.at(2).asNumber());
        in.src[1] = static_cast<isa::Reg>(t.at(3).asNumber());
        in.src[2] = static_cast<isa::Reg>(t.at(4).asNumber());
        in.imm = static_cast<int32_t>(t.at(5).asNumber());
        in.useImm = t.at(6).asNumber() != 0;
        in.pred = static_cast<isa::Pred>(t.at(7).asNumber());
        in.predNegate = t.at(8).asNumber() != 0;
        const int cmp = static_cast<int>(t.at(9).asNumber());
        if (cmp < 0 || cmp > static_cast<int>(isa::CmpOp::kNe))
            return jfail(error, "instruction cmp out of range");
        in.cmp = static_cast<isa::CmpOp>(cmp);
        const int sreg = static_cast<int>(t.at(10).asNumber());
        if (sreg < 0 ||
            sreg > static_cast<int>(isa::SpecialReg::kWarpId))
            return jfail(error, "instruction sreg out of range");
        in.sreg = static_cast<isa::SpecialReg>(sreg);
        list.push_back(in);
    }
    if (regs < 0 || preds < 0 || shared < 0)
        return jfail(error, "kernel resources must be non-negative");
    const std::string structural =
        kernelStructureError(list, regs, preds);
    if (!structural.empty())
        return jfail(error, "kernel '" + kname + "': " + structural);
    isa::Kernel k(kname, std::move(list), regs, preds, shared);
    funcsim::LaunchConfig cfg;
    if (!getI32(*inlined, "gridDim", &cfg.gridDim, error) ||
        !getI32(*inlined, "blockDim", &cfg.blockDim, error)) {
        return false;
    }
    const Json *options = getObject(*inlined, "options", error);
    if (!options)
        return false;
    funcsim::RunOptions run;
    if (!getBool(*options, "collectTrace", &run.collectTrace, error) ||
        !getBool(*options, "homogeneous", &run.homogeneous, error) ||
        !getI32(*options, "sampleBlocks", &run.sampleBlocks, error) ||
        !getU64(*options, "maxWarpOps", &run.maxWarpOps, error)) {
        return false;
    }
    const Json *memory = getObject(*inlined, "memory", error);
    if (!memory)
        return false;
    InlineLaunch launch{std::move(k), cfg, run, 0, {}};
    std::string image_hex;
    if (!getU64(*memory, "capacity", &launch.memoryCapacity, error) ||
        !getString(*memory, "image", &image_hex, error)) {
        return false;
    }
    if (!hexDecode(image_hex, &launch.memoryImage))
        return jfail(error, "memory image is not valid hex");
    if (!memoryGeometryValid(launch.memoryCapacity,
                             launch.memoryImage.size()))
        return jfail(error, "memory geometry out of range");
    job->inlined =
        std::make_shared<const InlineLaunch>(std::move(launch));
    return true;
}

Json
specToJson(const arch::GpuSpec &s)
{
    Json j = Json::object();
    j.set("name", Json::str(s.name));
    j.set("numSms", Json::number(s.numSms));
    j.set("smsPerCluster", Json::number(s.smsPerCluster));
    j.set("spsPerSm", Json::number(s.spsPerSm));
    j.set("sfuMulPerSm", Json::number(s.sfuMulPerSm));
    j.set("sfuPerSm", Json::number(s.sfuPerSm));
    j.set("dpPerSm", Json::number(s.dpPerSm));
    j.set("warpSize", Json::number(s.warpSize));
    j.set("coreClockHz", jnum(s.coreClockHz));
    j.set("registersPerSm", Json::number(s.registersPerSm));
    j.set("sharedMemPerSm", Json::number(s.sharedMemPerSm));
    j.set("maxThreadsPerSm", Json::number(s.maxThreadsPerSm));
    j.set("maxThreadsPerBlock", Json::number(s.maxThreadsPerBlock));
    j.set("maxBlocksPerSm", Json::number(s.maxBlocksPerSm));
    j.set("maxWarpsPerSm", Json::number(s.maxWarpsPerSm));
    j.set("registerAllocUnit", Json::number(s.registerAllocUnit));
    j.set("sharedAllocUnit", Json::number(s.sharedAllocUnit));
    j.set("sharedStaticPerBlock",
          Json::number(s.sharedStaticPerBlock));
    j.set("numSharedBanks", Json::number(s.numSharedBanks));
    j.set("sharedBankWidth", Json::number(s.sharedBankWidth));
    j.set("sharedIssueGroup", Json::number(s.sharedIssueGroup));
    j.set("memClockHz", jnum(s.memClockHz));
    j.set("busWidthBits", Json::number(s.busWidthBits));
    j.set("coalesceGroup", Json::number(s.coalesceGroup));
    j.set("minSegmentBytes", Json::number(s.minSegmentBytes));
    j.set("maxSegmentBytes", Json::number(s.maxSegmentBytes));
    j.set("aluDepCycles", Json::number(s.aluDepCycles));
    j.set("sharedDepCycles", Json::number(s.sharedDepCycles));
    j.set("warpSharedPassIntervalCycles",
          jnum(s.warpSharedPassIntervalCycles));
    j.set("globalLatencyCycles", Json::number(s.globalLatencyCycles));
    j.set("transactionOverheadCycles",
          Json::number(s.transactionOverheadCycles));
    j.set("issueOverheadCycles", jnum(s.issueOverheadCycles));
    j.set("textureCacheEnabled",
          Json::boolean(s.textureCacheEnabled));
    j.set("textureCacheBytesPerCluster",
          Json::number(s.textureCacheBytesPerCluster));
    j.set("textureCacheLineBytes",
          Json::number(s.textureCacheLineBytes));
    j.set("textureCacheWays", Json::number(s.textureCacheWays));
    j.set("textureHitLatencyCycles",
          Json::number(s.textureHitLatencyCycles));
    return j;
}

bool
specFromJson(const Json &j, arch::GpuSpec *s, std::string *error)
{
    return getString(j, "name", &s->name, error) &&
           getI32(j, "numSms", &s->numSms, error) &&
           getI32(j, "smsPerCluster", &s->smsPerCluster, error) &&
           getI32(j, "spsPerSm", &s->spsPerSm, error) &&
           getI32(j, "sfuMulPerSm", &s->sfuMulPerSm, error) &&
           getI32(j, "sfuPerSm", &s->sfuPerSm, error) &&
           getI32(j, "dpPerSm", &s->dpPerSm, error) &&
           getI32(j, "warpSize", &s->warpSize, error) &&
           getF64(j, "coreClockHz", &s->coreClockHz, error) &&
           getI32(j, "registersPerSm", &s->registersPerSm, error) &&
           getI32(j, "sharedMemPerSm", &s->sharedMemPerSm, error) &&
           getI32(j, "maxThreadsPerSm", &s->maxThreadsPerSm, error) &&
           getI32(j, "maxThreadsPerBlock", &s->maxThreadsPerBlock,
                  error) &&
           getI32(j, "maxBlocksPerSm", &s->maxBlocksPerSm, error) &&
           getI32(j, "maxWarpsPerSm", &s->maxWarpsPerSm, error) &&
           getI32(j, "registerAllocUnit", &s->registerAllocUnit,
                  error) &&
           getI32(j, "sharedAllocUnit", &s->sharedAllocUnit, error) &&
           getI32(j, "sharedStaticPerBlock",
                  &s->sharedStaticPerBlock, error) &&
           getI32(j, "numSharedBanks", &s->numSharedBanks, error) &&
           getI32(j, "sharedBankWidth", &s->sharedBankWidth, error) &&
           getI32(j, "sharedIssueGroup", &s->sharedIssueGroup,
                  error) &&
           getF64(j, "memClockHz", &s->memClockHz, error) &&
           getI32(j, "busWidthBits", &s->busWidthBits, error) &&
           getI32(j, "coalesceGroup", &s->coalesceGroup, error) &&
           getI32(j, "minSegmentBytes", &s->minSegmentBytes, error) &&
           getI32(j, "maxSegmentBytes", &s->maxSegmentBytes, error) &&
           getI32(j, "aluDepCycles", &s->aluDepCycles, error) &&
           getI32(j, "sharedDepCycles", &s->sharedDepCycles, error) &&
           getF64(j, "warpSharedPassIntervalCycles",
                  &s->warpSharedPassIntervalCycles, error) &&
           getI32(j, "globalLatencyCycles", &s->globalLatencyCycles,
                  error) &&
           getI32(j, "transactionOverheadCycles",
                  &s->transactionOverheadCycles, error) &&
           getF64(j, "issueOverheadCycles", &s->issueOverheadCycles,
                  error) &&
           getBool(j, "textureCacheEnabled", &s->textureCacheEnabled,
                   error) &&
           getI32(j, "textureCacheBytesPerCluster",
                  &s->textureCacheBytesPerCluster, error) &&
           getI32(j, "textureCacheLineBytes",
                  &s->textureCacheLineBytes, error) &&
           getI32(j, "textureCacheWays", &s->textureCacheWays,
                  error) &&
           getI32(j, "textureHitLatencyCycles",
                  &s->textureHitLatencyCycles, error);
}

Json
sweepToJson(const driver::SweepSpec &s)
{
    Json j = Json::object();
    j.set("noBankConflicts", Json::boolean(s.noBankConflicts));
    Json warps = Json::array();
    for (double v : s.warpsPerSm)
        warps.push(jnum(v));
    j.set("warpsPerSm", std::move(warps));
    Json fracs = Json::array();
    for (double v : s.coalescingFractions)
        fracs.push(jnum(v));
    j.set("coalescingFractions", std::move(fracs));
    return j;
}

bool
sweepFromJson(const Json &j, driver::SweepSpec *s, std::string *error)
{
    if (!getBool(j, "noBankConflicts", &s->noBankConflicts, error))
        return false;
    const Json *warps = getArray(j, "warpsPerSm", error);
    if (!warps)
        return false;
    for (size_t i = 0; i < warps->size(); ++i) {
        double v = 0.0;
        if (!getF64Value(warps->at(i), "warpsPerSm", &v, error))
            return false;
        s->warpsPerSm.push_back(v);
    }
    const Json *fracs = getArray(j, "coalescingFractions", error);
    if (!fracs)
        return false;
    for (size_t i = 0; i < fracs->size(); ++i) {
        double v = 0.0;
        if (!getF64Value(fracs->at(i), "coalescingFractions", &v,
                         error))
            return false;
        s->coalescingFractions.push_back(v);
    }
    return true;
}

// --- Schema pieces: response (the deep Analysis mirror) ---------------

Json
occupancyToJson(const arch::Occupancy &o)
{
    Json j = Json::object();
    j.set("blocksByRegisters", Json::number(o.blocksByRegisters));
    j.set("blocksBySharedMem", Json::number(o.blocksBySharedMem));
    j.set("blocksByThreads", Json::number(o.blocksByThreads));
    j.set("blocksByBlockLimit", Json::number(o.blocksByBlockLimit));
    j.set("blocksByWarpLimit", Json::number(o.blocksByWarpLimit));
    j.set("residentBlocks", Json::number(o.residentBlocks));
    j.set("residentWarps", Json::number(o.residentWarps));
    j.set("limit", Json::number(static_cast<double>(o.limit)));
    j.set("warpsPerBlock", Json::number(o.warpsPerBlock));
    return j;
}

bool
occupancyFromJson(const Json &j, arch::Occupancy *o, std::string *error)
{
    int limit = 0;
    if (!getI32(j, "blocksByRegisters", &o->blocksByRegisters,
                error) ||
        !getI32(j, "blocksBySharedMem", &o->blocksBySharedMem,
                error) ||
        !getI32(j, "blocksByThreads", &o->blocksByThreads, error) ||
        !getI32(j, "blocksByBlockLimit", &o->blocksByBlockLimit,
                error) ||
        !getI32(j, "blocksByWarpLimit", &o->blocksByWarpLimit,
                error) ||
        !getI32(j, "residentBlocks", &o->residentBlocks, error) ||
        !getI32(j, "residentWarps", &o->residentWarps, error) ||
        !getI32(j, "limit", &limit, error) ||
        !getI32(j, "warpsPerBlock", &o->warpsPerBlock, error)) {
        return false;
    }
    if (limit < 0 ||
        limit > static_cast<int>(arch::OccupancyLimit::Warps))
        return jfail(error, "occupancy limit out of range");
    o->limit = static_cast<arch::OccupancyLimit>(limit);
    return true;
}

Json
stageStatsToJson(const funcsim::StageStats &s)
{
    Json j = Json::object();
    Json counts = Json::array();
    for (uint64_t c : s.typeCounts)
        counts.push(ju64(c));
    j.set("typeCounts", std::move(counts));
    j.set("madCount", ju64(s.madCount));
    j.set("totalWarpInstrs", ju64(s.totalWarpInstrs));
    j.set("sharedInstrs", ju64(s.sharedInstrs));
    j.set("globalInstrs", ju64(s.globalInstrs));
    j.set("sharedTransactions", ju64(s.sharedTransactions));
    j.set("sharedTransactionsIdeal",
          ju64(s.sharedTransactionsIdeal));
    j.set("sharedBytes", ju64(s.sharedBytes));
    j.set("globalTransactions", ju64(s.globalTransactions));
    j.set("globalBytes", ju64(s.globalBytes));
    j.set("globalRequestBytes", ju64(s.globalRequestBytes));
    Json sizes = Json::array();
    for (const auto &[size, count] : s.globalXactBySize) {
        Json pair = Json::array();
        pair.push(Json::number(size));
        pair.push(ju64(count));
        sizes.push(std::move(pair));
    }
    j.set("globalXactBySize", std::move(sizes));
    j.set("activeWarpsPerBlock", jnum(s.activeWarpsPerBlock));
    return j;
}

bool
stageStatsFromJson(const Json &j, funcsim::StageStats *s,
                   std::string *error)
{
    const Json *counts = getArray(j, "typeCounts", error);
    if (!counts)
        return false;
    if (counts->size() != s->typeCounts.size())
        return jfail(error, "typeCounts has the wrong arity");
    for (size_t i = 0; i < counts->size(); ++i) {
        if (!getU64Value(counts->at(i), "typeCounts",
                         &s->typeCounts[i], error))
            return false;
    }
    if (!getU64(j, "madCount", &s->madCount, error) ||
        !getU64(j, "totalWarpInstrs", &s->totalWarpInstrs, error) ||
        !getU64(j, "sharedInstrs", &s->sharedInstrs, error) ||
        !getU64(j, "globalInstrs", &s->globalInstrs, error) ||
        !getU64(j, "sharedTransactions", &s->sharedTransactions,
                error) ||
        !getU64(j, "sharedTransactionsIdeal",
                &s->sharedTransactionsIdeal, error) ||
        !getU64(j, "sharedBytes", &s->sharedBytes, error) ||
        !getU64(j, "globalTransactions", &s->globalTransactions,
                error) ||
        !getU64(j, "globalBytes", &s->globalBytes, error) ||
        !getU64(j, "globalRequestBytes", &s->globalRequestBytes,
                error)) {
        return false;
    }
    const Json *sizes = getArray(j, "globalXactBySize", error);
    if (!sizes)
        return false;
    for (size_t i = 0; i < sizes->size(); ++i) {
        const Json &pair = sizes->at(i);
        if (!pair.isArray() || pair.size() != 2 ||
            !pair.at(0).isNumber())
            return jfail(error, "globalXactBySize must hold "
                                "[size, count] pairs");
        uint64_t count = 0;
        if (!getU64Value(pair.at(1), "globalXactBySize", &count,
                         error))
            return false;
        s->globalXactBySize[static_cast<int>(
            pair.at(0).asNumber())] = count;
    }
    return getF64(j, "activeWarpsPerBlock", &s->activeWarpsPerBlock,
                  error);
}

Json
statsToJson(const funcsim::DynamicStats &stats)
{
    Json j = Json::object();
    Json stages = Json::array();
    for (const funcsim::StageStats &s : stats.stages)
        stages.push(stageStatsToJson(s));
    j.set("stages", std::move(stages));
    j.set("gridDim", Json::number(stats.gridDim));
    j.set("blockDim", Json::number(stats.blockDim));
    j.set("warpsPerBlock", Json::number(stats.warpsPerBlock));
    j.set("barriersPerBlock", Json::number(stats.barriersPerBlock));
    j.set("sampledBlocks", Json::number(stats.sampledBlocks));
    return j;
}

bool
statsFromJson(const Json &j, funcsim::DynamicStats *stats,
              std::string *error)
{
    const Json *stages = getArray(j, "stages", error);
    if (!stages)
        return false;
    for (size_t i = 0; i < stages->size(); ++i) {
        funcsim::StageStats s;
        if (!stageStatsFromJson(stages->at(i), &s, error))
            return false;
        stats->stages.push_back(std::move(s));
    }
    return getI32(j, "gridDim", &stats->gridDim, error) &&
           getI32(j, "blockDim", &stats->blockDim, error) &&
           getI32(j, "warpsPerBlock", &stats->warpsPerBlock, error) &&
           getI32(j, "barriersPerBlock", &stats->barriersPerBlock,
                  error) &&
           getI32(j, "sampledBlocks", &stats->sampledBlocks, error);
}

Json
timingToJson(const timing::TimingResult &t)
{
    Json j = Json::object();
    j.set("cycles", jnum(t.cycles));
    j.set("seconds", jnum(t.seconds));
    j.set("totalOps", ju64(t.totalOps));
    j.set("arithBusyCycles", jnum(t.arithBusyCycles));
    j.set("sharedBusyCycles", jnum(t.sharedBusyCycles));
    j.set("portBusyCycles", jnum(t.portBusyCycles));
    j.set("texHits", ju64(t.texHits));
    j.set("texMisses", ju64(t.texMisses));
    j.set("occupancy", occupancyToJson(t.occupancy));
    return j;
}

bool
timingFromJson(const Json &j, timing::TimingResult *t,
               std::string *error)
{
    const Json *occ = getObject(j, "occupancy", error);
    return occ && getF64(j, "cycles", &t->cycles, error) &&
           getF64(j, "seconds", &t->seconds, error) &&
           getU64(j, "totalOps", &t->totalOps, error) &&
           getF64(j, "arithBusyCycles", &t->arithBusyCycles, error) &&
           getF64(j, "sharedBusyCycles", &t->sharedBusyCycles,
                  error) &&
           getF64(j, "portBusyCycles", &t->portBusyCycles, error) &&
           getU64(j, "texHits", &t->texHits, error) &&
           getU64(j, "texMisses", &t->texMisses, error) &&
           occupancyFromJson(*occ, &t->occupancy, error);
}

Json
inputToJson(const model::ModelInput &in)
{
    Json j = Json::object();
    Json stages = Json::array();
    for (const model::StageInput &s : in.stages) {
        Json stage = Json::object();
        Json counts = Json::array();
        for (uint64_t c : s.typeCounts)
            counts.push(ju64(c));
        stage.set("typeCounts", std::move(counts));
        stage.set("madCount", ju64(s.madCount));
        stage.set("totalWarpInstrs", ju64(s.totalWarpInstrs));
        stage.set("sharedTransactions", ju64(s.sharedTransactions));
        stage.set("sharedTransactionsIdeal",
                  ju64(s.sharedTransactionsIdeal));
        stage.set("sharedBytes", ju64(s.sharedBytes));
        stage.set("globalTransactions", ju64(s.globalTransactions));
        stage.set("globalBytes", ju64(s.globalBytes));
        stage.set("globalRequestBytes", ju64(s.globalRequestBytes));
        stage.set("effective64Xacts", jnum(s.effective64Xacts));
        stage.set("activeWarpsPerSm", jnum(s.activeWarpsPerSm));
        stages.push(std::move(stage));
    }
    j.set("stages", std::move(stages));
    j.set("gridDim", Json::number(in.gridDim));
    j.set("blockDim", Json::number(in.blockDim));
    j.set("occupancy", occupancyToJson(in.occupancy));
    j.set("concurrentBlocksPerSm",
          Json::number(in.concurrentBlocksPerSm));
    j.set("stagesSerialized", Json::boolean(in.stagesSerialized));
    return j;
}

bool
inputFromJson(const Json &j, model::ModelInput *in, std::string *error)
{
    const Json *stages = getArray(j, "stages", error);
    if (!stages)
        return false;
    for (size_t i = 0; i < stages->size(); ++i) {
        const Json &stage = stages->at(i);
        model::StageInput s;
        const Json *counts = getArray(stage, "typeCounts", error);
        if (!counts)
            return false;
        if (counts->size() != s.typeCounts.size())
            return jfail(error, "typeCounts has the wrong arity");
        for (size_t k = 0; k < counts->size(); ++k) {
            if (!getU64Value(counts->at(k), "typeCounts",
                             &s.typeCounts[k], error))
                return false;
        }
        if (!getU64(stage, "madCount", &s.madCount, error) ||
            !getU64(stage, "totalWarpInstrs", &s.totalWarpInstrs,
                    error) ||
            !getU64(stage, "sharedTransactions",
                    &s.sharedTransactions, error) ||
            !getU64(stage, "sharedTransactionsIdeal",
                    &s.sharedTransactionsIdeal, error) ||
            !getU64(stage, "sharedBytes", &s.sharedBytes, error) ||
            !getU64(stage, "globalTransactions",
                    &s.globalTransactions, error) ||
            !getU64(stage, "globalBytes", &s.globalBytes, error) ||
            !getU64(stage, "globalRequestBytes",
                    &s.globalRequestBytes, error) ||
            !getF64(stage, "effective64Xacts", &s.effective64Xacts,
                    error) ||
            !getF64(stage, "activeWarpsPerSm", &s.activeWarpsPerSm,
                    error)) {
            return false;
        }
        in->stages.push_back(std::move(s));
    }
    const Json *occ = getObject(j, "occupancy", error);
    return occ && getI32(j, "gridDim", &in->gridDim, error) &&
           getI32(j, "blockDim", &in->blockDim, error) &&
           occupancyFromJson(*occ, &in->occupancy, error) &&
           getI32(j, "concurrentBlocksPerSm",
                  &in->concurrentBlocksPerSm, error) &&
           getBool(j, "stagesSerialized", &in->stagesSerialized,
                   error);
}

bool
componentFromInt(int v, model::Component *out, std::string *error)
{
    if (v < 0 || v > static_cast<int>(model::Component::kGlobal))
        return jfail(error, "bottleneck component out of range");
    *out = static_cast<model::Component>(v);
    return true;
}

Json
predictionToJson(const model::Prediction &p)
{
    Json j = Json::object();
    Json stages = Json::array();
    for (const model::StagePrediction &s : p.stages) {
        Json stage = Json::object();
        stage.set("tInstr", jnum(s.tInstr));
        stage.set("tShared", jnum(s.tShared));
        stage.set("tGlobal", jnum(s.tGlobal));
        stage.set("bottleneck",
                  Json::number(static_cast<double>(s.bottleneck)));
        stage.set("stageTime", jnum(s.stageTime));
        stage.set("activeWarpsPerSm", jnum(s.activeWarpsPerSm));
        stage.set("sharedBandwidth", jnum(s.sharedBandwidth));
        stages.push(std::move(stage));
    }
    j.set("stages", std::move(stages));
    j.set("serialized", Json::boolean(p.serialized));
    j.set("tInstrTotal", jnum(p.tInstrTotal));
    j.set("tSharedTotal", jnum(p.tSharedTotal));
    j.set("tGlobalTotal", jnum(p.tGlobalTotal));
    j.set("totalSeconds", jnum(p.totalSeconds));
    j.set("bottleneck",
          Json::number(static_cast<double>(p.bottleneck)));
    j.set("nextBottleneck",
          Json::number(static_cast<double>(p.nextBottleneck)));
    return j;
}

bool
predictionFromJson(const Json &j, model::Prediction *p,
                   std::string *error)
{
    const Json *stages = getArray(j, "stages", error);
    if (!stages)
        return false;
    for (size_t i = 0; i < stages->size(); ++i) {
        const Json &stage = stages->at(i);
        model::StagePrediction s;
        int bottleneck = 0;
        if (!getF64(stage, "tInstr", &s.tInstr, error) ||
            !getF64(stage, "tShared", &s.tShared, error) ||
            !getF64(stage, "tGlobal", &s.tGlobal, error) ||
            !getI32(stage, "bottleneck", &bottleneck, error) ||
            !componentFromInt(bottleneck, &s.bottleneck, error) ||
            !getF64(stage, "stageTime", &s.stageTime, error) ||
            !getF64(stage, "activeWarpsPerSm", &s.activeWarpsPerSm,
                    error) ||
            !getF64(stage, "sharedBandwidth", &s.sharedBandwidth,
                    error)) {
            return false;
        }
        p->stages.push_back(s);
    }
    int bottleneck = 0;
    int next = 0;
    return getBool(j, "serialized", &p->serialized, error) &&
           getF64(j, "tInstrTotal", &p->tInstrTotal, error) &&
           getF64(j, "tSharedTotal", &p->tSharedTotal, error) &&
           getF64(j, "tGlobalTotal", &p->tGlobalTotal, error) &&
           getF64(j, "totalSeconds", &p->totalSeconds, error) &&
           getI32(j, "bottleneck", &bottleneck, error) &&
           componentFromInt(bottleneck, &p->bottleneck, error) &&
           getI32(j, "nextBottleneck", &next, error) &&
           componentFromInt(next, &p->nextBottleneck, error);
}

Json
metricsToJson(const model::ReportMetrics &m)
{
    Json j = Json::object();
    j.set("computationalDensity", jnum(m.computationalDensity));
    j.set("bankConflictFactor", jnum(m.bankConflictFactor));
    j.set("coalescingEfficiency", jnum(m.coalescingEfficiency));
    j.set("avgActiveWarpsPerBlock", jnum(m.avgActiveWarpsPerBlock));
    return j;
}

bool
metricsFromJson(const Json &j, model::ReportMetrics *m,
                std::string *error)
{
    return getF64(j, "computationalDensity", &m->computationalDensity,
                  error) &&
           getF64(j, "bankConflictFactor", &m->bankConflictFactor,
                  error) &&
           getF64(j, "coalescingEfficiency",
                  &m->coalescingEfficiency, error) &&
           getF64(j, "avgActiveWarpsPerBlock",
                  &m->avgActiveWarpsPerBlock, error);
}

Json
cellToJson(const driver::BatchResult &cell)
{
    Json j = Json::object();
    j.set("kernel", Json::str(cell.kernelName));
    j.set("spec", Json::str(cell.specName));
    j.set("ok", Json::boolean(cell.ok));
    j.set("error", Json::str(cell.error));
    Json analysis = Json::object();
    analysis.set("stats", statsToJson(cell.analysis.measurement.stats));
    analysis.set("timing",
                 timingToJson(cell.analysis.measurement.timing));
    analysis.set("input", inputToJson(cell.analysis.input));
    analysis.set("prediction",
                 predictionToJson(cell.analysis.prediction));
    analysis.set("metrics", metricsToJson(cell.analysis.metrics));
    j.set("analysis", std::move(analysis));
    Json whatifs = Json::array();
    for (const driver::RankedWhatIf &wi : cell.whatifs) {
        Json w = Json::object();
        w.set("kind", Json::str(whatIfKindName(wi.point.kind)));
        w.set("value", jnum(wi.point.value));
        w.set("before", predictionToJson(wi.result.before));
        w.set("after", predictionToJson(wi.result.after));
        whatifs.push(std::move(w));
    }
    j.set("whatifs", std::move(whatifs));
    return j;
}

bool
cellFromJson(const Json &j, driver::BatchResult *cell,
             std::string *error)
{
    if (!getString(j, "kernel", &cell->kernelName, error) ||
        !getString(j, "spec", &cell->specName, error) ||
        !getBool(j, "ok", &cell->ok, error) ||
        !getString(j, "error", &cell->error, error)) {
        return false;
    }
    const Json *analysis = getObject(j, "analysis", error);
    if (!analysis)
        return false;
    const Json *stats = getObject(*analysis, "stats", error);
    const Json *timing = getObject(*analysis, "timing", error);
    const Json *input = getObject(*analysis, "input", error);
    const Json *prediction = getObject(*analysis, "prediction", error);
    const Json *metrics = getObject(*analysis, "metrics", error);
    if (!stats || !timing || !input || !prediction || !metrics)
        return false;
    if (!statsFromJson(*stats, &cell->analysis.measurement.stats,
                       error) ||
        !timingFromJson(*timing, &cell->analysis.measurement.timing,
                        error) ||
        !inputFromJson(*input, &cell->analysis.input, error) ||
        !predictionFromJson(*prediction, &cell->analysis.prediction,
                            error) ||
        !metricsFromJson(*metrics, &cell->analysis.metrics, error)) {
        return false;
    }
    const Json *whatifs = getArray(j, "whatifs", error);
    if (!whatifs)
        return false;
    for (size_t i = 0; i < whatifs->size(); ++i) {
        const Json &w = whatifs->at(i);
        driver::RankedWhatIf wi;
        std::string kind;
        const Json *before = getObject(w, "before", error);
        const Json *after = getObject(w, "after", error);
        if (!before || !after ||
            !getString(w, "kind", &kind, error) ||
            !getF64(w, "value", &wi.point.value, error)) {
            return false;
        }
        if (!whatIfKindFromName(kind, &wi.point.kind))
            return jfail(error, "unknown what-if kind '" + kind + "'");
        if (!predictionFromJson(*before, &wi.result.before, error) ||
            !predictionFromJson(*after, &wi.result.after, error)) {
            return false;
        }
        cell->whatifs.push_back(std::move(wi));
    }
    return true;
}

} // namespace

std::string
requestToJson(const AnalysisRequest &req)
{
    Json j = Json::object();
    j.set("schema", Json::number(req.schemaVersion));
    j.set("job", Json::str(req.jobName));
    j.set("client", Json::str(req.clientId));
    Json kernels = Json::array();
    for (const KernelJob &job : req.kernels)
        kernels.push(kernelJobToJson(job));
    j.set("kernels", std::move(kernels));
    Json specs = Json::array();
    for (const arch::GpuSpec &spec : req.specs)
        specs.push(specToJson(spec));
    j.set("specs", std::move(specs));
    j.set("sweep", sweepToJson(req.sweep));
    Json store = Json::object();
    store.set("dir", Json::str(req.store.storeDir));
    store.set("calibrationCacheDir",
              Json::str(req.store.calibrationCacheDir));
    store.set("reuseStoredResults",
              Json::boolean(req.store.reuseStoredResults));
    j.set("store", std::move(store));
    Json exec = Json::object();
    exec.set("numThreads", Json::number(req.exec.numThreads));
    exec.set("engine", Json::str(engineName(req.exec.engine)));
    exec.set("pipeline",
             Json::str(req.exec.pipeline ==
                               ExecutionPolicy::Pipeline::kShared
                           ? "shared"
                           : "per-cell"));
    exec.set("shareTiming", Json::boolean(req.exec.shareTiming));
    exec.set("delivery",
             Json::str(req.exec.delivery ==
                               ExecutionPolicy::Delivery::kCollect
                           ? "collect"
                           : "stream"));
    j.set("exec", std::move(exec));
    return j.dump();
}

bool
requestFromJson(const std::string &text, AnalysisRequest *req,
                std::string *error)
{
    Json j;
    if (!Json::parse(text, &j, error))
        return false;
    int schema = 0;
    if (!getI32(j, "schema", &schema, error))
        return false;
    if (schema != static_cast<int>(kSchemaVersion))
        return jfail(error, "unsupported schema version " +
                                std::to_string(schema));
    req->schemaVersion = static_cast<uint32_t>(schema);
    if (!getString(j, "job", &req->jobName, error))
        return false;
    // Optional for hand-authored requests; the writer always emits it.
    if (j.find("client") &&
        !getString(j, "client", &req->clientId, error)) {
        return false;
    }
    const Json *kernels = getArray(j, "kernels", error);
    if (!kernels)
        return false;
    for (size_t i = 0; i < kernels->size(); ++i) {
        KernelJob job;
        if (!kernelJobFromJson(kernels->at(i), &job, error))
            return false;
        req->kernels.push_back(std::move(job));
    }
    const Json *specs = getArray(j, "specs", error);
    if (!specs)
        return false;
    for (size_t i = 0; i < specs->size(); ++i) {
        arch::GpuSpec spec;
        if (!specFromJson(specs->at(i), &spec, error))
            return false;
        req->specs.push_back(std::move(spec));
    }
    const Json *sweep = getObject(j, "sweep", error);
    if (!sweep || !sweepFromJson(*sweep, &req->sweep, error))
        return false;
    const Json *store = getObject(j, "store", error);
    if (!store ||
        !getString(*store, "dir", &req->store.storeDir, error) ||
        !getString(*store, "calibrationCacheDir",
                   &req->store.calibrationCacheDir, error) ||
        !getBool(*store, "reuseStoredResults",
                 &req->store.reuseStoredResults, error)) {
        return false;
    }
    const Json *exec = getObject(j, "exec", error);
    if (!exec ||
        !getI32(*exec, "numThreads", &req->exec.numThreads, error) ||
        !getBool(*exec, "shareTiming", &req->exec.shareTiming,
                 error)) {
        return false;
    }
    std::string engine, pipeline, delivery;
    if (!getString(*exec, "engine", &engine, error) ||
        !getString(*exec, "pipeline", &pipeline, error) ||
        !getString(*exec, "delivery", &delivery, error)) {
        return false;
    }
    if (!engineFromName(engine, &req->exec.engine))
        return jfail(error, "unknown engine '" + engine + "'");
    if (pipeline == "shared")
        req->exec.pipeline = ExecutionPolicy::Pipeline::kShared;
    else if (pipeline == "per-cell")
        req->exec.pipeline = ExecutionPolicy::Pipeline::kPerCell;
    else
        return jfail(error, "unknown pipeline '" + pipeline + "'");
    if (delivery == "collect")
        req->exec.delivery = ExecutionPolicy::Delivery::kCollect;
    else if (delivery == "stream")
        req->exec.delivery = ExecutionPolicy::Delivery::kStream;
    else
        return jfail(error, "unknown delivery '" + delivery + "'");
    return true;
}

std::string
responseToJson(const AnalysisResponse &resp)
{
    Json j = Json::object();
    j.set("schema", Json::number(resp.schemaVersion));
    j.set("job", Json::str(resp.jobName));
    j.set("numKernels", Json::number(resp.numKernels));
    j.set("numSpecs", Json::number(resp.numSpecs));
    Json cells = Json::array();
    for (const driver::BatchResult &cell : resp.cells)
        cells.push(cellToJson(cell));
    j.set("cells", std::move(cells));
    return j.dump();
}

bool
responseFromJson(const std::string &text, AnalysisResponse *resp,
                 std::string *error)
{
    Json j;
    if (!Json::parse(text, &j, error))
        return false;
    int schema = 0;
    int kernels = 0;
    int specs = 0;
    if (!getI32(j, "schema", &schema, error))
        return false;
    if (schema != static_cast<int>(kSchemaVersion))
        return jfail(error, "unsupported schema version " +
                                std::to_string(schema));
    resp->schemaVersion = static_cast<uint32_t>(schema);
    if (!getString(j, "job", &resp->jobName, error) ||
        !getI32(j, "numKernels", &kernels, error) ||
        !getI32(j, "numSpecs", &specs, error)) {
        return false;
    }
    if (kernels < 0 || specs < 0)
        return jfail(error, "negative grid dimensions");
    resp->numKernels = static_cast<uint32_t>(kernels);
    resp->numSpecs = static_cast<uint32_t>(specs);
    const Json *cells = getArray(j, "cells", error);
    if (!cells)
        return false;
    for (size_t i = 0; i < cells->size(); ++i) {
        driver::BatchResult cell;
        if (!cellFromJson(cells->at(i), &cell, error))
            return false;
        resp->cells.push_back(std::move(cell));
    }
    return true;
}

// =====================================================================
// Equality
// =====================================================================

namespace {

/** Value-identity double comparison: bit patterns, NaN == NaN. */
bool
sameF64(double a, double b)
{
    uint64_t ba = 0;
    uint64_t bb = 0;
    std::memcpy(&ba, &a, sizeof(ba));
    std::memcpy(&bb, &b, sizeof(bb));
    // -0.0 and +0.0 differ in bits but compare equal; accept either
    // (no pipeline stage distinguishes them).
    return ba == bb || (a == 0.0 && b == 0.0);
}

bool
samePrediction(const model::Prediction &a, const model::Prediction &b)
{
    if (a.stages.size() != b.stages.size() ||
        a.serialized != b.serialized ||
        !sameF64(a.tInstrTotal, b.tInstrTotal) ||
        !sameF64(a.tSharedTotal, b.tSharedTotal) ||
        !sameF64(a.tGlobalTotal, b.tGlobalTotal) ||
        !sameF64(a.totalSeconds, b.totalSeconds) ||
        a.bottleneck != b.bottleneck ||
        a.nextBottleneck != b.nextBottleneck) {
        return false;
    }
    for (size_t i = 0; i < a.stages.size(); ++i) {
        const model::StagePrediction &sa = a.stages[i];
        const model::StagePrediction &sb = b.stages[i];
        if (!sameF64(sa.tInstr, sb.tInstr) ||
            !sameF64(sa.tShared, sb.tShared) ||
            !sameF64(sa.tGlobal, sb.tGlobal) ||
            sa.bottleneck != sb.bottleneck ||
            !sameF64(sa.stageTime, sb.stageTime) ||
            !sameF64(sa.activeWarpsPerSm, sb.activeWarpsPerSm) ||
            !sameF64(sa.sharedBandwidth, sb.sharedBandwidth)) {
            return false;
        }
    }
    return true;
}

/** Serialize-and-compare covers every remaining nested field. */
bool
sameAnalysisBytes(const driver::BatchResult &a,
                  const driver::BatchResult &b)
{
    ByteWriter wa;
    ByteWriter wb;
    store::writeBatchResult(wa, a);
    store::writeBatchResult(wb, b);
    return wa.bytes() == wb.bytes();
}

} // namespace

bool
responsesEqual(const AnalysisResponse &a, const AnalysisResponse &b,
               std::string *whyNot)
{
    const auto differ = [whyNot](const std::string &what) {
        if (whyNot)
            *whyNot = what;
        return false;
    };
    if (a.schemaVersion != b.schemaVersion)
        return differ("schema versions differ");
    if (a.jobName != b.jobName)
        return differ("job names differ");
    if (a.numKernels != b.numKernels || a.numSpecs != b.numSpecs)
        return differ("grid shapes differ");
    if (a.cells.size() != b.cells.size())
        return differ("cell counts differ");
    for (size_t i = 0; i < a.cells.size(); ++i) {
        const driver::BatchResult &ca = a.cells[i];
        const driver::BatchResult &cb = b.cells[i];
        const std::string where = "cell " + std::to_string(i) + " (" +
                                  ca.kernelName + " x " + ca.specName +
                                  ")";
        if (ca.kernelName != cb.kernelName ||
            ca.specName != cb.specName)
            return differ(where + ": names differ");
        if (ca.ok != cb.ok || ca.error != cb.error)
            return differ(where + ": status differs");
        if (ca.whatifs.size() != cb.whatifs.size())
            return differ(where + ": what-if counts differ");
        for (size_t k = 0; k < ca.whatifs.size(); ++k) {
            if (ca.whatifs[k].point.kind != cb.whatifs[k].point.kind ||
                !sameF64(ca.whatifs[k].point.value,
                         cb.whatifs[k].point.value) ||
                !samePrediction(ca.whatifs[k].result.before,
                                cb.whatifs[k].result.before) ||
                !samePrediction(ca.whatifs[k].result.after,
                                cb.whatifs[k].result.after)) {
                return differ(where + ": what-if " +
                              std::to_string(k) + " differs");
            }
        }
        if (!samePrediction(ca.analysis.prediction,
                            cb.analysis.prediction))
            return differ(where + ": predictions differ");
        if (!sameAnalysisBytes(ca, cb))
            return differ(where + ": analysis payloads differ");
    }
    return true;
}

} // namespace api
} // namespace gpuperf
