#include "funcsim/interpreter.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "funcsim/exec_warp.h"

namespace gpuperf {
namespace funcsim {

namespace {

using isa::Instruction;
using isa::Kernel;
using isa::Opcode;
using isa::UnitKind;

/** The mask-independent TraceOp of an arithmetic/control instruction. */
TraceOp
makeArithTraceOp(const Instruction &inst)
{
    TraceOp op;
    switch (isa::instrTypeOf(inst.op)) {
      case arch::InstrType::TypeI:
        op.unit = UnitKind::kArithI;
        break;
      case arch::InstrType::TypeII:
        op.unit = UnitKind::kArithII;
        break;
      case arch::InstrType::TypeIII:
        op.unit = UnitKind::kArithIII;
        break;
      case arch::InstrType::TypeIV:
        op.unit = UnitKind::kArithIV;
        break;
    }
    if (inst.op == Opcode::kBar)
        op.unit = UnitKind::kBarrier;
    if (isa::writesRegister(inst.op))
        op.dst = inst.dst + 1;
    for (int i = 0; i < 3; ++i) {
        if (inst.src[i] != isa::kNoReg &&
            !(i == 1 && inst.useImm)) {
            op.src[i] = inst.src[i] + 1;
        }
    }
    return op;
}

/** Divergence stack frame. */
struct Frame
{
    enum Kind : uint8_t { kIf, kLoop } kind;
    uint32_t savedMask;   // mask to restore at reconvergence
    uint32_t elseMask;    // IF: lanes for the else branch
    int headerPc;         // LOOP: pc of the LOOP marker
};

/** Mutable state of one warp. */
struct WarpState
{
    int warpId = 0;
    int pc = 0;
    uint32_t mask = 0;       // current active mask
    uint32_t blockMask = 0;  // lanes with valid thread ids
    bool done = false;
    bool atBarrier = false;
    std::vector<Frame> frames;
    std::vector<uint32_t> regs;   // [reg * warpSize + lane]
    std::vector<uint8_t> preds;   // [pred * warpSize + lane]
    uint64_t opsExecuted = 0;

    // Per-stage bookkeeping.
    uint64_t stageBodyOps = 0;

    // Trace under construction.
    WarpTrace trace;
};

/**
 * Per-static-instruction facts, precomputed once per kernel: the
 * dispatch cost and classification of arithmetic/control ops, and the
 * mask-independent fields of the TraceOp the instruction emits (only
 * conflict/sharedPasses/numXacts/xactBytes/texIdx depend on the
 * dynamic mask and addresses). Trace appends copy the template and
 * patch those dynamic fields.
 */
struct StaticOp
{
    uint8_t cost = 0;      ///< isa::dynamicCost(op)
    uint8_t typeIdx = 0;   ///< isa::instrTypeOf(op) when cost > 0
    bool isMad = false;    ///< op == kFmad
    bool traced = false;   ///< noteArith appends tmpl
    TraceOp tmpl;          ///< template TraceOp (memory/arith/control)
};

/** Executes one block. */
class BlockExecutor
{
  public:
    BlockExecutor(const arch::GpuSpec &spec, const Kernel &kernel,
                  const LaunchConfig &cfg, GlobalMemory &gmem,
                  const memxact::CoalescingSimulator &coalescer,
                  const memxact::BankConflictAnalyzer &banks,
                  const RunOptions &options)
        : spec_(spec), kernel_(kernel), cfg_(cfg), gmem_(gmem),
          coalescer_(coalescer), banks_(banks), options_(options),
          shared_(kernel.sharedBytes())
    {
        GPUPERF_ASSERT(spec_.warpSize <= kMaxWarpLanes,
                       "mask representation limits warps to "
                       "kMaxWarpLanes lanes");
        lanesMask_ = spec_.warpSize == 32
                         ? 0xffffffffu
                         : (1u << spec_.warpSize) - 1u;
        for (int start = 0; start < spec_.warpSize;
             start += spec_.sharedIssueGroup) {
            uint32_t gm = 0;
            for (int lane = start;
                 lane < std::min(start + spec_.sharedIssueGroup,
                                 spec_.warpSize);
                 ++lane) {
                gm |= 1u << lane;
            }
            sharedGroupMasks_.push_back(gm);
        }
        buildStaticOps();
    }

    /**
     * Run block @p block_id.
     * @param[out] stages      per-stage statistics of this block
     * @param[out] active      per-stage active-warp counts
     * @param[out] warp_traces per-warp traces (if collecting)
     */
    void run(int block_id, std::vector<StageStats> &stages,
             std::vector<double> &active,
             std::vector<WarpTrace> *warp_traces);

  private:
    void buildStaticOps();

    void runWarpToBarrier(WarpState &w);
    void execute(WarpState &w, const Instruction &inst);

    // Whole-warp SoA kernels (exec_warp.cc) plus popcount/template
    // stats and trace accounting.
    void executeAlu(WarpState &w, const Instruction &inst);
    void executeSharedAccess(WarpState &w, const Instruction &inst);
    void executeGlobalAccess(WarpState &w, const Instruction &inst);
    void executeFmadShared(WarpState &w, const Instruction &inst);
    void executeSetp(WarpState &w, const Instruction &inst);

    /** Count an arithmetic/control op and append its trace template. */
    void noteArith(WarpState &w);

    /** IF/BRK guard: active lanes whose predicate (xor negate) holds. */
    uint32_t evalGuard(WarpState &w, const Instruction &inst)
    {
        return warpexec::guardMask(predRow(w, inst.pred),
                                   inst.predNegate, w.mask,
                                   spec_.warpSize);
    }

    /** SoA row of register @p r: lanes are contiguous. */
    uint32_t *regRow(WarpState &w, isa::Reg r)
    {
        return w.regs.data() + static_cast<size_t>(r) * spec_.warpSize;
    }

    uint8_t *predRow(WarpState &w, isa::Pred p)
    {
        return w.preds.data() + static_cast<size_t>(p) * spec_.warpSize;
    }

    /** Operand-b row: immediate broadcast, register row, or zeros. */
    const uint32_t *srcBRow(WarpState &w, const Instruction &inst)
    {
        if (inst.useImm) {
            warpexec::fill(immBuf_, static_cast<uint32_t>(inst.imm),
                           spec_.warpSize);
            return immBuf_;
        }
        if (inst.src[1] != isa::kNoReg)
            return regRow(w, inst.src[1]);
        return zeroBuf_;
    }

    /** Commit outBuf_ to a register row under the active mask. */
    void commitRegs(uint32_t *dst, uint32_t mask)
    {
        if (mask == lanesMask_) {
            std::memcpy(dst, outBuf_,
                        static_cast<size_t>(spec_.warpSize) * 4);
        } else {
            warpexec::scatterMasked(dst, outBuf_, mask, spec_.warpSize);
        }
    }

    /** Shared-memory ideal transaction count: groups with any lane. */
    int idealGroups(uint32_t mask) const
    {
        int n = 0;
        for (uint32_t gm : sharedGroupMasks_)
            n += (mask & gm) != 0;
        return n;
    }

    StageStats &stage() { return (*stages_)[stageIdx_]; }

    const arch::GpuSpec &spec_;
    const Kernel &kernel_;
    const LaunchConfig &cfg_;
    GlobalMemory &gmem_;
    const memxact::CoalescingSimulator &coalescer_;
    const memxact::BankConflictAnalyzer &banks_;
    const RunOptions &options_;

    SharedMemory shared_;
    int blockId_ = 0;
    int stageIdx_ = 0;
    std::vector<StageStats> *stages_ = nullptr;

    uint32_t lanesMask_ = 0;
    std::vector<StaticOp> sops_;
    std::vector<uint32_t> sharedGroupMasks_;

    // Static trace-emission counts (for first-block reservation) and
    // the observed per-warp trace sizes of earlier blocks (for the
    // rest). Content-independent bookkeeping: it changes no result.
    size_t staticTraceOps_ = 0;
    size_t staticTexOps_ = 0;
    size_t lastTraceOps_ = 0;
    size_t lastTexLines_ = 0;

    // Whole-warp scratch rows. Zero-initialized so lanes masked off
    // since block start still hold defined values.
    alignas(64) uint32_t immBuf_[kMaxWarpLanes] = {};
    alignas(64) uint32_t zeroBuf_[kMaxWarpLanes] = {};
    alignas(64) uint32_t outBuf_[kMaxWarpLanes] = {};
    alignas(64) uint32_t gatherBuf_[kMaxWarpLanes] = {};
    alignas(64) uint8_t predBuf_[kMaxWarpLanes] = {};
    uint64_t addrBuf_[kMaxWarpLanes] = {};
    std::vector<memxact::Transaction> xactBuf_;
};

void
BlockExecutor::buildStaticOps()
{
    const auto &insts = kernel_.instructions();
    sops_.resize(insts.size());
    for (size_t pc = 0; pc < insts.size(); ++pc) {
        const Instruction &inst = insts[pc];
        StaticOp &s = sops_[pc];
        switch (inst.op) {
          case Opcode::kLds:
            s.tmpl.unit = UnitKind::kSharedMem;
            s.tmpl.dst = inst.dst + 1;
            s.tmpl.src[0] = inst.src[0] + 1;
            ++staticTraceOps_;
            break;
          case Opcode::kSts:
            s.tmpl.unit = UnitKind::kSharedMem;
            s.tmpl.src[0] = inst.src[0] + 1;
            s.tmpl.src[1] = inst.src[1] + 1;
            ++staticTraceOps_;
            break;
          case Opcode::kLdg:
          case Opcode::kStg:
          case Opcode::kLdt:
            if (inst.op == Opcode::kLdg) {
                s.tmpl.unit = UnitKind::kGlobalLoad;
                s.tmpl.dst = inst.dst + 1;
            } else if (inst.op == Opcode::kStg) {
                s.tmpl.unit = UnitKind::kGlobalStore;
                s.tmpl.src[1] = inst.src[1] + 1;
            } else {
                s.tmpl.unit = UnitKind::kTexLoad;
                s.tmpl.dst = inst.dst + 1;
                ++staticTexOps_;
            }
            s.tmpl.src[0] = inst.src[0] + 1;
            ++staticTraceOps_;
            break;
          case Opcode::kFmadS:
            s.tmpl.unit = UnitKind::kArithII;
            s.tmpl.dst = inst.dst + 1;
            s.tmpl.src[0] = inst.src[0] + 1;
            s.tmpl.src[1] = inst.src[1] + 1;
            s.tmpl.src[2] = inst.src[2] + 1;
            ++staticTraceOps_;
            break;
          default: {
            const int cost = isa::dynamicCost(inst.op);
            if (cost == 0)
                break;
            s.cost = static_cast<uint8_t>(cost);
            s.typeIdx =
                static_cast<uint8_t>(isa::instrTypeOf(inst.op));
            s.isMad = inst.op == Opcode::kFmad;
            s.traced = true;
            s.tmpl = makeArithTraceOp(inst);
            ++staticTraceOps_;
            break;
          }
        }
    }
}

void
BlockExecutor::noteArith(WarpState &w)
{
    const StaticOp &sop = sops_[w.pc];
    if (sop.cost == 0)
        return;
    StageStats &s = stage();
    s.typeCounts[sop.typeIdx] += sop.cost;
    s.totalWarpInstrs += sop.cost;
    if (sop.isMad)
        s.madCount += sop.cost;
    w.stageBodyOps += sop.cost;
    if (sop.traced)
        w.trace.ops.push_back(sop.tmpl);
}

void
BlockExecutor::executeAlu(WarpState &w, const Instruction &inst)
{
    // Every lane computes (a trap-free operation on whatever bits the
    // inactive lanes hold); only lanes in w.mask commit. Computing
    // into outBuf_ and scattering afterwards also keeps dst-aliases-
    // src instructions exact, since each lane only ever reads and
    // writes its own row index.
    const uint32_t *a = inst.src[0] != isa::kNoReg
                            ? regRow(w, inst.src[0])
                            : zeroBuf_;
    const uint32_t *b = srcBRow(w, inst);
    const uint32_t *c = inst.src[2] != isa::kNoReg
                            ? regRow(w, inst.src[2])
                            : zeroBuf_;
    const uint8_t *sel =
        inst.op == Opcode::kSel ? predRow(w, inst.pred) : nullptr;
    warpexec::LaneCtx ctx;
    ctx.tidBase = w.warpId * spec_.warpSize;
    ctx.blockDim = cfg_.blockDim;
    ctx.blockId = blockId_;
    ctx.gridDim = cfg_.gridDim;
    ctx.warpId = w.warpId;
    warpexec::runAlu(inst, ctx, a, b, c, sel, outBuf_, spec_.warpSize);
    commitRegs(regRow(w, inst.dst), w.mask);
}

void
BlockExecutor::executeSetp(WarpState &w, const Instruction &inst)
{
    const uint32_t *a = regRow(w, inst.src[0]);
    const uint32_t *b = srcBRow(w, inst);
    warpexec::runSetp(inst, a, b, predBuf_, spec_.warpSize);
    uint8_t *dst = predRow(w, inst.pred);
    if (w.mask == lanesMask_) {
        std::memcpy(dst, predBuf_,
                    static_cast<size_t>(spec_.warpSize));
    } else {
        warpexec::scatterMaskedU8(dst, predBuf_, w.mask,
                                  spec_.warpSize);
    }
}

void
BlockExecutor::executeSharedAccess(WarpState &w, const Instruction &inst)
{
    const int n = spec_.warpSize;
    // Addresses for all lanes (pure arithmetic; inactive lanes' values
    // are computed but never dereferenced — the analyzers read only
    // masked lanes).
    warpexec::runAddress(regRow(w, inst.src[0]), inst.imm, addrBuf_, n);

    // Data movement stays mask-serial: SharedMemory accessors are
    // bounds-checked out-of-line calls, so only active lanes may touch
    // them. Iterating set bits keeps divergent warps cheap.
    if (inst.op == Opcode::kLds) {
        uint32_t *dst = regRow(w, inst.dst);
        for (uint32_t m = w.mask; m; m &= m - 1) {
            const int lane = __builtin_ctz(m);
            dst[lane] = shared_.load32(addrBuf_[lane]);
        }
    } else {
        const uint32_t *val = regRow(w, inst.src[1]);
        for (uint32_t m = w.mask; m; m &= m - 1) {
            const int lane = __builtin_ctz(m);
            shared_.store32(addrBuf_[lane], val[lane]);
        }
    }

    const int active = __builtin_popcount(w.mask);
    const int passes =
        banks_.warpTransactionsFast(addrBuf_, w.mask, n);

    StageStats &s = stage();
    s.totalWarpInstrs += 1;
    s.sharedInstrs += 1;
    s.sharedTransactions += passes;
    s.sharedTransactionsIdeal += idealGroups(w.mask);
    s.sharedBytes += static_cast<uint64_t>(active) * 4;
    w.stageBodyOps += 1;

    TraceOp op = sops_[w.pc].tmpl;
    op.conflict = static_cast<uint8_t>(std::min(passes, 255));
    w.trace.ops.push_back(op);
}

void
BlockExecutor::executeGlobalAccess(WarpState &w, const Instruction &inst)
{
    const int n = spec_.warpSize;
    warpexec::runAddress(regRow(w, inst.src[0]), inst.imm, addrBuf_, n);

    if (inst.op == Opcode::kStg) {
        const uint32_t *val = regRow(w, inst.src[1]);
        for (uint32_t m = w.mask; m; m &= m - 1) {
            const int lane = __builtin_ctz(m);
            gmem_.store32(addrBuf_[lane], val[lane]);
        }
    } else {
        uint32_t *dst = regRow(w, inst.dst);
        for (uint32_t m = w.mask; m; m &= m - 1) {
            const int lane = __builtin_ctz(m);
            dst[lane] = gmem_.load32(addrBuf_[lane]);
        }
    }

    const int active = __builtin_popcount(w.mask);
    coalescer_.coalesceWarpInto(addrBuf_, w.mask, n, 4, xactBuf_);

    StageStats &s = stage();
    s.totalWarpInstrs += 1;
    s.globalInstrs += 1;
    s.globalTransactions += xactBuf_.size();
    uint64_t xact_bytes = 0;
    for (const auto &x : xactBuf_) {
        s.globalBytes += x.bytes;
        s.globalXactBySize[x.bytes] += 1;
        xact_bytes += x.bytes;
    }
    s.globalRequestBytes += static_cast<uint64_t>(active) * 4;
    w.stageBodyOps += 1;

    TraceOp op = sops_[w.pc].tmpl;
    op.numXacts = static_cast<uint16_t>(xactBuf_.size());
    op.xactBytes = static_cast<uint32_t>(xact_bytes);

    if (inst.op == Opcode::kLdt) {
        // Record the distinct cache lines touched, per issue group
        // (order-preserving dedup), for the timing simulator's texture
        // cache.
        op.texIdx = static_cast<uint32_t>(w.trace.texLines.size());
        const int line = spec_.textureCacheLineBytes;
        int lines = 0;
        for (int start = 0; start < spec_.warpSize;
             start += spec_.coalesceGroup) {
            for (int lane = start;
                 lane < std::min(start + spec_.coalesceGroup,
                                 spec_.warpSize);
                 ++lane) {
                if (!((w.mask >> lane) & 1u))
                    continue;
                const uint32_t line_id =
                    static_cast<uint32_t>(addrBuf_[lane] / line);
                bool seen = false;
                for (size_t k = op.texIdx; k < w.trace.texLines.size();
                     ++k) {
                    if (w.trace.texLines[k] == line_id) {
                        seen = true;
                        break;
                    }
                }
                if (!seen) {
                    w.trace.texLines.push_back(line_id);
                    ++lines;
                }
            }
        }
        op.numXacts = static_cast<uint16_t>(lines);
        op.xactBytes = static_cast<uint32_t>(lines) * line;
    }
    w.trace.ops.push_back(op);
}

void
BlockExecutor::executeFmadShared(WarpState &w, const Instruction &inst)
{
    const int n = spec_.warpSize;
    warpexec::runAddress(regRow(w, inst.src[1]), inst.imm, addrBuf_, n);

    // Gather the shared operand for active lanes; inactive lanes keep
    // whatever gatherBuf_ holds (defined bits — the compute loop runs
    // every lane, the commit is masked).
    for (uint32_t m = w.mask; m; m &= m - 1) {
        const int lane = __builtin_ctz(m);
        gatherBuf_[lane] = shared_.load32(addrBuf_[lane]);
    }

    // a * b + c with the shared operand as b: run the kFmad kernel so
    // the expression (and its IEEE bit pattern) is the same one the
    // ALU path uses.
    Instruction fmad = inst;
    fmad.op = Opcode::kFmad;
    warpexec::runAlu(fmad, warpexec::LaneCtx{},
                     regRow(w, inst.src[0]), gatherBuf_,
                     regRow(w, inst.src[2]), nullptr, outBuf_, n);
    commitRegs(regRow(w, inst.dst), w.mask);

    const int active = __builtin_popcount(w.mask);
    const int passes =
        banks_.warpTransactionsFast(addrBuf_, w.mask, n);

    StageStats &s = stage();
    s.typeCounts[static_cast<int>(arch::InstrType::TypeII)] += 1;
    s.madCount += 1;
    s.totalWarpInstrs += 1;
    s.sharedTransactions += passes;
    s.sharedTransactionsIdeal += idealGroups(w.mask);
    s.sharedBytes += static_cast<uint64_t>(active) * 4;
    w.stageBodyOps += 1;

    TraceOp op = sops_[w.pc].tmpl;
    op.sharedPasses = static_cast<uint8_t>(std::min(passes, 255));
    w.trace.ops.push_back(op);
}

void
BlockExecutor::execute(WarpState &w, const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::kFmadS:
        executeFmadShared(w, inst);
        ++w.pc;
        break;
      case Opcode::kIf: {
        noteArith(w);
        const uint32_t taken = evalGuard(w, inst);
        Frame frame;
        frame.kind = Frame::kIf;
        frame.savedMask = w.mask;
        frame.elseMask = w.mask & ~taken;
        frame.headerPc = w.pc;
        w.frames.push_back(frame);
        if (taken) {
            w.mask = taken;
            ++w.pc;
        } else {
            const int else_pc = kernel_.elseOf(w.pc);
            // Jump to the ELSE (its handler installs elseMask) or to
            // the ENDIF (which pops the frame).
            w.pc = else_pc != -1 ? else_pc : kernel_.endifOf(w.pc);
        }
        break;
      }
      case Opcode::kElse: {
        noteArith(w);
        GPUPERF_ASSERT(!w.frames.empty() &&
                           w.frames.back().kind == Frame::kIf,
                       "ELSE without IF frame");
        Frame &frame = w.frames.back();
        if (frame.elseMask) {
            w.mask = frame.elseMask;
            ++w.pc;
        } else {
            w.pc = kernel_.endifOf(w.pc);
        }
        break;
      }
      case Opcode::kEndif: {
        GPUPERF_ASSERT(!w.frames.empty() &&
                           w.frames.back().kind == Frame::kIf,
                       "ENDIF without IF frame");
        w.mask = w.frames.back().savedMask;
        w.frames.pop_back();
        ++w.pc;
        break;
      }
      case Opcode::kLoop: {
        Frame frame;
        frame.kind = Frame::kLoop;
        frame.savedMask = w.mask;
        frame.elseMask = 0;
        frame.headerPc = w.pc;
        w.frames.push_back(frame);
        ++w.pc;
        break;
      }
      case Opcode::kBrk: {
        noteArith(w);
        GPUPERF_ASSERT(!w.frames.empty() &&
                           w.frames.back().kind == Frame::kLoop,
                       "BRK without LOOP frame");
        const uint32_t leaving = evalGuard(w, inst);
        w.mask &= ~leaving;
        if (w.mask == 0) {
            w.mask = w.frames.back().savedMask;
            w.frames.pop_back();
            w.pc = kernel_.endloopOf(w.pc) + 1;
        } else {
            ++w.pc;
        }
        break;
      }
      case Opcode::kEndloop: {
        noteArith(w);
        GPUPERF_ASSERT(!w.frames.empty() &&
                           w.frames.back().kind == Frame::kLoop,
                       "ENDLOOP without LOOP frame");
        w.pc = w.frames.back().headerPc + 1;
        break;
      }
      case Opcode::kBar: {
        // Barriers are legal inside uniform control flow (e.g. a loop
        // every lane iterates); only actual divergence is fatal.
        if (w.mask != w.blockMask)
            fatal("kernel '%s': barrier inside divergent control flow "
                  "(warp %d, pc %d)", kernel_.name().c_str(), w.warpId,
                  w.pc);
        noteArith(w);
        w.atBarrier = true;
        ++w.pc;
        break;
      }
      case Opcode::kExit: {
        if (!w.frames.empty())
            fatal("kernel '%s': EXIT with open control structures",
                  kernel_.name().c_str());
        w.done = true;
        break;
      }
      case Opcode::kLds:
      case Opcode::kSts:
        executeSharedAccess(w, inst);
        ++w.pc;
        break;
      case Opcode::kLdg:
      case Opcode::kStg:
      case Opcode::kLdt:
        executeGlobalAccess(w, inst);
        ++w.pc;
        break;
      case Opcode::kSetpF:
      case Opcode::kSetpI:
        noteArith(w);
        executeSetp(w, inst);
        ++w.pc;
        break;
      default:
        noteArith(w);
        executeAlu(w, inst);
        ++w.pc;
        break;
    }
}

void
BlockExecutor::runWarpToBarrier(WarpState &w)
{
    w.atBarrier = false;
    while (!w.done && !w.atBarrier) {
        if (++w.opsExecuted > options_.maxWarpOps)
            fatal("kernel '%s': warp %d exceeded %llu operations — "
                  "runaway loop?", kernel_.name().c_str(), w.warpId,
                  static_cast<unsigned long long>(options_.maxWarpOps));
        execute(w, kernel_.instructions()[w.pc]);
    }
}

void
BlockExecutor::run(int block_id, std::vector<StageStats> &stages,
                   std::vector<double> &active,
                   std::vector<WarpTrace> *warp_traces)
{
    blockId_ = block_id;
    stages_ = &stages;
    stageIdx_ = 0;
    if (stages.empty())
        stages.emplace_back();
    shared_.clear();

    const int warps = (cfg_.blockDim + spec_.warpSize - 1) / spec_.warpSize;
    // Trace growth is amortized by reserving what the previous block's
    // warps actually used (blocks of one launch are near-uniform), or,
    // for the first block, a static-op-count based guess.
    const size_t reserve_ops =
        lastTraceOps_ ? lastTraceOps_ : staticTraceOps_ * 4 + 16;
    const size_t reserve_tex =
        lastTexLines_ ? lastTexLines_ : staticTexOps_ * 8;
    std::vector<WarpState> ws(warps);
    for (int i = 0; i < warps; ++i) {
        WarpState &w = ws[i];
        w.warpId = i;
        w.regs.assign(static_cast<size_t>(kernel_.numRegisters()) *
                          spec_.warpSize, 0);
        w.preds.assign(static_cast<size_t>(kernel_.numPredicates()) *
                           spec_.warpSize, 0);
        w.trace.ops.reserve(reserve_ops);
        if (reserve_tex)
            w.trace.texLines.reserve(reserve_tex);
        uint32_t mask = 0;
        for (int lane = 0; lane < spec_.warpSize; ++lane) {
            if (i * spec_.warpSize + lane < cfg_.blockDim)
                mask |= 1u << lane;
        }
        w.blockMask = mask;
        w.mask = mask;
        if (mask == 0)
            w.done = true;
    }

    active.clear();
    bool all_done = false;
    while (!all_done) {
        // Run every warp to the next barrier (or completion).
        for (auto &w : ws) {
            w.stageBodyOps = 0;
            if (!w.done)
                runWarpToBarrier(w);
        }
        // Active-warp census for this stage.
        uint64_t max_ops = 0;
        for (const auto &w : ws)
            max_ops = std::max(max_ops, w.stageBodyOps);
        int active_warps = 0;
        for (const auto &w : ws) {
            if (max_ops > 0 && w.stageBodyOps * 2 >= max_ops)
                ++active_warps;
        }
        active.push_back(active_warps);

        // Synchronization integrity: warps must agree on barrier vs done.
        bool any_barrier = false;
        bool any_running = false;
        all_done = true;
        for (const auto &w : ws) {
            if (w.atBarrier && !w.done) {
                any_barrier = true;
                all_done = false;
            } else if (!w.done) {
                any_running = true;
            }
        }
        if (any_barrier && any_running)
            fatal("kernel '%s': warps disagree on barrier %d — some "
                  "finished without reaching it", kernel_.name().c_str(),
                  stageIdx_);
        if (!all_done) {
            ++stageIdx_;
            if (static_cast<size_t>(stageIdx_) >= stages.size())
                stages.emplace_back();
        }
    }

    for (const auto &w : ws) {
        lastTraceOps_ = std::max(lastTraceOps_, w.trace.ops.size());
        lastTexLines_ = std::max(lastTexLines_, w.trace.texLines.size());
    }

    if (warp_traces) {
        warp_traces->clear();
        warp_traces->reserve(ws.size());
        for (auto &w : ws)
            warp_traces->push_back(std::move(w.trace));
    }
}

} // namespace

FunctionalSimulator::FunctionalSimulator(const arch::GpuSpec &spec)
    : spec_(spec), coalescer_(spec), banks_(spec)
{
    spec_.validate();
}

RunResult
FunctionalSimulator::run(const isa::Kernel &kernel, const LaunchConfig &cfg,
                         GlobalMemory &gmem, const RunOptions &options)
{
    if (cfg.gridDim <= 0 || cfg.blockDim <= 0)
        fatal("launch of kernel '%s' has empty grid (%d x %d)",
              kernel.name().c_str(), cfg.gridDim, cfg.blockDim);
    if (cfg.blockDim > spec_.maxThreadsPerBlock)
        fatal("kernel '%s': block of %d threads exceeds the %d-thread "
              "block ceiling", kernel.name().c_str(), cfg.blockDim,
              spec_.maxThreadsPerBlock);
    if (kernel.sharedBytes() > spec_.sharedMemPerSm)
        fatal("kernel '%s': %d B shared memory exceeds the %d B SM "
              "capacity", kernel.name().c_str(), kernel.sharedBytes(),
              spec_.sharedMemPerSm);

    const int sample = options.homogeneous
                           ? std::min(options.sampleBlocks, cfg.gridDim)
                           : cfg.gridDim;
    GPUPERF_ASSERT(sample > 0, "need at least one sampled block");

    RunResult result;
    DynamicStats &stats = result.stats;
    stats.gridDim = cfg.gridDim;
    stats.blockDim = cfg.blockDim;
    stats.warpsPerBlock =
        (cfg.blockDim + spec_.warpSize - 1) / spec_.warpSize;
    stats.sampledBlocks = sample;

    LaunchTrace &trace = result.trace;
    if (options.collectTrace) {
        trace.blockDim = cfg.blockDim;
        trace.warpsPerBlock = stats.warpsPerBlock;
        trace.registersPerThread = kernel.numRegisters();
        trace.sharedBytesPerBlock = kernel.sharedBytes();
        trace.blocks.resize(cfg.gridDim);
    }

    BlockExecutor executor(spec_, kernel, cfg, gmem, coalescer_, banks_,
                           options);

    std::vector<std::vector<int>> sampled_block_traces(sample);
    std::vector<double> active_sums;   // per stage, summed over blocks
    size_t num_stages = 0;

    // Debug builds validate the homogeneity claim instead of trusting
    // it: every sampled block (and one probe block beyond the sample,
    // see below) must reproduce block 0's per-stage statistics and
    // per-warp trace hashes exactly, or replicating block 0's behaviour
    // across the grid would fabricate statistics.
    std::vector<StageStats> first_stages;
    std::vector<double> first_active;
    std::vector<uint64_t> first_hashes;
    const bool validate_homogeneous =
#ifndef NDEBUG
        options.homogeneous;
#else
        false;
#endif
    auto check_homogeneous = [&](int block_id,
                                 const std::vector<StageStats> &stages_b,
                                 const std::vector<double> &active_b,
                                 const std::vector<WarpTrace> *traces_b) {
        if (stages_b != first_stages || active_b != first_active)
            fatal("kernel '%s': homogeneous sampling is invalid — "
                  "block %d's per-stage statistics differ from "
                  "block 0's", kernel.name().c_str(), block_id);
        if (!traces_b)
            return;
        GPUPERF_ASSERT(traces_b->size() == first_hashes.size(),
                       "warp count changed between blocks");
        for (size_t w = 0; w < traces_b->size(); ++w) {
            if ((*traces_b)[w].hash() != first_hashes[w])
                fatal("kernel '%s': homogeneous sampling is invalid — "
                      "block %d warp %zu's trace differs from "
                      "block 0's", kernel.name().c_str(), block_id, w);
        }
    };

    for (int b = 0; b < sample; ++b) {
        std::vector<StageStats> block_stages;
        std::vector<double> block_active;
        std::vector<WarpTrace> warp_traces;
        const bool want_traces =
            options.collectTrace || (validate_homogeneous && sample > 1);
        executor.run(b, block_stages, block_active,
                     want_traces ? &warp_traces : nullptr);

        if (b == 0) {
            num_stages = block_stages.size();
            stats.stages.resize(num_stages);
            active_sums.assign(num_stages, 0.0);
            if (validate_homogeneous &&
                (sample > 1 || sample < cfg.gridDim)) {
                first_stages = block_stages;
                first_active = block_active;
                first_hashes.reserve(warp_traces.size());
                for (const WarpTrace &wt : warp_traces)
                    first_hashes.push_back(wt.hash());
            }
        } else if (block_stages.size() != num_stages) {
            fatal("kernel '%s': block %d executed %zu stages, block 0 "
                  "executed %zu — grids must have a uniform barrier "
                  "structure", kernel.name().c_str(), b,
                  block_stages.size(), num_stages);
        } else if (validate_homogeneous) {
            check_homogeneous(b, block_stages, block_active,
                              want_traces ? &warp_traces : nullptr);
        }
        for (size_t s = 0; s < num_stages; ++s) {
            stats.stages[s].accumulate(block_stages[s]);
            active_sums[s] += block_active[s];
        }

        if (options.collectTrace) {
            for (auto &wt : warp_traces) {
                sampled_block_traces[b].push_back(
                    trace.intern(std::move(wt)));
            }
        }
    }

    // Probe one block outside the sample (the grid's last): a kernel
    // whose behaviour depends on the block id beyond the sampled
    // prefix — the exact bug homogeneous sampling would silently bake
    // into the statistics — is caught here. The probe's statistics are
    // discarded; its stores land in gmem, which homogeneous mode
    // already documents as not producing non-sampled blocks' memory.
    if (validate_homogeneous && sample < cfg.gridDim) {
        std::vector<StageStats> probe_stages;
        std::vector<double> probe_active;
        std::vector<WarpTrace> probe_traces;
        executor.run(cfg.gridDim - 1, probe_stages, probe_active,
                     &probe_traces);
        if (probe_stages.size() != num_stages)
            fatal("kernel '%s': homogeneous sampling is invalid — "
                  "block %d executed %zu stages, block 0 executed %zu",
                  kernel.name().c_str(), cfg.gridDim - 1,
                  probe_stages.size(), num_stages);
        check_homogeneous(cfg.gridDim - 1, probe_stages, probe_active,
                          first_hashes.empty() ? nullptr : &probe_traces);
    }

    // Scale sampled statistics up to the full grid.
    if (sample != cfg.gridDim) {
        const double scale =
            static_cast<double>(cfg.gridDim) / static_cast<double>(sample);
        for (auto &s : stats.stages) {
            for (auto &c : s.typeCounts)
                c = static_cast<uint64_t>(c * scale + 0.5);
            s.madCount = static_cast<uint64_t>(s.madCount * scale + 0.5);
            s.totalWarpInstrs =
                static_cast<uint64_t>(s.totalWarpInstrs * scale + 0.5);
            s.sharedInstrs =
                static_cast<uint64_t>(s.sharedInstrs * scale + 0.5);
            s.globalInstrs =
                static_cast<uint64_t>(s.globalInstrs * scale + 0.5);
            s.sharedTransactions = static_cast<uint64_t>(
                s.sharedTransactions * scale + 0.5);
            s.sharedTransactionsIdeal = static_cast<uint64_t>(
                s.sharedTransactionsIdeal * scale + 0.5);
            s.sharedBytes =
                static_cast<uint64_t>(s.sharedBytes * scale + 0.5);
            s.globalTransactions = static_cast<uint64_t>(
                s.globalTransactions * scale + 0.5);
            s.globalBytes =
                static_cast<uint64_t>(s.globalBytes * scale + 0.5);
            s.globalRequestBytes = static_cast<uint64_t>(
                s.globalRequestBytes * scale + 0.5);
            for (auto &[size, count] : s.globalXactBySize)
                count = static_cast<uint64_t>(count * scale + 0.5);
        }
    }
    for (size_t s = 0; s < num_stages; ++s)
        stats.stages[s].activeWarpsPerBlock = active_sums[s] / sample;
    // A kernel ending right after a barrier leaves an empty stage.
    if (stats.stages.size() > 1 &&
        stats.stages.back().totalWarpInstrs == 0) {
        stats.stages.pop_back();
    }
    stats.barriersPerBlock = static_cast<int>(stats.stages.size()) - 1;

    if (options.collectTrace) {
        for (int b = 0; b < cfg.gridDim; ++b)
            trace.blocks[b].warpTraceIdx = sampled_block_traces[b % sample];
    }
    return result;
}

} // namespace funcsim
} // namespace gpuperf
