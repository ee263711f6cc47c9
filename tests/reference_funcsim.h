/**
 * @file
 * The lane-at-a-time functional-simulation oracle: the reference the
 * library's functional simulator is pinned bit-identical against, and
 * the baseline `bench_funcsim` times it against.
 *
 * ScalarFunctionalSimulator interprets one lane at a time with its own
 * warp loop, divergence stack, block loop, homogeneous sampling, stat
 * scaling and trace interning. It shares no execution code with the
 * library's core: it reads only the public funcsim value types
 * (memories, statistics, traces) and the memxact reference paths
 * CoalescingSimulator::coalesceWarp and
 * BankConflictAnalyzer::warpTransactions. A test that compares the two
 * therefore checks the library's whole run, not only its
 * per-instruction handlers.
 *
 * Header-only, outside the library: nothing in src/ may depend on it.
 */

#ifndef GPUPERF_TESTS_REFERENCE_FUNCSIM_H
#define GPUPERF_TESTS_REFERENCE_FUNCSIM_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "arch/gpu_spec.h"
#include "common/logging.h"
#include "funcsim/interpreter.h"
#include "funcsim/memory.h"
#include "funcsim/stats.h"
#include "funcsim/trace.h"
#include "isa/kernel.h"
#include "memxact/bank_conflicts.h"
#include "memxact/coalescing.h"

namespace gpuperf {
namespace reference {
namespace detail {

inline float
asFloat(uint32_t v)
{
    float f;
    std::memcpy(&f, &v, 4);
    return f;
}

inline uint32_t
asBits(float f)
{
    uint32_t v;
    std::memcpy(&v, &f, 4);
    return v;
}

inline bool
compareI(isa::CmpOp cmp, int32_t a, int32_t b)
{
    switch (cmp) {
      case isa::CmpOp::kLt: return a < b;
      case isa::CmpOp::kLe: return a <= b;
      case isa::CmpOp::kGt: return a > b;
      case isa::CmpOp::kGe: return a >= b;
      case isa::CmpOp::kEq: return a == b;
      case isa::CmpOp::kNe: return a != b;
    }
    panic("bad cmp op");
}

inline bool
compareF(isa::CmpOp cmp, float a, float b)
{
    switch (cmp) {
      case isa::CmpOp::kLt: return a < b;
      case isa::CmpOp::kLe: return a <= b;
      case isa::CmpOp::kGt: return a > b;
      case isa::CmpOp::kGe: return a >= b;
      case isa::CmpOp::kEq: return a == b;
      case isa::CmpOp::kNe: return a != b;
    }
    panic("bad cmp op");
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
    funcsim::WarpTrace trace;
};

/** Executes one block, one lane at a time. */
class BlockExecutor
{
  public:
    BlockExecutor(const arch::GpuSpec &spec, const isa::Kernel &kernel,
                  const funcsim::LaunchConfig &cfg,
                  funcsim::GlobalMemory &gmem,
                  const memxact::CoalescingSimulator &coalescer,
                  const memxact::BankConflictAnalyzer &banks,
                  const funcsim::RunOptions &options)
        : spec_(spec), kernel_(kernel), cfg_(cfg), gmem_(gmem),
          coalescer_(coalescer), banks_(banks), options_(options),
          shared_(kernel.sharedBytes())
    {
        GPUPERF_ASSERT(spec_.warpSize <= funcsim::kMaxWarpLanes,
                       "mask representation limits warps to "
                       "kMaxWarpLanes lanes");
        // Every op with a dynamic cost appends one TraceOp; the counts
        // size the first block's trace reservation.
        for (const isa::Instruction &inst : kernel_.instructions()) {
            if (isa::dynamicCost(inst.op) > 0)
                ++staticTraceOps_;
            if (inst.op == isa::Opcode::kLdt)
                ++staticTexOps_;
        }
    }

    /**
     * Run block @p block_id.
     * @param[out] stages      per-stage statistics of this block
     * @param[out] active      per-stage active-warp counts
     * @param[out] warp_traces per-warp traces (if collecting)
     */
    void run(int block_id, std::vector<funcsim::StageStats> &stages,
             std::vector<double> &active,
             std::vector<funcsim::WarpTrace> *warp_traces);

  private:
    void runWarpToBarrier(WarpState &w);
    void execute(WarpState &w, const isa::Instruction &inst);

    void countArith(WarpState &w, isa::Opcode op);
    void recordArithTrace(WarpState &w, const isa::Instruction &inst);
    void executeAlu(WarpState &w, const isa::Instruction &inst);
    void executeSharedAccess(WarpState &w, const isa::Instruction &inst);
    void executeGlobalAccess(WarpState &w, const isa::Instruction &inst);
    void executeFmadShared(WarpState &w, const isa::Instruction &inst);
    void executeSetp(WarpState &w, const isa::Instruction &inst);
    uint32_t guardMask(WarpState &w, const isa::Instruction &inst);
    uint32_t srcValue(WarpState &w, const isa::Instruction &inst, int lane);

    uint32_t &regAt(WarpState &w, isa::Reg r, int lane)
    {
        return w.regs[static_cast<size_t>(r) * spec_.warpSize + lane];
    }

    uint8_t &predAt(WarpState &w, isa::Pred p, int lane)
    {
        return w.preds[static_cast<size_t>(p) * spec_.warpSize + lane];
    }

    funcsim::StageStats &stage() { return (*stages_)[stageIdx_]; }

    const arch::GpuSpec &spec_;
    const isa::Kernel &kernel_;
    const funcsim::LaunchConfig &cfg_;
    funcsim::GlobalMemory &gmem_;
    const memxact::CoalescingSimulator &coalescer_;
    const memxact::BankConflictAnalyzer &banks_;
    const funcsim::RunOptions &options_;

    funcsim::SharedMemory shared_;
    int blockId_ = 0;
    int stageIdx_ = 0;
    std::vector<funcsim::StageStats> *stages_ = nullptr;

    // Trace reservation, as the library's core makes it: static op
    // counts for the first block, then the per-warp high-water mark of
    // earlier blocks. It changes no result, only how much the timed
    // scalar work reallocates.
    size_t staticTraceOps_ = 0;
    size_t staticTexOps_ = 0;
    size_t lastTraceOps_ = 0;
    size_t lastTexLines_ = 0;

    uint64_t addrBuf_[funcsim::kMaxWarpLanes] = {};
};

inline uint32_t
BlockExecutor::guardMask(WarpState &w, const isa::Instruction &inst)
{
    uint32_t m = 0;
    for (int lane = 0; lane < spec_.warpSize; ++lane) {
        if (!((w.mask >> lane) & 1u))
            continue;
        bool v = predAt(w, inst.pred, lane) != 0;
        if (inst.predNegate)
            v = !v;
        if (v)
            m |= 1u << lane;
    }
    return m;
}

inline uint32_t
BlockExecutor::srcValue(WarpState &w, const isa::Instruction &inst,
                        int lane)
{
    // Second operand: register or immediate.
    if (inst.useImm)
        return static_cast<uint32_t>(inst.imm);
    return regAt(w, inst.src[1], lane);
}

inline void
BlockExecutor::countArith(WarpState &w, isa::Opcode op)
{
    const int cost = isa::dynamicCost(op);
    if (cost == 0)
        return;
    funcsim::StageStats &s = stage();
    s.typeCounts[static_cast<int>(isa::instrTypeOf(op))] += cost;
    s.totalWarpInstrs += cost;
    if (op == isa::Opcode::kFmad)
        s.madCount += cost;
    w.stageBodyOps += cost;
}

inline void
BlockExecutor::recordArithTrace(WarpState &w, const isa::Instruction &inst)
{
    if (isa::dynamicCost(inst.op) == 0)
        return;
    funcsim::TraceOp op;
    switch (isa::instrTypeOf(inst.op)) {
      case arch::InstrType::TypeI:
        op.unit = isa::UnitKind::kArithI;
        break;
      case arch::InstrType::TypeII:
        op.unit = isa::UnitKind::kArithII;
        break;
      case arch::InstrType::TypeIII:
        op.unit = isa::UnitKind::kArithIII;
        break;
      case arch::InstrType::TypeIV:
        op.unit = isa::UnitKind::kArithIV;
        break;
    }
    if (inst.op == isa::Opcode::kBar)
        op.unit = isa::UnitKind::kBarrier;
    if (isa::writesRegister(inst.op))
        op.dst = inst.dst + 1;
    for (int i = 0; i < 3; ++i) {
        if (inst.src[i] != isa::kNoReg && !(i == 1 && inst.useImm))
            op.src[i] = inst.src[i] + 1;
    }
    w.trace.ops.push_back(op);
}

inline void
BlockExecutor::executeAlu(WarpState &w, const isa::Instruction &inst)
{
    using isa::Opcode;
    const int tid_base = w.warpId * spec_.warpSize;
    for (int lane = 0; lane < spec_.warpSize; ++lane) {
        if (!((w.mask >> lane) & 1u))
            continue;
        const uint32_t a =
            inst.src[0] != isa::kNoReg ? regAt(w, inst.src[0], lane) : 0;
        const uint32_t b = inst.src[1] != isa::kNoReg || inst.useImm
                               ? srcValue(w, inst, lane)
                               : 0;
        const uint32_t c =
            inst.src[2] != isa::kNoReg ? regAt(w, inst.src[2], lane) : 0;
        uint32_t out = 0;
        switch (inst.op) {
          case Opcode::kFadd:
            out = asBits(asFloat(a) + asFloat(b));
            break;
          case Opcode::kFmul:
          case Opcode::kFmul2:
            out = asBits(asFloat(a) * asFloat(b));
            break;
          case Opcode::kFmad:
            out = asBits(asFloat(a) * asFloat(b) + asFloat(c));
            break;
          case Opcode::kIadd:
            out = a + b;
            break;
          case Opcode::kIsub:
            out = a - b;
            break;
          case Opcode::kImul:
            out = a * b;
            break;
          case Opcode::kImad:
            out = a * b + c;
            break;
          case Opcode::kShl:
            out = a << (b & 31);
            break;
          case Opcode::kShr:
            out = a >> (b & 31);
            break;
          case Opcode::kAnd:
            out = a & b;
            break;
          case Opcode::kOr:
            out = a | b;
            break;
          case Opcode::kXor:
            out = a ^ b;
            break;
          case Opcode::kImin:
            out = static_cast<uint32_t>(
                std::min(static_cast<int32_t>(a), static_cast<int32_t>(b)));
            break;
          case Opcode::kImax:
            out = static_cast<uint32_t>(
                std::max(static_cast<int32_t>(a), static_cast<int32_t>(b)));
            break;
          case Opcode::kMov:
            out = a;
            break;
          case Opcode::kMovImm:
            out = static_cast<uint32_t>(inst.imm);
            break;
          case Opcode::kS2r:
            switch (inst.sreg) {
              case isa::SpecialReg::kTid:
                out = static_cast<uint32_t>(tid_base + lane);
                break;
              case isa::SpecialReg::kNtid:
                out = static_cast<uint32_t>(cfg_.blockDim);
                break;
              case isa::SpecialReg::kCtaid:
                out = static_cast<uint32_t>(blockId_);
                break;
              case isa::SpecialReg::kNctaid:
                out = static_cast<uint32_t>(cfg_.gridDim);
                break;
              case isa::SpecialReg::kLaneId:
                out = static_cast<uint32_t>(lane);
                break;
              case isa::SpecialReg::kWarpId:
                out = static_cast<uint32_t>(w.warpId);
                break;
            }
            break;
          case Opcode::kSel:
            out = predAt(w, inst.pred, lane) ? a : b;
            break;
          case Opcode::kF2i:
            out = static_cast<uint32_t>(
                static_cast<int32_t>(asFloat(a)));
            break;
          case Opcode::kI2f:
            out = asBits(static_cast<float>(static_cast<int32_t>(a)));
            break;
          case Opcode::kRcp:
            out = asBits(1.0f / asFloat(a));
            break;
          case Opcode::kSin:
            out = asBits(std::sin(asFloat(a)));
            break;
          case Opcode::kCos:
            out = asBits(std::cos(asFloat(a)));
            break;
          case Opcode::kLg2:
            out = asBits(std::log2(asFloat(a)));
            break;
          case Opcode::kEx2:
            out = asBits(std::exp2(asFloat(a)));
            break;
          case Opcode::kRsqrt:
            out = asBits(1.0f / std::sqrt(asFloat(a)));
            break;
          // Double precision operates on float values held in 32-bit
          // registers: the type IV classification (1 unit/SM) is what
          // matters for modeling; these opcodes appear only in
          // microbenchmarks.
          case Opcode::kDadd:
            out = asBits(asFloat(a) + asFloat(b));
            break;
          case Opcode::kDmul:
            out = asBits(asFloat(a) * asFloat(b));
            break;
          case Opcode::kDfma:
            out = asBits(asFloat(a) * asFloat(b) + asFloat(c));
            break;
          default:
            panic("executeAlu: unexpected opcode %s",
                  isa::opcodeName(inst.op));
        }
        regAt(w, inst.dst, lane) = out;
    }
}

inline void
BlockExecutor::executeSetp(WarpState &w, const isa::Instruction &inst)
{
    for (int lane = 0; lane < spec_.warpSize; ++lane) {
        if (!((w.mask >> lane) & 1u))
            continue;
        const uint32_t a = regAt(w, inst.src[0], lane);
        const uint32_t b = srcValue(w, inst, lane);
        bool r;
        if (inst.op == isa::Opcode::kSetpI) {
            r = compareI(inst.cmp, static_cast<int32_t>(a),
                         static_cast<int32_t>(b));
        } else {
            r = compareF(inst.cmp, asFloat(a), asFloat(b));
        }
        predAt(w, inst.pred, lane) = r ? 1 : 0;
    }
}

inline void
BlockExecutor::executeSharedAccess(WarpState &w,
                                   const isa::Instruction &inst)
{
    // Compute per-lane byte addresses.
    for (int lane = 0; lane < spec_.warpSize; ++lane) {
        if (!((w.mask >> lane) & 1u))
            continue;
        addrBuf_[lane] =
            static_cast<uint64_t>(regAt(w, inst.src[0], lane)) + inst.imm;
    }

    // Data movement.
    int active = 0;
    for (int lane = 0; lane < spec_.warpSize; ++lane) {
        if (!((w.mask >> lane) & 1u))
            continue;
        ++active;
        if (inst.op == isa::Opcode::kLds) {
            regAt(w, inst.dst, lane) = shared_.load32(addrBuf_[lane]);
        } else {
            shared_.store32(addrBuf_[lane], regAt(w, inst.src[1], lane));
        }
    }

    // Statistics: serialized passes from bank conflicts.
    const int passes =
        banks_.warpTransactions(addrBuf_, w.mask, spec_.warpSize);
    int ideal_groups = 0;
    for (int start = 0; start < spec_.warpSize;
         start += spec_.sharedIssueGroup) {
        uint32_t group_mask = 0;
        for (int lane = start;
             lane < std::min(start + spec_.sharedIssueGroup,
                             spec_.warpSize);
             ++lane) {
            group_mask |= (w.mask >> lane) & 1u;
        }
        if (group_mask)
            ++ideal_groups;
    }

    funcsim::StageStats &s = stage();
    s.totalWarpInstrs += 1;
    s.sharedInstrs += 1;
    s.sharedTransactions += passes;
    s.sharedTransactionsIdeal += ideal_groups;
    s.sharedBytes += static_cast<uint64_t>(active) * 4;
    w.stageBodyOps += 1;

    funcsim::TraceOp op;
    op.unit = isa::UnitKind::kSharedMem;
    op.conflict = static_cast<uint8_t>(std::min(passes, 255));
    if (inst.op == isa::Opcode::kLds) {
        op.dst = inst.dst + 1;
        op.src[0] = inst.src[0] + 1;
    } else {
        op.src[0] = inst.src[0] + 1;
        op.src[1] = inst.src[1] + 1;
    }
    w.trace.ops.push_back(op);
}

inline void
BlockExecutor::executeGlobalAccess(WarpState &w,
                                   const isa::Instruction &inst)
{
    using isa::Opcode;
    for (int lane = 0; lane < spec_.warpSize; ++lane) {
        if (!((w.mask >> lane) & 1u))
            continue;
        addrBuf_[lane] =
            static_cast<uint64_t>(regAt(w, inst.src[0], lane)) + inst.imm;
    }

    int active = 0;
    for (int lane = 0; lane < spec_.warpSize; ++lane) {
        if (!((w.mask >> lane) & 1u))
            continue;
        ++active;
        if (inst.op == Opcode::kStg) {
            gmem_.store32(addrBuf_[lane], regAt(w, inst.src[1], lane));
        } else {
            regAt(w, inst.dst, lane) = gmem_.load32(addrBuf_[lane]);
        }
    }

    const auto xacts = coalescer_.coalesceWarp(addrBuf_, w.mask,
                                               spec_.warpSize, 4);
    funcsim::StageStats &s = stage();
    s.totalWarpInstrs += 1;
    s.globalInstrs += 1;
    s.globalTransactions += xacts.size();
    for (const auto &x : xacts) {
        s.globalBytes += x.bytes;
        s.globalXactBySize[x.bytes] += 1;
    }
    s.globalRequestBytes += static_cast<uint64_t>(active) * 4;
    w.stageBodyOps += 1;

    funcsim::TraceOp op;
    switch (inst.op) {
      case Opcode::kLdg:
        op.unit = isa::UnitKind::kGlobalLoad;
        op.dst = inst.dst + 1;
        break;
      case Opcode::kStg:
        op.unit = isa::UnitKind::kGlobalStore;
        op.src[1] = inst.src[1] + 1;
        break;
      case Opcode::kLdt:
        op.unit = isa::UnitKind::kTexLoad;
        op.dst = inst.dst + 1;
        break;
      default:
        panic("unexpected global opcode");
    }
    op.src[0] = inst.src[0] + 1;
    op.numXacts = static_cast<uint16_t>(xacts.size());
    op.xactBytes = static_cast<uint32_t>(
        memxact::CoalescingSimulator::totalBytes(xacts));

    if (inst.op == Opcode::kLdt) {
        // Record the distinct cache lines touched, per issue group, for
        // the timing simulator's texture cache.
        op.texIdx = static_cast<uint32_t>(w.trace.texLines.size());
        const int line = spec_.textureCacheLineBytes;
        int lines = 0;
        for (int start = 0; start < spec_.warpSize;
             start += spec_.coalesceGroup) {
            // Collect unique lines within the group, preserving order.
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

inline void
BlockExecutor::executeFmadShared(WarpState &w, const isa::Instruction &inst)
{
    int active = 0;
    for (int lane = 0; lane < spec_.warpSize; ++lane) {
        if (!((w.mask >> lane) & 1u))
            continue;
        addrBuf_[lane] =
            static_cast<uint64_t>(regAt(w, inst.src[1], lane)) + inst.imm;
        ++active;
    }
    for (int lane = 0; lane < spec_.warpSize; ++lane) {
        if (!((w.mask >> lane) & 1u))
            continue;
        const float a = asFloat(regAt(w, inst.src[0], lane));
        const float b = asFloat(shared_.load32(addrBuf_[lane]));
        const float c = asFloat(regAt(w, inst.src[2], lane));
        regAt(w, inst.dst, lane) = asBits(a * b + c);
    }

    const int passes =
        banks_.warpTransactions(addrBuf_, w.mask, spec_.warpSize);
    int ideal_groups = 0;
    for (int start = 0; start < spec_.warpSize;
         start += spec_.sharedIssueGroup) {
        uint32_t any = 0;
        for (int lane = start;
             lane < std::min(start + spec_.sharedIssueGroup,
                             spec_.warpSize);
             ++lane) {
            any |= (w.mask >> lane) & 1u;
        }
        if (any)
            ++ideal_groups;
    }

    funcsim::StageStats &s = stage();
    s.typeCounts[static_cast<int>(arch::InstrType::TypeII)] += 1;
    s.madCount += 1;
    s.totalWarpInstrs += 1;
    s.sharedTransactions += passes;
    s.sharedTransactionsIdeal += ideal_groups;
    s.sharedBytes += static_cast<uint64_t>(active) * 4;
    w.stageBodyOps += 1;

    funcsim::TraceOp op;
    op.unit = isa::UnitKind::kArithII;
    op.sharedPasses = static_cast<uint8_t>(std::min(passes, 255));
    op.dst = inst.dst + 1;
    op.src[0] = inst.src[0] + 1;
    op.src[1] = inst.src[1] + 1;
    op.src[2] = inst.src[2] + 1;
    w.trace.ops.push_back(op);
}

inline void
BlockExecutor::execute(WarpState &w, const isa::Instruction &inst)
{
    using isa::Opcode;
    switch (inst.op) {
      case Opcode::kFmadS:
        executeFmadShared(w, inst);
        ++w.pc;
        break;
      case Opcode::kIf: {
        countArith(w, inst.op);
        recordArithTrace(w, inst);
        const uint32_t taken = guardMask(w, inst);
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
        countArith(w, inst.op);
        recordArithTrace(w, inst);
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
        countArith(w, inst.op);
        recordArithTrace(w, inst);
        GPUPERF_ASSERT(!w.frames.empty() &&
                           w.frames.back().kind == Frame::kLoop,
                       "BRK without LOOP frame");
        const uint32_t leaving = guardMask(w, inst);
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
        countArith(w, inst.op);
        recordArithTrace(w, inst);
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
        countArith(w, inst.op);
        recordArithTrace(w, inst);
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
        countArith(w, inst.op);
        recordArithTrace(w, inst);
        executeSetp(w, inst);
        ++w.pc;
        break;
      default:
        countArith(w, inst.op);
        recordArithTrace(w, inst);
        executeAlu(w, inst);
        ++w.pc;
        break;
    }
}

inline void
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

inline void
BlockExecutor::run(int block_id, std::vector<funcsim::StageStats> &stages,
                   std::vector<double> &active,
                   std::vector<funcsim::WarpTrace> *warp_traces)
{
    blockId_ = block_id;
    stages_ = &stages;
    stageIdx_ = 0;
    if (stages.empty())
        stages.emplace_back();
    shared_.clear();

    const int warps = (cfg_.blockDim + spec_.warpSize - 1) / spec_.warpSize;
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

} // namespace detail

/**
 * The oracle simulator. Same constructor and run() signature as the
 * library's, so a test or bench can drive either through one template.
 */
class ScalarFunctionalSimulator
{
  public:
    explicit ScalarFunctionalSimulator(const arch::GpuSpec &spec)
        : spec_(spec), coalescer_(spec), banks_(spec)
    {
        spec_.validate();
    }

    /** Execute @p kernel over @p cfg against @p gmem (mutated by stores). */
    funcsim::RunResult run(const isa::Kernel &kernel,
                           const funcsim::LaunchConfig &cfg,
                           funcsim::GlobalMemory &gmem,
                           const funcsim::RunOptions &options = {});

    const arch::GpuSpec &spec() const { return spec_; }

  private:
    arch::GpuSpec spec_;
    memxact::CoalescingSimulator coalescer_;
    memxact::BankConflictAnalyzer banks_;
};

inline funcsim::RunResult
ScalarFunctionalSimulator::run(const isa::Kernel &kernel,
                               const funcsim::LaunchConfig &cfg,
                               funcsim::GlobalMemory &gmem,
                               const funcsim::RunOptions &options)
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

    funcsim::RunResult result;
    funcsim::DynamicStats &stats = result.stats;
    stats.gridDim = cfg.gridDim;
    stats.blockDim = cfg.blockDim;
    stats.warpsPerBlock =
        (cfg.blockDim + spec_.warpSize - 1) / spec_.warpSize;
    stats.sampledBlocks = sample;

    funcsim::LaunchTrace &trace = result.trace;
    if (options.collectTrace) {
        trace.blockDim = cfg.blockDim;
        trace.warpsPerBlock = stats.warpsPerBlock;
        trace.registersPerThread = kernel.numRegisters();
        trace.sharedBytesPerBlock = kernel.sharedBytes();
        trace.blocks.resize(cfg.gridDim);
    }

    detail::BlockExecutor executor(spec_, kernel, cfg, gmem, coalescer_,
                                   banks_, options);

    std::vector<std::vector<int>> sampled_block_traces(sample);
    std::vector<double> active_sums;   // per stage, summed over blocks
    size_t num_stages = 0;
    for (int b = 0; b < sample; ++b) {
        std::vector<funcsim::StageStats> block_stages;
        std::vector<double> block_active;
        std::vector<funcsim::WarpTrace> warp_traces;
        executor.run(b, block_stages, block_active,
                     options.collectTrace ? &warp_traces : nullptr);

        if (b == 0) {
            num_stages = block_stages.size();
            stats.stages.resize(num_stages);
            active_sums.assign(num_stages, 0.0);
        } else if (block_stages.size() != num_stages) {
            fatal("kernel '%s': block %d executed %zu stages, block 0 "
                  "executed %zu — grids must have a uniform barrier "
                  "structure", kernel.name().c_str(), b,
                  block_stages.size(), num_stages);
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

#ifndef NDEBUG
    // Debug builds of the library validate a homogeneous sample by also
    // running the grid's last block, whose stores land in gmem. Run it
    // too, so memory images compare equal in every build type.
    if (options.homogeneous && sample < cfg.gridDim) {
        std::vector<funcsim::StageStats> probe_stages;
        std::vector<double> probe_active;
        executor.run(cfg.gridDim - 1, probe_stages, probe_active, nullptr);
    }
#endif

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

} // namespace reference
} // namespace gpuperf

#endif // GPUPERF_TESTS_REFERENCE_FUNCSIM_H
