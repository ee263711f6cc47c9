#include "isa/kernel.h"

#include <algorithm>

#include "common/fnv.h"
#include "common/logging.h"

namespace gpuperf {
namespace isa {

Kernel::Kernel(std::string name, std::vector<Instruction> instrs,
               int num_regs, int num_preds, int shared_bytes)
    : name_(std::move(name)),
      instrs_(std::move(instrs)),
      numRegs_(num_regs),
      numPreds_(num_preds),
      sharedBytes_(shared_bytes)
{
    if (instrs_.empty() || instrs_.back().op != Opcode::kExit) {
        Instruction exit_instr;
        exit_instr.op = Opcode::kExit;
        instrs_.push_back(exit_instr);
    }
    validateAndIndex();
    computeHash();
}

Kernel::Kernel() : Kernel("", {}, 1, 0, 0) {}

void
Kernel::computeHash()
{
    // FNV-1a over the semantically meaningful fields, hashed
    // explicitly field by field: Instruction has padding bytes, and
    // hashing raw struct memory would make the hash (and with it every
    // profile-store key) depend on uninitialized padding.
    uint64_t h = kFnvOffsetBasis;
    auto mix = [&h](uint64_t v) { h = fnv1a64Value(v, h); };
    mix(static_cast<uint64_t>(numRegs_));
    mix(static_cast<uint64_t>(numPreds_));
    mix(static_cast<uint64_t>(sharedBytes_));
    mix(instrs_.size());
    for (const Instruction &inst : instrs_) {
        mix(static_cast<uint64_t>(inst.op));
        mix(inst.dst);
        mix(inst.src[0]);
        mix(inst.src[1]);
        mix(inst.src[2]);
        mix(static_cast<uint64_t>(static_cast<uint32_t>(inst.imm)));
        mix(inst.useImm ? 1 : 0);
        mix(inst.pred);
        mix(inst.predNegate ? 1 : 0);
        mix(static_cast<uint64_t>(inst.cmp));
        mix(static_cast<uint64_t>(inst.sreg));
    }
    hash_ = h;
}

void
Kernel::validateAndIndex()
{
    const int n = static_cast<int>(instrs_.size());
    elseOf_.assign(n, -1);
    endifOf_.assign(n, -1);
    endloopOf_.assign(n, -1);
    loopOf_.assign(n, -1);

    struct Frame
    {
        Opcode kind;   // kIf, kElse, or kLoop
        int pc;        // index of the opening IF/LOOP
        int elsePc;    // ELSE index within an IF frame, -1 if not seen
    };
    std::vector<Frame> stack;

    for (int pc = 0; pc < n; ++pc) {
        const Instruction &inst = instrs_[pc];
        switch (inst.op) {
          case Opcode::kIf:
            if (inst.pred == kNoPred)
                fatal("kernel '%s': IF at %d has no guard predicate",
                      name_.c_str(), pc);
            stack.push_back({Opcode::kIf, pc, -1});
            break;
          case Opcode::kElse:
            if (stack.empty() || stack.back().kind != Opcode::kIf)
                fatal("kernel '%s': ELSE at %d without open IF",
                      name_.c_str(), pc);
            if (stack.back().elsePc != -1)
                fatal("kernel '%s': duplicate ELSE at %d", name_.c_str(),
                      pc);
            stack.back().elsePc = pc;
            break;
          case Opcode::kEndif: {
            if (stack.empty() || stack.back().kind != Opcode::kIf)
                fatal("kernel '%s': ENDIF at %d without open IF",
                      name_.c_str(), pc);
            const Frame frame = stack.back();
            stack.pop_back();
            elseOf_[frame.pc] = frame.elsePc;
            endifOf_[frame.pc] = pc;
            if (frame.elsePc != -1)
                endifOf_[frame.elsePc] = pc;
            break;
          }
          case Opcode::kLoop:
            stack.push_back({Opcode::kLoop, pc, -1});
            break;
          case Opcode::kBrk: {
            if (inst.pred == kNoPred)
                fatal("kernel '%s': BRK at %d has no guard predicate",
                      name_.c_str(), pc);
            // BRK must be an immediate child of the innermost LOOP so
            // that lane removal needs no IF-mask unwinding.
            if (stack.empty() || stack.back().kind != Opcode::kLoop)
                fatal("kernel '%s': BRK at %d must be directly inside a "
                      "LOOP (not nested in IF)", name_.c_str(), pc);
            break;
          }
          case Opcode::kEndloop: {
            if (stack.empty() || stack.back().kind != Opcode::kLoop)
                fatal("kernel '%s': ENDLOOP at %d without open LOOP",
                      name_.c_str(), pc);
            const Frame frame = stack.back();
            stack.pop_back();
            endloopOf_[frame.pc] = pc;
            loopOf_[pc] = frame.pc;
            break;
          }
          case Opcode::kExit:
            if (pc != n - 1)
                fatal("kernel '%s': EXIT at %d is not the last instruction",
                      name_.c_str(), pc);
            break;
          default:
            break;
        }

        // Operand sanity.
        if (writesRegister(inst.op) &&
            (inst.dst == kNoReg || inst.dst >= numRegs_)) {
            fatal("kernel '%s': instruction %d (%s) writes register %d out "
                  "of range [0, %d)", name_.c_str(), pc,
                  opcodeName(inst.op), inst.dst, numRegs_);
        }
        if (writesPredicate(inst.op) && inst.pred >= numPreds_)
            fatal("kernel '%s': SETP at %d writes predicate %d out of "
                  "range [0, %d)", name_.c_str(), pc, inst.pred, numPreds_);
        for (Reg s : inst.src) {
            if (s != kNoReg && s >= numRegs_)
                fatal("kernel '%s': instruction %d (%s) reads register %d "
                      "out of range [0, %d)", name_.c_str(), pc,
                      opcodeName(inst.op), s, numRegs_);
        }
        // BRK inside its loop also needs a second lookup pass: map every
        // BRK to the ENDLOOP of the loop frame it sits in.
    }
    if (!stack.empty())
        fatal("kernel '%s': %zu unterminated control structures",
              name_.c_str(), stack.size());

    // Second pass: resolve BRK -> ENDLOOP now that loops are matched.
    std::vector<int> loop_stack;
    for (int pc = 0; pc < n; ++pc) {
        switch (instrs_[pc].op) {
          case Opcode::kLoop:
            loop_stack.push_back(pc);
            break;
          case Opcode::kEndloop:
            loop_stack.pop_back();
            break;
          case Opcode::kBrk:
            GPUPERF_ASSERT(!loop_stack.empty(), "BRK outside loop");
            endloopOf_[pc] = endloopOf_[loop_stack.back()];
            break;
          default:
            break;
        }
    }

    if (numRegs_ <= 0)
        fatal("kernel '%s': needs at least one register", name_.c_str());
}

int
Kernel::countStatic(Opcode op) const
{
    return static_cast<int>(std::count_if(
        instrs_.begin(), instrs_.end(),
        [op](const Instruction &i) { return i.op == op; }));
}

} // namespace isa
} // namespace gpuperf
