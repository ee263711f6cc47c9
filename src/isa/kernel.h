/**
 * @file
 * A validated, executable kernel: instruction list plus resource usage
 * and the control-structure match tables used by the interpreter.
 */

#ifndef GPUPERF_ISA_KERNEL_H
#define GPUPERF_ISA_KERNEL_H

#include <cstdint>
#include <string>
#include <vector>

#include "isa/instruction.h"

namespace gpuperf {
namespace isa {

/**
 * An immutable kernel. Build one with KernelBuilder; construction
 * validates structural well-formedness (matched IF/ENDIF, LOOP/ENDLOOP,
 * BRK placement, barriers outside divergent regions cannot be checked
 * statically and are enforced at run time).
 */
class Kernel
{
  public:
    /**
     * @param name          kernel name for reports
     * @param instrs        instruction sequence (EXIT appended if absent)
     * @param num_regs      general-purpose registers per thread
     * @param num_preds     predicate registers per thread
     * @param shared_bytes  statically allocated shared memory per block
     */
    Kernel(std::string name, std::vector<Instruction> instrs, int num_regs,
           int num_preds, int shared_bytes);

    /** The empty kernel (a lone EXIT), for decoders to assign over. */
    Kernel();

    const std::string &name() const { return name_; }
    const std::vector<Instruction> &instructions() const { return instrs_; }
    int numRegisters() const { return numRegs_; }
    int numPredicates() const { return numPreds_; }
    int sharedBytes() const { return sharedBytes_; }

    /** Index of the ELSE matching the IF at @p pc, or -1 if none. */
    int elseOf(int pc) const { return elseOf_[pc]; }
    /** Index of the ENDIF matching the IF/ELSE at @p pc. */
    int endifOf(int pc) const { return endifOf_[pc]; }
    /** Index of the ENDLOOP matching the LOOP/BRK at @p pc. */
    int endloopOf(int pc) const { return endloopOf_[pc]; }
    /** Index of the LOOP matching the ENDLOOP at @p pc. */
    int loopOf(int pc) const { return loopOf_[pc]; }

    /** Count static occurrences of one opcode (for tests/reports). */
    int countStatic(Opcode op) const;

    /**
     * Content hash of the executable program: every instruction field
     * plus the resource usage, but NOT the display name — two kernels
     * that differ only in name behave identically under simulation and
     * may share cached profiles. Computed once at construction.
     */
    uint64_t hash() const { return hash_; }

  private:
    void validateAndIndex();
    void computeHash();

    std::string name_;
    std::vector<Instruction> instrs_;
    int numRegs_;
    int numPreds_;
    int sharedBytes_;
    uint64_t hash_ = 0;

    std::vector<int> elseOf_;
    std::vector<int> endifOf_;
    std::vector<int> endloopOf_;
    std::vector<int> loopOf_;
};

} // namespace isa
} // namespace gpuperf

#endif // GPUPERF_ISA_KERNEL_H
