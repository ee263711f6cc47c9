/**
 * @file
 * Device memory models for the functional simulator.
 */

#ifndef GPUPERF_FUNCSIM_MEMORY_H
#define GPUPERF_FUNCSIM_MEMORY_H

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"

namespace gpuperf {
namespace funcsim {

/**
 * Byte-addressable global (device) memory with a simple linear
 * allocator. Address 0 is never handed out so stray null-address
 * accesses fault loudly.
 */
class GlobalMemory
{
  public:
    /**
     * @param capacity total device memory in bytes.
     * @throws std::runtime_error below 512 bytes.
     */
    explicit GlobalMemory(size_t capacity);

    /**
     * Allocate @p bytes aligned to @p align (zero-initialized).
     * @return the device byte address of the allocation.
     * @throws std::runtime_error ("device out of memory") when the
     *         allocation overflows the image, so a case factory that
     *         under-sizes its image fails its own cells, not the
     *         process.
     */
    uint64_t alloc(size_t bytes, size_t align = 256);

    /** Bytes currently allocated (high-water mark). */
    size_t used() const { return next_; }
    size_t capacity() const { return data_.size(); }

    /**
     * FNV-1a digest of the image's identity: used() and capacity()
     * (the shape — capacity bounds which stray accesses fault)
     * followed by the allocated contents (the first used() bytes).
     * Kernels whose behaviour depends on memory contents (e.g. SpMV
     * column indices) get distinct profile keys for distinct inputs.
     * Call before running a kernel — stores mutate the image.
     *
     * Contract: input data must live in alloc()'d space. Bytes
     * written above used() (possible — check() bounds accesses by
     * capacity) are NOT part of the digest, so a launch relying on
     * them could alias another's cached profile.
     */
    uint64_t contentHash() const;

    uint32_t load32(uint64_t addr) const;
    void store32(uint64_t addr, uint32_t value);

    float loadF32(uint64_t addr) const;
    void storeF32(uint64_t addr, float value);

    /** Host-side view of an allocation as a float array. */
    float *f32(uint64_t addr);
    const float *f32(uint64_t addr) const;

    /** Host-side view as a 32-bit integer array. */
    uint32_t *u32(uint64_t addr);
    const uint32_t *u32(uint64_t addr) const;

  private:
    void check(uint64_t addr, size_t bytes) const;

    std::vector<uint8_t> data_;
    size_t next_;
};

/** Per-block on-chip shared memory. */
class SharedMemory
{
  public:
    explicit SharedMemory(int bytes);

    uint32_t load32(uint64_t addr) const;
    void store32(uint64_t addr, uint32_t value);

    int size() const { return static_cast<int>(data_.size()); }

    /** Reset contents to zero (reused across blocks). */
    void clear();

  private:
    void check(uint64_t addr) const;

    std::vector<uint8_t> data_;
};

} // namespace funcsim
} // namespace gpuperf

#endif // GPUPERF_FUNCSIM_MEMORY_H
