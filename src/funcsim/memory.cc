#include "funcsim/memory.h"

#include <stdexcept>
#include <string>

#include "common/fnv.h"

namespace gpuperf {
namespace funcsim {

GlobalMemory::GlobalMemory(size_t capacity)
    : data_(capacity, 0), next_(256)
{
    if (capacity < 512)
        throw std::runtime_error("global memory capacity " +
                                 std::to_string(capacity) + " too small");
}

uint64_t
GlobalMemory::alloc(size_t bytes, size_t align)
{
    GPUPERF_ASSERT(align > 0 && (align & (align - 1)) == 0,
                   "alignment must be a power of two");
    size_t base = (next_ + align - 1) & ~(align - 1);
    if (base + bytes > data_.size())
        throw std::runtime_error(
            "device out of memory: want " + std::to_string(bytes) +
            " B at " + std::to_string(base) + ", capacity " +
            std::to_string(data_.size()));
    next_ = base + bytes;
    return base;
}

uint64_t
GlobalMemory::contentHash() const
{
    // Word-folded FNV-1a variant (common/fnv.h constants): folding 8
    // bytes per multiply keeps hashing even a multi-MB image well
    // below the cost of simulating it. Not byte-compatible with
    // fnv1a64() on purpose — this digest is only ever compared to
    // itself (profile keys). The shape is part of the identity:
    // capacity bounds which stray accesses fault, so two images with
    // equal contents but different capacities must not alias.
    uint64_t h = fnv1a64Value(next_, kFnvOffsetBasis);
    h = fnv1a64Value(data_.size(), h);
    size_t i = 0;
    for (; i + 8 <= next_; i += 8) {
        uint64_t word;
        std::memcpy(&word, data_.data() + i, 8);
        h ^= word;
        h *= kFnvPrime;
    }
    for (; i < next_; ++i) {
        h ^= data_[i];
        h *= kFnvPrime;
    }
    return h;
}

void
GlobalMemory::check(uint64_t addr, size_t bytes) const
{
    if (addr < 256 || addr + bytes > data_.size())
        panic("global memory access at %llu (+%zu) out of bounds "
              "(capacity %zu)", static_cast<unsigned long long>(addr),
              bytes, data_.size());
}

uint32_t
GlobalMemory::load32(uint64_t addr) const
{
    check(addr, 4);
    uint32_t v;
    std::memcpy(&v, data_.data() + addr, 4);
    return v;
}

void
GlobalMemory::store32(uint64_t addr, uint32_t value)
{
    check(addr, 4);
    std::memcpy(data_.data() + addr, &value, 4);
}

float
GlobalMemory::loadF32(uint64_t addr) const
{
    uint32_t v = load32(addr);
    float f;
    std::memcpy(&f, &v, 4);
    return f;
}

void
GlobalMemory::storeF32(uint64_t addr, float value)
{
    uint32_t v;
    std::memcpy(&v, &value, 4);
    store32(addr, v);
}

float *
GlobalMemory::f32(uint64_t addr)
{
    check(addr, 4);
    return reinterpret_cast<float *>(data_.data() + addr);
}

const float *
GlobalMemory::f32(uint64_t addr) const
{
    check(addr, 4);
    return reinterpret_cast<const float *>(data_.data() + addr);
}

uint32_t *
GlobalMemory::u32(uint64_t addr)
{
    check(addr, 4);
    return reinterpret_cast<uint32_t *>(data_.data() + addr);
}

const uint32_t *
GlobalMemory::u32(uint64_t addr) const
{
    check(addr, 4);
    return reinterpret_cast<const uint32_t *>(data_.data() + addr);
}

SharedMemory::SharedMemory(int bytes)
    : data_(static_cast<size_t>(bytes), 0)
{
}

void
SharedMemory::check(uint64_t addr) const
{
    if (addr + 4 > data_.size())
        panic("shared memory access at %llu out of bounds (size %zu)",
              static_cast<unsigned long long>(addr), data_.size());
}

uint32_t
SharedMemory::load32(uint64_t addr) const
{
    check(addr);
    uint32_t v;
    std::memcpy(&v, data_.data() + addr, 4);
    return v;
}

void
SharedMemory::store32(uint64_t addr, uint32_t value)
{
    check(addr);
    std::memcpy(data_.data() + addr, &value, 4);
}

void
SharedMemory::clear()
{
    std::fill(data_.begin(), data_.end(), 0);
}

} // namespace funcsim
} // namespace gpuperf
