// Simulated GPU high-bandwidth memory: a capacity-accounted arena of real
// host allocations. NVMe queues, the AGILE software cache, and user device
// buffers all live here, mirroring the paper's GPU-resident data structures
// (§3.1: queues and cache are pinned, physically contiguous HBM ranges that
// the SSDs DMA into).
//
// Allocations are stable for the lifetime of the arena; the simulator's SSD
// controller "DMAs" into them with plain memcpy at completion time.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace agile::gpu {

class Hbm {
 public:
  explicit Hbm(std::uint64_t capacityBytes);

  // Allocate `bytes` aligned to `align`; aborts if over capacity (mirrors
  // cudaMalloc failure being fatal in the paper's setup).
  std::byte* allocBytes(std::uint64_t bytes, std::uint64_t align = 64);

  template <class T>
  std::span<T> alloc(std::uint64_t count) {
    auto* p = allocBytes(count * sizeof(T), alignof(T) < 64 ? 64 : alignof(T));
    return {reinterpret_cast<T*>(p), count};
  }

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used() const { return used_; }
  std::uint64_t free() const { return capacity_ - used_; }

  // Simulated physical address of a pointer inside the arena (used when
  // registering queue/cache addresses with the simulated SSD BARs, standing
  // in for the GDRCopy pin+translate step of §3.1).
  std::uint64_t physAddr(const void* p) const;
  std::byte* fromPhysAddr(std::uint64_t addr) const;

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::uint64_t size;
    std::uint64_t base;  // simulated physical base address
  };

  // Position in byPtr_ of the first chunk whose data starts above `p`.
  std::vector<std::uint32_t>::const_iterator firstChunkAbove(
      const std::byte* p) const;

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::uint64_t nextBase_ = 0x1000;  // avoid 0 looking like a null PRP
  // In allocation order, so `base` ascends (fromPhysAddr searches it).
  std::vector<Chunk> chunks_;
  // Chunk indices ordered by host pointer (physAddr searches it).
  std::vector<std::uint32_t> byPtr_;
};

}  // namespace agile::gpu
