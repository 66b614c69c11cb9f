#include "gpu/hbm.h"

#include <algorithm>
#include <functional>

namespace agile::gpu {

namespace {
// agile-lint: allow(pointer-ordered): lookup index only; no order escapes it
constexpr std::less<const std::byte*> kPtrLess;
}  // namespace

Hbm::Hbm(std::uint64_t capacityBytes) : capacity_(capacityBytes) {}

std::byte* Hbm::allocBytes(std::uint64_t bytes, std::uint64_t align) {
  AGILE_CHECK(bytes > 0);
  AGILE_CHECK(isPowerOfTwo(align));
  const std::uint64_t padded = (bytes + align - 1) & ~(align - 1);
  AGILE_CHECK_MSG(used_ + padded <= capacity_, "simulated HBM exhausted");
  used_ += padded;

  Chunk c;
  c.size = padded;
  c.base = nextBase_;
  nextBase_ += padded + 4096;  // guard gap between chunks
  c.data = std::make_unique<std::byte[]>(padded);  // zero-filled
  auto* p = c.data.get();
  const auto idx = static_cast<std::uint32_t>(chunks_.size());
  chunks_.push_back(std::move(c));
  byPtr_.insert(firstChunkAbove(p), idx);
  return p;
}

std::vector<std::uint32_t>::const_iterator Hbm::firstChunkAbove(
    const std::byte* p) const {
  return std::upper_bound(byPtr_.begin(), byPtr_.end(), p,
                          [this](const std::byte* q, std::uint32_t i) {
                            return kPtrLess(q, chunks_[i].data.get());
                          });
}

std::uint64_t Hbm::physAddr(const void* p) const {
  const auto* b = static_cast<const std::byte*>(p);
  // The chunk before the first one starting above `b` is the only candidate.
  const auto it = firstChunkAbove(b);
  if (it != byPtr_.begin()) {
    const Chunk& c = chunks_[*std::prev(it)];
    if (kPtrLess(b, c.data.get() + c.size)) {
      return c.base + static_cast<std::uint64_t>(b - c.data.get());
    }
  }
  AGILE_CHECK_MSG(false, "pointer not inside simulated HBM");
  return 0;
}

std::byte* Hbm::fromPhysAddr(std::uint64_t addr) const {
  // Last chunk whose base is at or below `addr`.
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), addr,
      [](std::uint64_t a, const Chunk& c) { return a < c.base; });
  if (it != chunks_.begin()) {
    const Chunk& c = *std::prev(it);
    if (addr < c.base + c.size) return c.data.get() + (addr - c.base);
  }
  AGILE_CHECK_MSG(false, "physical address not inside simulated HBM");
  return nullptr;
}

}  // namespace agile::gpu
