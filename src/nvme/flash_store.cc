#include "nvme/flash_store.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace agile::nvme {

namespace {

// Bytes [begin, end) of the default pattern of page `lba` into `out`,
// generating only the words that overlap the range. Word bytes land in host
// order, exactly as a whole-page fill through a uint64_t array stores them.
void patternBytes(std::uint64_t lba, std::uint32_t begin, std::uint32_t end,
                  std::byte* out) {
  std::uint32_t word = begin / 8;
  if (const std::uint32_t head = begin % 8; head != 0) {
    const std::uint64_t w = FlashStore::patternWord(lba, word++);
    const std::uint32_t n = std::min(8 - head, end - begin);
    std::memcpy(out, reinterpret_cast<const std::byte*>(&w) + head, n);
    out += n;
  }
  for (; word < end / 8; ++word, out += 8) {
    const std::uint64_t w = FlashStore::patternWord(lba, word);
    std::memcpy(out, &w, 8);
  }
  if (word * 8 < end) {
    const std::uint64_t w = FlashStore::patternWord(lba, word);
    std::memcpy(out, &w, end - word * 8);
  }
}

}  // namespace

FlashStore::FlashStore(std::uint64_t capacityLbas)
    : capacityLbas_(capacityLbas) {
  AGILE_CHECK(capacityLbas >= 1);
}

void FlashStore::setContentProvider(ContentProvider provider) {
  AGILE_CHECK(provider != nullptr);
  // Tails are generated on read, so fix the outgoing generator's tail into
  // every partial page before it stops being the generator.
  for (const std::uint64_t lba : partialLbas_) {
    auto it = pages_.find(lba);
    if (it == pages_.end() || it->second.len == kLbaBytes) continue;
    Page& page = it->second;
    auto full = std::make_unique_for_overwrite<std::byte[]>(kLbaBytes);
    std::memcpy(full.get(), page.data.get(), page.len);
    generate(lba, page.len, kLbaBytes, full.get() + page.len);
    page.data = std::move(full);
    page.len = kLbaBytes;
  }
  partialLbas_.clear();
  provider_ = std::move(provider);
}

void FlashStore::generate(std::uint64_t lba, std::uint32_t begin,
                          std::uint32_t end, std::byte* out) const {
  if (!provider_) {
    patternBytes(lba, begin, end, out);
  } else if (begin == 0 && end == kLbaBytes) {
    provider_(lba, out);
  } else {
    alignas(8) std::byte page[kLbaBytes];
    provider_(lba, page);
    std::memcpy(out, page + begin, end - begin);
  }
}

bool FlashStore::readPrefix(std::uint64_t lba, std::byte* out,
                            std::uint32_t bytes) const {
  if (lba >= capacityLbas_) return false;
  AGILE_CHECK(bytes <= kLbaBytes);
  std::uint32_t have = 0;
  if (auto it = pages_.find(lba); it != pages_.end()) {
    have = std::min(it->second.len, bytes);
    std::memcpy(out, it->second.data.get(), have);
  }
  if (have < bytes) generate(lba, have, bytes, out + have);
  return true;
}

bool FlashStore::writePrefix(std::uint64_t lba, const std::byte* in,
                             std::uint32_t bytes) {
  if (lba >= capacityLbas_) return false;
  AGILE_CHECK(bytes <= kLbaBytes);
  if (bytes == 0) return true;
  auto [it, inserted] = pages_.try_emplace(lba);
  Page& page = it->second;
  if (page.len < bytes) {
    // The new prefix covers the whole stored one: nothing carries over.
    page.data = std::make_unique_for_overwrite<std::byte[]>(bytes);
    page.len = bytes;
  }
  if (inserted && bytes < kLbaBytes) partialLbas_.push_back(lba);
  std::memcpy(page.data.get(), in, bytes);
  return true;
}

void FlashStore::trimPage(std::uint64_t lba) { pages_.erase(lba); }

std::uint64_t FlashStore::patternWord(std::uint64_t lba,
                                      std::uint32_t wordIdx) {
  std::uint64_t x = lba * 0x9e3779b97f4a7c15ull + wordIdx + 1;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

void FlashStore::defaultPattern(std::uint64_t lba, std::byte* out) {
  patternBytes(lba, 0, kLbaBytes, out);
}

}  // namespace agile::nvme
