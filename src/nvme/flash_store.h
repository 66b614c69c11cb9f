// Sparse flash backing store: page-granular content of one simulated SSD.
//
// Pages never written hold generated content from a ContentProvider (default:
// a deterministic per-page pattern), so benches can "store" terabyte-scale
// datasets (embedding tables, graphs) without materializing them; written
// bytes become real buffers and subsequent reads observe the data —
// end-to-end data integrity through the cache/NVMe path is testable.
//
// Storage is prefix-granular: a page keeps only the prefix [0, len) that
// has been written, and bytes past it are generated on every read. A device
// in truncated-payload mode (SsdConfig::payloadBytes) therefore stores and
// generates only the bytes its commands DMA.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "nvme/defs.h"

namespace agile::nvme {

// Fills `out[0..kLbaBytes)` with the logical content of page `lba`.
// agile-lint: allow(std-function-hot): custom providers only (the default pattern bypasses it); called on reads of unmaterialized bytes and once per partial page at a provider swap, and callers install arbitrarily large closures
using ContentProvider = std::function<void(std::uint64_t lba, std::byte* out)>;

class FlashStore {
 public:
  explicit FlashStore(std::uint64_t capacityLbas);

  std::uint64_t capacityLbas() const { return capacityLbas_; }

  // Replace the generator for unwritten bytes. Pages that hold only a
  // written prefix first take their tail from the outgoing generator, so
  // every byte readable before the swap reads the same after it.
  void setContentProvider(ContentProvider provider);

  // Copy bytes [0, bytes) of page `lba` into `out` (bytes <= kLbaBytes):
  // the written prefix, then generated content. Returns false if lba is out
  // of range.
  bool readPrefix(std::uint64_t lba, std::byte* out, std::uint32_t bytes) const;

  // Overwrite bytes [0, bytes) of page `lba` from `in` (bytes <= kLbaBytes);
  // the rest of the page keeps its content. Returns false if lba is out of
  // range.
  bool writePrefix(std::uint64_t lba, const std::byte* in, std::uint32_t bytes);

  // Whole-page forms of the two above.
  bool readPage(std::uint64_t lba, std::byte* out) const {
    return readPrefix(lba, out, kLbaBytes);
  }
  bool writePage(std::uint64_t lba, const std::byte* in) {
    return writePrefix(lba, in, kLbaBytes);
  }

  // Drop a materialized page back to generated content (used by tests).
  void trimPage(std::uint64_t lba);

  // Pages holding written bytes (whole pages and written prefixes).
  std::size_t materializedPages() const { return pages_.size(); }

  // The default pattern: page filled with a 64-bit mix of (lba, offset/8),
  // so any partial or misplaced DMA is detectable.
  static void defaultPattern(std::uint64_t lba, std::byte* out);
  static std::uint64_t patternWord(std::uint64_t lba, std::uint32_t wordIdx);

 private:
  // The written prefix [0, len) of one page.
  struct Page {
    std::uint32_t len = 0;
    std::unique_ptr<std::byte[]> data;
  };

  // Generated bytes [begin, end) of page `lba` into `out` (which receives
  // byte `begin` first).
  void generate(std::uint64_t lba, std::uint32_t begin, std::uint32_t end,
                std::byte* out) const;

  std::uint64_t capacityLbas_;
  ContentProvider provider_;  // empty: the default pattern
  std::unordered_map<std::uint64_t, Page> pages_;
  // LBAs materialized as a partial prefix, in creation order (entries may be
  // stale after a trim or a later full write); the provider swap completes
  // their tails.
  std::vector<std::uint64_t> partialLbas_;
};

}  // namespace agile::nvme
