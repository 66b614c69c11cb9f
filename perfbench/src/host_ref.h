// Host-speed reference: a fixed discrete-event kernel owned by the
// benchmark, timed before every repetition to normalize wall figures.
//
// The sandbox hosts this benchmark runs on share their caches and memory
// with other tenants, and their speed drifts by up to ~1.5x over minutes,
// which no number of repetitions inside one run removes. A repetition and
// this kernel, timed seconds apart, see the same drift. The kernel mimics
// the simulator's hot loop: a binary-heap event queue whose events touch
// 8 MiB of scattered 256-byte nodes. It is purely memory-bound, and it slows
// about as the square of the benchmark's workloads do. So wall figures are
// scaled by sqrt(nominal / measured). On ten-run sets of randrw_3ssd,
// dlrm_b16 and kv_serving this cut the run-to-run spread of wall_s from
// 16-20% to 7-11%. The kernel is part of the benchmark, not of the
// simulator, so no change to the simulator can move it.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace perfbench {

class HostRef {
 public:
  // Wall seconds of the kernel on the host the bounds were set on (Xeon
  // sandbox, 4 vCPUs), so normalized times read as seconds at its speed.
  static constexpr double kNominalS = 0.1;

  HostRef() : nodes_(kNodes) {
    std::uint64_t x = 0x5eed;
    for (auto& n : nodes_) {
      n = std::make_unique<Node>();
      for (auto& w : n->w) w = next(x);
    }
    heap_.reserve(kPending + 1);
  }

  // Factor that brings a wall time measured while the kernel took
  // `measuredS` to the nominal host speed.
  static double scale(double measuredS) {
    return std::sqrt(kNominalS / measuredS);
  }

  // Runs the fixed event sequence once; returns its wall seconds. The
  // sequence is the same on every call: targets and delays come from a
  // private generator, never from node contents.
  double measure() {
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    heap_.clear();
    for (std::uint32_t i = 0; i < kPending; ++i) {
      push({next(x) % 100000, static_cast<std::uint32_t>(next(x) % kNodes)});
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t e = 0; e < kEvents; ++e) {
      const Event ev = pop();
      Node& n = *nodes_[ev.second];
      const std::uint64_t r = next(x);
      n.w[r & 31] += n.w[(r >> 5) & 31] ^ ev.first;
      push({ev.first + 1 + (r >> 40) % 5000,
            static_cast<std::uint32_t>((r >> 10) % kNodes)});
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }

 private:
  struct Node {
    std::uint64_t w[32];  // 256 B, about a coroutine frame
  };
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // time, node

  static constexpr std::uint32_t kNodes = 1u << 15;  // 8 MiB scattered
  static constexpr std::uint32_t kPending = 1u << 13;
  static constexpr std::uint32_t kEvents = 600000;

  static std::uint64_t next(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }

  void push(Event e) {
    heap_.push_back(e);
    std::size_t i = heap_.size() - 1;
    while (i > 0 && heap_[(i - 1) / 2].first > heap_[i].first) {
      std::swap(heap_[(i - 1) / 2], heap_[i]);
      i = (i - 1) / 2;
    }
  }
  Event pop() {
    const Event top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    std::size_t i = 0;
    for (;;) {
      const std::size_t l = 2 * i + 1, r = l + 1;
      std::size_t m = i;
      if (l < heap_.size() && heap_[l].first < heap_[m].first) m = l;
      if (r < heap_.size() && heap_[r].first < heap_[m].first) m = r;
      if (m == i) break;
      std::swap(heap_[i], heap_[m]);
      i = m;
    }
    return top;
  }

  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<Event> heap_;
};

}  // namespace perfbench
