// The benchmark's own arithmetic: nearest-rank percentiles and the rule for
// which tail percentile a sample supports, the calibration error against a
// paper figure, the FNV-1a virtual digest, and span self time. Pure
// functions only, so perfbench/tests/bench_math_test.cc can pin them.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// A tail percentile is reported only when at least this many samples lie
// beyond it; otherwise the figure would rest on a handful of outliers.
inline constexpr std::uint64_t kMinSamplesBeyond = 10;

// 1-based nearest rank of the p-th percentile (0 < p <= 100) of n samples.
inline std::uint64_t nearestRank(std::uint64_t n, double p) {
  if (n == 0) return 0;
  const auto r = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::uint64_t>(r, 1, n);
}

// Samples strictly above the p-th percentile's rank.
inline std::uint64_t samplesBeyond(std::uint64_t n, double p) {
  return n - nearestRank(n, p);
}

inline bool tailSupported(std::uint64_t n, double p) {
  return n > 0 && samplesBeyond(n, p) >= kMinSamplesBeyond;
}

// Nearest-rank percentile; 0 for an empty sample. Sorts `v` in place.
template <class T>
T percentile(std::vector<T>& v, double p) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  return v[nearestRank(v.size(), p) - 1];
}

// |modelled - paper| / paper, in percent.
inline double paperErrPct(double modelled, double paper) {
  return std::fabs(modelled - paper) / paper * 100.0;
}

// 64-bit FNV-1a over a byte stream. Doubles are folded by bit pattern, so
// the digest changes on any change in the last bit of a virtual result.
class Fnv1a {
 public:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;

  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= kPrime;
  }
  void u64(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(x >> (8 * i)));
  }
  void f64(double x) { u64(std::bit_cast<std::uint64_t>(x)); }
  void str(std::string_view s) {
    for (char c : s) byte(static_cast<std::uint8_t>(c));
    byte(0);  // separator: ("ab","c") and ("a","bc") differ
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = kOffset;
};

// Self time of a span: its duration minus the part of [start, end) that its
// children cover (children may overlap each other or stick out of the
// parent; each instant is counted once and only inside the parent).
inline double selfTime(double start, double end,
                       std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double covered = 0.0;
  double reach = start;  // end of the covered prefix so far
  for (auto [s, e] : children) {
    s = std::max(s, reach);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return (end - start) - covered;
}

}  // namespace perfbench
