// Tests for the benchmark's own arithmetic (src/bench_math.h): nearest-rank
// percentiles and the beyond-count rule, paper_err_pct, the FNV-1a digest
// and span self time. Self-contained so the benchmark build needs no test
// framework; exits nonzero on the first failed expectation.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_math.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void testPercentile() {
  using perfbench::percentile;
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 100; i >= 1; --i) v.push_back(i);  // 100..1
  EXPECT(percentile(v, 50.0) == 50);
  EXPECT(percentile(v, 90.0) == 90);
  EXPECT(percentile(v, 99.0) == 99);
  EXPECT(percentile(v, 100.0) == 100);
  std::vector<std::uint64_t> one{7};
  EXPECT(percentile(one, 50.0) == 7);
  EXPECT(percentile(one, 99.0) == 7);
  std::vector<std::uint64_t> empty;
  EXPECT(percentile(empty, 50.0) == 0);
  // Odd count: nearest rank of p50 over 5 samples is the 3rd.
  std::vector<double> odd{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT(percentile(odd, 50.0) == 3.0);
  // Exact products must not round up a rank: 0.9 * 10 == 9.
  EXPECT(perfbench::nearestRank(10, 90.0) == 9);
  EXPECT(perfbench::nearestRank(3, 50.0) == 2);
}

void testBeyondRule() {
  using perfbench::samplesBeyond;
  using perfbench::tailSupported;
  // 128 kv requests: p90 leaves 12 samples beyond it, p99 only 1.
  EXPECT(samplesBeyond(128, 90.0) == 12);
  EXPECT(tailSupported(128, 90.0));
  EXPECT(samplesBeyond(128, 99.0) == 1);
  EXPECT(!tailSupported(128, 99.0));
  // The boundary: p90 needs 100 samples, p99 needs 1000.
  EXPECT(samplesBeyond(100, 90.0) == 10);
  EXPECT(tailSupported(100, 90.0));
  EXPECT(!tailSupported(99, 90.0));
  EXPECT(tailSupported(1000, 99.0));
  EXPECT(!tailSupported(999, 99.0));
  EXPECT(!tailSupported(0, 50.0));
}

void testPaperErr() {
  using perfbench::paperErrPct;
  EXPECT(near(paperErrPct(1.88, 1.88), 0.0));
  EXPECT(near(paperErrPct(1.75 * 1.1, 1.75), 10.0));
  EXPECT(near(paperErrPct(1.75 * 0.9, 1.75), 10.0));  // under counts too
  EXPECT(near(paperErrPct(3.76, 1.88), 100.0));
}

void testDigest() {
  using perfbench::Fnv1a;
  // FNV-1a 64 reference values: empty input and "a".
  EXPECT(Fnv1a{}.value() == 0xcbf29ce484222325ull);
  Fnv1a a;
  a.byte('a');
  EXPECT(a.value() == 0xaf63dc4c8601ec8cull);
  // Same inputs, same digest; any change in a value, a name, or the order
  // changes it.
  const auto digest = [](double v, const char* n1, const char* n2,
                         std::uint64_t events) {
    Fnv1a h;
    h.str(n1);
    h.f64(v);
    h.str(n2);
    h.f64(2.0);
    h.u64(events);
    return h.value();
  };
  const std::uint64_t base = digest(1.5, "virt_ms", "read_p50_us", 1000);
  EXPECT(base == digest(1.5, "virt_ms", "read_p50_us", 1000));
  EXPECT(base != digest(std::nextafter(1.5, 2.0), "virt_ms", "read_p50_us",
                        1000));
  EXPECT(base != digest(1.5, "virt_ms", "read_p50_us", 1001));
  EXPECT(base != digest(1.5, "read_p50_us", "virt_ms", 1000));
  // The name separator keeps ("ab","c") apart from ("a","bc").
  Fnv1a x, y;
  x.str("ab");
  x.str("c");
  y.str("a");
  y.str("bc");
  EXPECT(x.value() != y.value());
}

void testSelfTime() {
  using perfbench::selfTime;
  // No children: the whole span.
  EXPECT(near(selfTime(0, 10, {}), 10));
  // Disjoint children.
  EXPECT(near(selfTime(0, 10, {{1, 3}, {5, 6}}), 7));
  // Overlapping children count each instant once.
  EXPECT(near(selfTime(0, 10, {{2, 6}, {4, 8}}), 4));
  // Nested child inside another child.
  EXPECT(near(selfTime(0, 10, {{2, 8}, {3, 4}}), 4));
  // Children sticking out of the parent are clipped to it.
  EXPECT(near(selfTime(2, 10, {{0, 4}, {9, 12}}), 5));
  // Unsorted input.
  EXPECT(near(selfTime(0, 10, {{7, 9}, {1, 2}}), 7));
  // Fully covered.
  EXPECT(near(selfTime(0, 10, {{0, 10}}), 0));
}

}  // namespace

int main() {
  testPercentile();
  testBeyondRule();
  testPaperErr();
  testDigest();
  testSelfTime();
  if (failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return EXIT_FAILURE;
  }
  std::puts("bench_math_test: all expectations passed");
  return EXIT_SUCCESS;
}
