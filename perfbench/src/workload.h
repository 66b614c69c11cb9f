// One repetition of a benchmark workload and the helpers the four workloads
// share: metric recording, per-I/O virtual stamps, and the per-layer
// statistics read from the library's public snapshots.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ctrl.h"
#include "core/host.h"
#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
  // Virtual (simulated) quantities are deterministic for a seed and feed the
  // digest; wall-derived ones are not.
  bool virt;
};

// Outcome of one repetition: set-up and timed wall time, every metric the
// workload measured, failure accounting and the checks' verdicts.
struct RepResult {
  double setupS = 0.0;  // wall: host construction .. first timed call
  double wallS = 0.0;   // wall: timed regions of all legs
  std::vector<Metric> metrics;
  // Per leg, in order: engine events executed, of those the ones that took
  // the ready-queue path, and the final virtual time.
  struct LegEnd {
    std::uint64_t events;
    std::uint64_t readyEvents;
    agile::SimTime now;
  };
  std::vector<LegEnd> legEnds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;
  std::vector<std::string> notes;

  void virt(std::string name, double v, std::string unit) {
    metrics.push_back({std::move(name), v, std::move(unit), true});
  }
  void check(bool ok, std::string what) {
    if (!ok) mismatches.push_back(std::move(what));
  }
  // Wall time of `f` counted as set-up / as the timed region.
  template <class F>
  auto setup(Tracer& tr, const char* name, F&& f) {
    Phase p(tr, name, &setupS);
    return f();
  }
  template <class F>
  auto timed(Tracer& tr, const char* name, F&& f) {
    Phase p(tr, name, &wallS);
    return f();
  }
  // Marks the end of a leg: its event count and final virtual time.
  void endLeg(agile::core::AgileHost& host) {
    const agile::sim::Engine& e = host.engine();
    legEnds.push_back({e.executedEvents(), e.readyPathEvents(), e.now()});
  }
  std::uint64_t digest() const;
};

// Per-I/O virtual stamps taken in the benchmark's own kernels: the time
// spent inside asyncRead/asyncWrite (submit) and inside waitBuf (wait).
struct IoProbe {
  explicit IoProbe(Tracer& t) : tr(&t) {}

  Tracer* tr;
  std::vector<agile::SimTime> submit, wait;
  std::uint64_t ios = 0;

  std::uint64_t submitted(std::uint32_t tid, agile::SimTime t0,
                          agile::SimTime t1) {
    const std::uint64_t io = ++ios;
    submit.push_back(t1 - t0);
    tr->virt("submit", io, tid, t0, t1);
    return io;
  }
  void waited(std::uint64_t io, std::uint32_t tid, agile::SimTime t0,
              agile::SimTime t1) {
    wait.push_back(t1 - t0);
    tr->virt("wait", io, tid, t0, t1);
  }
};

// Median and tail (p99, or the given percentile) of a latency sample in
// virtual µs, recorded as <name>_p50_us / <name>_p<tail>_us / <name>_samples.
void recordLatency(RepResult& r, const std::string& name,
                   std::vector<agile::SimTime> ns, double tail = 99.0);

// Per-layer statistics of one leg from the library's public snapshots:
// service, GPU SMs, NVMe devices, controller/cache/share table/io tokens
// and host I/O health. `virtNs` is the leg's virtual duration.
void recordLayers(RepResult& r, agile::core::AgileHost& host,
                  const agile::core::CtrlSnapshot& snap, agile::SimTime virtNs);

// Failure sources every workload counts: NVMe error statuses, aborted
// transactions and the controller's exhausted claim loops.
std::uint64_t hostFailures(agile::core::AgileHost& host,
                           std::uint64_t exhaustedRetries);

// Host set-up shared by the workloads: AgileHost construction, addNvmeDev
// per device and initNvme, each under its own wall span.
std::unique_ptr<agile::core::AgileHost> makeHost(
    RepResult& r, Tracer& tr, const agile::core::HostConfig& cfg,
    std::uint32_t ssds, const agile::nvme::SsdConfig& ssd);

inline agile::core::CtrlConfig ctrlConfig(std::uint32_t cacheLines) {
  agile::core::CtrlConfig c;
  c.cacheLines = cacheLines;
  return c;
}

// splitmix64: the benchmark's seed -> input derivation.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// The four workloads. `seed` derives every generated input. With
// `setupOnly` a workload performs and times its set-up, then returns.
RepResult runCtcOverlap(std::uint64_t seed, Tracer& tr, bool setupOnly);
RepResult runRandRw3Ssd(std::uint64_t seed, Tracer& tr, bool setupOnly);
RepResult runDlrmB16(std::uint64_t seed, Tracer& tr, bool setupOnly);
RepResult runKvServing(std::uint64_t seed, Tracer& tr, bool setupOnly);

}  // namespace perfbench
