// fig_qos: multi-tenant QoS traffic replay (src/qos/).
//
// agile-lint: allow-file(wall-clock): events/sec throughput is a host-side
// wall-time metric; every replayed quantity (shares, percentiles, digest)
// comes from the engine's virtual clock and stays byte-identical.
//
// Seeded open-loop-with-think-time arrival trains (bursty on/off phases,
// Zipf-skewed page popularity inside per-lane disjoint ranges) drive
// asyncRead worker lanes tagged with per-tenant TenantIds through one
// shared SSD. Three legs:
//
//   alone_victim       the well-behaved tenant alone — baseline p99.
//   wfq_saturated      four closed-loop tenants with weights {8,4,2,1}
//                      saturating one queue pair; achieved byte shares over
//                      the measurement window must converge to the weight
//                      vector (gate: max relative share error <= 10%).
//   mixed_interference the victim's arrival train plus an admission-capped
//                      aggressive tenant; the victim's in-window p99 must
//                      stay within a bounded factor of its alone p99.
//
// The wfq_saturated leg runs twice with the same seed; the replay must be
// byte-identical (virtual end time, executed events, per-tenant bytes and
// percentiles). Stats windows are carved with engine-scheduled
// QosManager::resetStats / snapshot events so warmup and cooldown never
// pollute the shares.
//
// Output: BENCH_qos.json (see bench/README.md for the schema and gates).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "qos/qos.h"

namespace {

using namespace agile;

struct TenantSpec {
  const char* name;
  double weight = 1.0;
  double rateBytesPerSec = 0.0;  // 0 = no admission cap
  double burstBytes = 256.0 * 1024.0;
  std::uint32_t lanes = 8;
  SimTime thinkNs = 0;         // 0 = closed loop (saturating)
  std::uint32_t burstLen = 1;  // reads issued back-to-back per on-phase
};

struct TenantWindow {
  std::string name;
  double weight = 0.0;
  std::uint64_t ios = 0;
  std::uint64_t bytes = 0;
  double share = 0.0;
  double targetShare = 0.0;
  double shareErr = 0.0;  // |share - target| / target
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  std::uint64_t p999 = 0;
  std::uint64_t defers = 0;
  std::uint64_t rejects = 0;
};

struct LegResult {
  std::string name;
  std::vector<TenantWindow> tenants;
  SimTime virtualNs = 0;
  std::uint64_t events = 0;
  double wallSec = 0.0;
  std::uint64_t digest = 0;
};

// Pages per worker lane; lanes own disjoint ranges so reads never collide
// across lanes (no Share-Table redirects to reason about) and the Zipf skew
// lives inside each lane's range.
constexpr std::uint64_t kLaneRangePages = 128;

LegResult runLeg(const std::string& legName,
                 const std::vector<TenantSpec>& specs, SimTime windowStart,
                 SimTime windowEnd, std::uint64_t seed) {
  const auto wallStart = std::chrono::steady_clock::now();

  core::HostConfig cfg;
  cfg.queuePairsPerSsd = 1;  // one shared ring: WFQ owns every slot grant
  cfg.queueDepth = 32;
  cfg.stagingPages = 256;
  cfg.kernelTimeout = 600_s;
  cfg.qos.enabled = true;
  for (const TenantSpec& s : specs) {
    cfg.qos.tenants.push_back(
        {s.name, s.weight, s.rateBytesPerSec, s.burstBytes});
  }

  std::uint32_t totalLanes = 0;
  for (const TenantSpec& s : specs) totalLanes += s.lanes;

  core::AgileHost host(cfg);
  nvme::SsdConfig ssd;
  ssd.capacityLbas = 1ull << 16;
  host.addNvmeDev(ssd);
  host.initNvme();
  core::DefaultCtrl ctrl(host, core::CtrlConfig{.cacheLines = 64});
  host.startAgile();

  qos::QosManager* qosMgr = host.qosManager();
  AGILE_CHECK_MSG(qosMgr != nullptr, "QoS config did not activate");

  // Measurement window: reset the per-tenant stats once traffic is warm,
  // snapshot them at the window close. Both are plain engine events, so the
  // window edges are exact virtual instants, replayed identically.
  std::vector<qos::TenantStats> snap;
  host.engine().scheduleAt(windowStart, [&] { qosMgr->resetStats(); });
  host.engine().scheduleAt(windowEnd, [&] {
    for (std::uint32_t t = 0; t < qosMgr->tenantCount(); ++t) {
      snap.push_back(qosMgr->tenantStats({static_cast<std::uint16_t>(t)}));
    }
  });

  // Persistent per-lane buffers (outliving the kernel, as asyncRead wants).
  std::vector<core::AgileBuf> bufs(totalLanes);
  for (auto& b : bufs) b.bind(host.gpu().hbm().allocBytes(nvme::kLbaBytes));

  const std::uint32_t grid = (totalLanes + 31) / 32;
  AGILE_CHECK_MSG(host.runKernel(
                      {.gridDim = grid, .blockDim = 32, .name = "qos-replay"},
                      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
                        const std::uint32_t tid = ctx.globalThreadIdx();
                        if (tid >= totalLanes) co_return;
                        // Map the lane to its tenant spec.
                        std::uint32_t tenant = 0, laneBase = 0;
                        while (tid >= laneBase + specs[tenant].lanes) {
                          laneBase += specs[tenant].lanes;
                          ++tenant;
                        }
                        const TenantSpec& spec = specs[tenant];
                        const qos::TenantId me{
                            static_cast<std::uint16_t>(tenant)};
                        const std::uint64_t lbaBase = tid * kLaneRangePages;

                        Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (tid + 1)));
                        ZipfSampler zipf(kLaneRangePages, 0.9);
                        core::AgileLockChain chain;
                        while (host.engine().now() < windowEnd) {
                          // On-phase: a burst of reads back-to-back.
                          for (std::uint32_t b = 0; b < spec.burstLen; ++b) {
                            core::AgileBufPtr ptr(bufs[tid]);
                            co_await ctrl.asyncRead(ctx, 0,
                                                    lbaBase + zipf(rng), ptr,
                                                    chain, me);
                            (void)co_await ctrl.waitBuf(ctx, ptr);
                          }
                          // Off-phase: seeded think-time gap (open-loop-ish
                          // pacing); closed-loop tenants skip it.
                          if (spec.thinkNs != 0) {
                            const SimTime gap = static_cast<SimTime>(
                                static_cast<double>(spec.thinkNs) *
                                (0.5 + rng.nextDouble()));
                            co_await gpu::compute(ctx, gap);
                          }
                        }
                      }),
                  "qos replay kernel hung");
  AGILE_CHECK_MSG(host.drainIo(), "qos replay drain hung");
  AGILE_CHECK_MSG(snap.size() == specs.size(),
                  "measurement window never closed — lengthen the leg");

  LegResult res;
  res.name = legName;
  res.virtualNs = host.engine().now();
  res.events = host.engine().executedEvents();

  double weightSum = 0.0;
  std::uint64_t bytesSum = 0;
  for (std::size_t t = 0; t < specs.size(); ++t) {
    weightSum += specs[t].weight;
    bytesSum += snap[t].completedBytes;
  }
  std::uint64_t digest = 1469598103934665603ull;
  auto mix = [&digest](std::uint64_t v) {
    digest = (digest ^ v) * 1099511628211ull;
  };
  for (std::size_t t = 0; t < specs.size(); ++t) {
    TenantWindow w;
    w.name = specs[t].name;
    w.weight = specs[t].weight;
    w.ios = snap[t].completedIos;
    w.bytes = snap[t].completedBytes;
    w.share = bytesSum == 0 ? 0.0
                            : static_cast<double>(w.bytes) /
                                  static_cast<double>(bytesSum);
    w.targetShare = specs[t].weight / weightSum;
    w.shareErr = w.targetShare == 0.0
                     ? 0.0
                     : std::abs(w.share - w.targetShare) / w.targetShare;
    w.p50 = snap[t].latencyNs.quantile(0.50);
    w.p99 = snap[t].latencyNs.quantile(0.99);
    w.p999 = snap[t].latencyNs.quantile(0.999);
    w.defers = snap[t].admissionDefers;
    w.rejects = snap[t].admissionRejects;
    mix(w.ios);
    mix(w.bytes);
    mix(w.p50);
    mix(w.p99);
    mix(w.p999);
    mix(w.defers);
    mix(w.rejects);
    res.tenants.push_back(std::move(w));
  }
  mix(static_cast<std::uint64_t>(res.virtualNs));
  mix(res.events);
  res.digest = digest;

  host.stopAgile();
  res.wallSec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wallStart)
                    .count();
  return res;
}

void printLeg(const LegResult& r) {
  // Host-side figures go to stderr: stdout carries virtual time only.
  std::printf("-- %s (virtual %.2f ms) --\n", r.name.c_str(),
              static_cast<double>(r.virtualNs) / 1e6);
  std::fprintf(stderr, "%s: %" PRIu64 " events, %.2fs wall\n",
               r.name.c_str(), r.events, r.wallSec);
  for (const TenantWindow& w : r.tenants) {
    std::printf("  %-10s w=%-3.0f share %5.1f%% (target %5.1f%%, err %4.1f%%)"
                "  ios %6" PRIu64 "  p50 %6" PRIu64 " p99 %6" PRIu64
                " p999 %6" PRIu64 "  defer %5" PRIu64 " reject %4" PRIu64
                "\n",
                w.name.c_str(), w.weight, w.share * 100, w.targetShare * 100,
                w.shareErr * 100, w.ios, w.p50, w.p99, w.p999, w.defers,
                w.rejects);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace agile;
  const bool quick = bench::quickMode(argc, argv);
  bench::printHeader("fig_qos",
                     "multi-tenant QoS: WFQ shares, admission control, and "
                     "victim p99 under interference");

  const std::uint64_t kSeed = 0xab5eed;
  const SimTime windowStart = 500_us;
  const SimTime windowEnd = quick ? 2500_us : 8000_us;

  const TenantSpec victim{"victim", 4.0, 0.0, 256.0 * 1024.0,
                          /*lanes=*/8, /*thinkNs=*/50_us, /*burstLen=*/4};
  const TenantSpec aggressor{"aggr", 1.0, /*rate=*/1.5e9,
                             /*burst=*/64.0 * 1024.0, /*lanes=*/24,
                             /*thinkNs=*/0, /*burstLen=*/1};

  // Leg 1: the victim alone — baseline p99.
  const LegResult alone =
      runLeg("alone_victim", {victim}, windowStart, windowEnd, kSeed);
  printLeg(alone);

  // Leg 2: four saturating tenants, weights {8,4,2,1}.
  std::vector<TenantSpec> wfq;
  const double weights[] = {8.0, 4.0, 2.0, 1.0};
  const char* names[] = {"gold", "silver", "bronze", "tin"};
  for (int t = 0; t < 4; ++t) {
    // Lanes scale with weight so a high-share tenant's parked queue never
    // drains empty: a tenant with no waiter parked at a slot-free instant
    // is skipped by the arbiter and silently donates its share.
    wfq.push_back({names[t], weights[t], 0.0, 256.0 * 1024.0,
                   /*lanes=*/static_cast<std::uint32_t>(weights[t]) * 8,
                   /*thinkNs=*/0, /*burstLen=*/1});
  }
  const LegResult sat =
      runLeg("wfq_saturated", wfq, windowStart, windowEnd, kSeed);
  printLeg(sat);

  // Leg 3: victim + admission-capped aggressive tenant.
  const LegResult mixed = runLeg("mixed_interference", {victim, aggressor},
                                 windowStart, windowEnd, kSeed);
  printLeg(mixed);

  // Leg 4: replay determinism — same seed, same everything.
  const LegResult sat2 =
      runLeg("wfq_saturated", wfq, windowStart, windowEnd, kSeed);
  const bool deterministic = sat2.digest == sat.digest &&
                             sat2.virtualNs == sat.virtualNs &&
                             sat2.events == sat.events;

  double shareErrMax = 0.0;
  for (const TenantWindow& w : sat.tenants) {
    shareErrMax = std::max(shareErrMax, w.shareErr);
  }
  const double p99Alone = static_cast<double>(alone.tenants[0].p99);
  const double p99Mixed = static_cast<double>(mixed.tenants[0].p99);
  const double p99Factor = p99Alone == 0.0 ? 0.0 : p99Mixed / p99Alone;

  const double kShareGate = 0.10;
  const double kP99FactorGate = 4.0;
  const bool sharePass = shareErrMax <= kShareGate;
  const bool isolationPass = p99Factor <= kP99FactorGate && p99Alone > 0.0;

  std::printf("share convergence: max err %.1f%% (gate %.0f%%) %s\n",
              shareErrMax * 100, kShareGate * 100,
              sharePass ? "PASS" : "FAIL");
  std::printf("victim p99 alone %.0f ns, mixed %.0f ns: factor %.2fx "
              "(gate %.1fx) %s\n",
              p99Alone, p99Mixed, p99Factor, kP99FactorGate,
              isolationPass ? "PASS" : "FAIL");
  std::printf("replay determinism: %s\n",
              deterministic ? "match" : "MISMATCH");

  const double wallTotal =
      alone.wallSec + sat.wallSec + mixed.wallSec + sat2.wallSec;
  const double eventsTotal = static_cast<double>(alone.events + sat.events +
                                                 mixed.events + sat2.events);
  const double eventsPerSec = wallTotal > 0.0 ? eventsTotal / wallTotal : 0.0;
  std::fprintf(stderr, "simulator throughput: %.0f events/s\n", eventsPerSec);

  std::FILE* f = std::fopen("BENCH_qos.json", "w");
  AGILE_CHECK_MSG(f != nullptr, "cannot open BENCH_qos.json");
  std::fprintf(f, "{\n  \"bench\": \"fig_qos\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"legs\": [\n");
  const LegResult* legs[] = {&alone, &sat, &mixed};
  for (std::size_t i = 0; i < 3; ++i) {
    const LegResult& r = *legs[i];
    std::fprintf(f, "    {\"name\": \"%s\", \"virtual_ns\": %" PRIu64
                    ", \"events\": %" PRIu64 ", \"tenants\": [\n",
                 r.name.c_str(), static_cast<std::uint64_t>(r.virtualNs),
                 r.events);
    for (std::size_t t = 0; t < r.tenants.size(); ++t) {
      const TenantWindow& w = r.tenants[t];
      std::fprintf(
          f,
          "      {\"name\": \"%s\", \"weight\": %.1f, \"ios\": %" PRIu64
          ", \"bytes\": %" PRIu64 ", \"share\": %.4f, \"target_share\": "
          "%.4f, \"share_err\": %.4f, \"p50_ns\": %" PRIu64
          ", \"p99_ns\": %" PRIu64 ", \"p999_ns\": %" PRIu64
          ", \"defers\": %" PRIu64 ", \"rejects\": %" PRIu64 "}%s\n",
          w.name.c_str(), w.weight, w.ios, w.bytes, w.share, w.targetShare,
          w.shareErr, w.p50, w.p99, w.p999, w.defers, w.rejects,
          t + 1 < r.tenants.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < 3 ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"share_err_max\": %.4f,\n", shareErrMax);
  std::fprintf(f, "  \"share_gate\": %.2f,\n", kShareGate);
  std::fprintf(f, "  \"share_gate_pass\": %s,\n",
               sharePass ? "true" : "false");
  std::fprintf(f, "  \"p99_alone_ns\": %.0f,\n", p99Alone);
  std::fprintf(f, "  \"p99_mixed_ns\": %.0f,\n", p99Mixed);
  std::fprintf(f, "  \"p99_factor\": %.3f,\n", p99Factor);
  std::fprintf(f, "  \"p99_factor_gate\": %.1f,\n", kP99FactorGate);
  std::fprintf(f, "  \"isolation_gate_pass\": %s,\n",
               isolationPass ? "true" : "false");
  std::fprintf(f, "  \"determinism_match\": %s,\n",
               deterministic ? "true" : "false");
  std::fprintf(f, "  \"share_accuracy_gated\": %.4f,\n",
               1.0 - shareErrMax);
  std::fprintf(f, "  \"new_events_per_sec\": %.0f\n}\n", eventsPerSec);
  std::fclose(f);
  std::printf("wrote BENCH_qos.json\n");
  return 0;
}
