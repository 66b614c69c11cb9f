// agile-lint: allow-file(wall-clock): the events/sec column is a host-side
// simulator-throughput measurement; all bandwidth results are virtual-time.
//
// fig_scaleout — multi-SSD scale-out curve of the striped data path.
//
// A random-read sweep is routed through the striped element mapping
// (core::elemAddr + StripeMap): every request resolves a pseudorandom
// logical element to its (device, lba) through the same choke point the
// array API and accessors use, at 1/2/4/8 devices. Two legs per width:
// all-local devices, and a mixed group whose upper half uses the
// network-attached remote-flash profile (nvme::remoteFlashConfig, ~100 us
// jittered fabric RTT). Reported per point: virtual makespan and aggregate
// achieved GB/s on stdout, host-side simulated events/sec on stderr.
//
// Determinism oracles (the run aborts on mismatch):
//   - devices=1 via the stripe map must replay the legacy direct
//     (dev 0, logical lba) path byte-identically — same virtual end time,
//     same per-device completion counts (the pre-stripe equivalence);
//   - the gated devices=4 point runs twice and must reproduce exactly.
//
// Writes BENCH_scaleout.json: workloads[] = {name, devices, remote_devices,
// reqs, virtual_ms, gbps, new_events_per_sec}, plus headline
// speedup_at_4_devices (CI gate: >= 3x vs 1 device), determinism_match,
// and devices1_identity.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/table.h"
#include "core/ctrl.h"

namespace agile::bench {
namespace {

using Ctrl = core::AgileCtrl<core::ClockPolicy, core::NeverSharePolicy>;

struct RunResult {
  double virtualMs = 0.0;
  double gbps = 0.0;          // aggregate achieved GB/s (virtual time)
  double eventsPerSec = 0.0;  // host-side simulation throughput
  std::uint64_t digest = 0;   // order-sensitive replay hash
};

// FNV-1a fold, order-sensitive: any reordering or timing drift diverges it.
std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  return (h ^ x) * 0x100000001b3ull;
}

// One sweep point: reqPerDev random page reads per device, spread over up
// to 8192 threads. With `striped`, each request resolves its device and LBA
// through core::elemAddr over a width-`devices` StripeMap; otherwise the
// legacy direct path computes the same logical address pinned to device 0
// (only valid at devices == 1 — the pre-stripe equivalence leg).
RunResult runPoint(std::uint32_t devices, std::uint32_t remoteDevs,
                   std::uint64_t reqPerDev, bool striped) {
  TestbedConfig tb;
  tb.ssds = devices;
  tb.queuePairsPerSsd = 16;
  tb.queueDepth = 256;
  tb.payloadBytes = 64;  // timing unchanged; bounds host memory at 8 devices
  tb.remoteSsds = remoteDevs;
  auto host = makeHost(tb);
  const core::StripeMap stripe{devices, 1, 0};
  Ctrl ctrl(*host,
            core::CtrlConfig{.cacheLines = 64, .stripe = stripe});
  host->startAgile();

  const std::uint64_t totalReqs = reqPerDev * devices;
  const auto threads =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(totalReqs, 8192));
  const std::uint32_t blockDim = std::min<std::uint32_t>(threads, 128);
  const std::uint32_t gridDim = ceilDiv(threads, blockDim);

  auto bufMem = host->gpu().hbm().allocBytes(
      static_cast<std::uint64_t>(threads) * nvme::kLbaBytes);
  std::vector<core::AgileBuf> bufs(threads);
  for (std::uint32_t i = 0; i < threads; ++i) {
    bufs[i].bind(bufMem + static_cast<std::uint64_t>(i) * nvme::kLbaBytes);
  }

  // The logical array spans every device's capacity; element indices are
  // page-granular (one element per 4 KiB page).
  constexpr std::uint64_t kWordsPerLba = nvme::kLbaBytes / 8;
  const std::uint64_t logicalPages =
      host->ssd(0).flash().capacityLbas() * devices;

  const SimTime start = host->engine().now();
  const std::uint64_t ev0 = host->engine().executedEvents();
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = host->runKernel(
      {.gridDim = gridDim, .blockDim = blockDim, .name = "scaleout"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        core::AgileLockChain chain;
        const std::uint32_t tid = ctx.globalThreadIdx();
        if (tid >= threads) co_return;
        core::AgileBufPtr buf(bufs[tid]);
        for (std::uint64_t r = tid; r < totalReqs; r += threads) {
          std::uint64_t h = r * 0x9e3779b97f4a7c15ull + 0x5ca1e;
          h ^= h >> 31;
          const std::uint64_t elem = (h % logicalPages) * kWordsPerLba;
          const core::ElemAddr at =
              striped ? core::elemAddr<std::uint64_t>(elem, ctrl.stripe())
                      : core::elemAddr<std::uint64_t>(elem);
          co_await ctrl.asyncRead(ctx, at.dev, at.lba, buf, chain);
          co_await ctrl.waitBuf(ctx, buf);
        }
      });
  AGILE_CHECK(ok);
  AGILE_CHECK(host->drainIo());
  const auto t1 = std::chrono::steady_clock::now();
  const SimTime ns = host->engine().now() - start;
  const std::uint64_t events = host->engine().executedEvents() - ev0;
  host->stopAgile();

  RunResult res;
  res.virtualMs = toMs(ns);
  const double bytes = static_cast<double>(totalReqs) * nvme::kLbaBytes;
  res.gbps = bytes / (static_cast<double>(ns) / 1e9) / 1e9;
  const double wall = std::chrono::duration<double>(t1 - t0).count();
  res.eventsPerSec = wall > 0 ? static_cast<double>(events) / wall : 0.0;
  std::uint64_t d = 0xcbf29ce484222325ull;
  d = mix(d, static_cast<std::uint64_t>(ns));
  d = mix(d, events);
  for (std::uint32_t s = 0; s < devices; ++s) {
    d = mix(d, host->ssd(s).readsCompleted());
    d = mix(d, host->ssd(s).bytesRead());
  }
  res.digest = d;
  return res;
}

}  // namespace
}  // namespace agile::bench

int main(int argc, char** argv) {
  using namespace agile;
  using namespace agile::bench;

  const bool quick = quickMode(argc, argv);
  const std::uint64_t reqPerDev = quick ? 4096 : 16384;
  printHeader("fig_scaleout",
              "striped multi-SSD random-read scaling (local + remote tiers)");

  struct Point {
    std::string name;
    std::uint32_t devices;
    std::uint32_t remote;
    RunResult res;
  };
  std::vector<Point> points;
  for (const std::uint32_t devices : {1u, 2u, 4u, 8u}) {
    points.push_back({"local_" + std::to_string(devices), devices, 0,
                      runPoint(devices, 0, reqPerDev, true)});
  }
  for (const std::uint32_t devices : {2u, 4u, 8u}) {
    points.push_back({"mixed_" + std::to_string(devices), devices,
                      devices / 2,
                      runPoint(devices, devices / 2, reqPerDev, true)});
  }

  // Oracle 1: devices=1 through the stripe map must be byte-identical to
  // the legacy direct single-device mapping (pre-stripe equivalence).
  const RunResult legacy1 = runPoint(1, 0, reqPerDev, false);
  const bool identity = legacy1.digest == points[0].res.digest;
  AGILE_CHECK_MSG(identity,
                  "devices=1 stripe path diverged from the legacy mapping");

  // Oracle 2: the gated 4-device point must replay exactly.
  const RunResult rerun4 = runPoint(4, 0, reqPerDev, true);
  const bool determinism = rerun4.digest == points[2].res.digest;
  AGILE_CHECK_MSG(determinism, "devices=4 replay diverged");

  // Stdout carries virtual time only; the host-side events/sec column goes
  // to stderr.
  TablePrinter table({"point", "devices", "remote", "virtual (ms)", "GB/s"});
  for (const auto& p : points) {
    char ms[32], gb[32];
    std::snprintf(ms, sizeof ms, "%.3f", p.res.virtualMs);
    std::snprintf(gb, sizeof gb, "%.2f", p.res.gbps);
    table.addRow({p.name, std::to_string(p.devices), std::to_string(p.remote),
                  ms, gb});
    std::fprintf(stderr, "%s: %.1f Mev/s\n", p.name.c_str(),
                 p.res.eventsPerSec / 1e6);
  }
  table.print();

  const double speedup4 = points[2].res.gbps / points[0].res.gbps;
  const double speedup8 = points[3].res.gbps / points[0].res.gbps;
  std::printf("aggregate scaling: x%.2f at 4 devices, x%.2f at 8 devices "
              "(gate: >= 3x at 4)\n",
              speedup4, speedup8);
  std::printf("devices=1 identity with pre-stripe mapping: %s; "
              "devices=4 replay: %s\n",
              identity ? "ok" : "DIVERGED",
              determinism ? "ok" : "DIVERGED");

  std::FILE* json = std::fopen("BENCH_scaleout.json", "w");
  AGILE_CHECK(json != nullptr);
  std::fprintf(json, "{\n  \"bench\": \"fig_scaleout\",\n");
  std::fprintf(json, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(json, "  \"workloads\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"devices\": %u, "
                 "\"remote_devices\": %u, \"reqs\": %" PRIu64 ", "
                 "\"virtual_ms\": %.3f, \"gbps\": %.3f, "
                 "\"new_events_per_sec\": %.0f}%s\n",
                 p.name.c_str(), p.devices, p.remote,
                 reqPerDev * p.devices, p.res.virtualMs, p.res.gbps,
                 p.res.eventsPerSec, i + 1 < points.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"speedup_at_4_devices\": %.3f,\n", speedup4);
  std::fprintf(json, "  \"speedup_at_8_devices\": %.3f,\n", speedup8);
  std::fprintf(json, "  \"determinism_match\": %s,\n",
               determinism ? "true" : "false");
  std::fprintf(json, "  \"devices1_identity\": %s\n",
               identity ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_scaleout.json\n");
  return 0;
}
