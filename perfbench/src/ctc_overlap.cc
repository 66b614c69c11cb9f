// ctc_overlap: the Figure 4 shape at CTC 0.9. One SSD, one 1024-thread
// block; every thread reads one 4 KiB page per item into a double buffer
// and computes on it, with block-level phase separation. Three legs, each on
// a fresh host: calibration (sync, no compute) fixes the per-round
// communication time and so the compute charge for CTC 0.9; the sync leg
// fetches then computes; the async leg issues item i+1 before computing on
// item i. The cache is bypassed (asyncRead misses go SSD -> buffer), so the
// wall time is mostly the service kernel polling idle CQs during compute.
#include <cstring>
#include <optional>

#include "bench_math.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace agile;
using Ctrl = core::AgileCtrl<core::ClockPolicy, core::NeverSharePolicy>;

constexpr std::uint32_t kThreads = 1024;
constexpr std::uint32_t kItems = 16;
constexpr double kCtc = 0.9;
constexpr double kPaperSpeedup = 1.88;  // §4.2, near CTC 0.9
constexpr std::uint64_t kCapacity = 1ull << 22;

struct Leg {
  SimTime ns = 0;
  std::vector<SimTime> readLat;  // asyncRead call -> waitBuf return
};

Leg runLeg(RepResult& r, Tracer& tr, const char* name, bool async,
           SimTime computeNs, std::uint64_t salt, bool headline,
           bool setupOnly) {
  Phase legSpan(tr, name);
  core::HostConfig hc;
  hc.queuePairsPerSsd = 32;
  hc.queueDepth = 64;
  hc.service.warps = 2;
  hc.stagingPages = 4096;
  hc.kernelTimeout = 120_s;
  nvme::SsdConfig sc;
  sc.capacityLbas = kCapacity;
  sc.payloadBytes = 64;  // the check reads word 0; timing is unchanged
  auto host = makeHost(r, tr, hc, 1, sc);
  std::optional<Ctrl> ctrl;
  r.setup(tr, "AgileCtrl", [&] { ctrl.emplace(*host, ctrlConfig(64)); });
  r.setup(tr, "startAgile", [&] { host->startAgile(); });
  std::vector<core::AgileBuf> bufs(kThreads * 2);
  r.setup(tr, "buffers", [&] {
    std::byte* mem = host->gpu().hbm().allocBytes(
        std::uint64_t{kThreads} * 2 * nvme::kLbaBytes);
    for (std::uint32_t i = 0; i < bufs.size(); ++i) {
      bufs[i].bind(mem + std::uint64_t{i} * nvme::kLbaBytes);
    }
  });
  std::vector<std::uint64_t> lbas(std::uint64_t{kItems} * kThreads);
  r.setup(tr, "inputs", [&] {
    for (std::uint64_t i = 0; i < lbas.size(); ++i) {
      lbas[i] = mix(salt ^ i) % kCapacity;
    }
  });

  Leg leg;
  if (setupOnly) return leg;
  IoProbe probe(tr);
  std::uint64_t bad = 0;  // failed waits + data mismatches
  const SimTime start = host->engine().now();
  const bool ok = r.timed(tr, "runKernel", [&] {
    return host->runKernel(
        {.gridDim = 1, .blockDim = kThreads, .name = "perfbench-ctc"},
        [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
          core::AgileLockChain chain;
          const std::uint32_t t = ctx.threadIdx();
          const auto lbaOf = [&](std::uint32_t item) {
            return lbas[std::uint64_t{item} * kThreads + t];
          };
          core::AgileBufPtr cur(bufs[t * 2]);
          core::AgileBufPtr nxt(bufs[t * 2 + 1]);
          const auto checkWord = [&](core::AgileBufPtr& b, std::uint64_t lba) {
            std::uint64_t w;
            std::memcpy(&w, b.data(), sizeof w);
            if (w != nvme::FlashStore::patternWord(lba, 0)) ++bad;
          };
          // Issue of item i: its submit stamps and start time.
          std::uint64_t io = 0;
          SimTime issued = 0;
          const auto issue = [&](std::uint32_t item,
                                 core::AgileBufPtr& b) -> gpu::GpuTask<void> {
            issued = ctx.now();
            co_await ctrl->asyncRead(ctx, 0, lbaOf(item), b, chain);
            io = probe.submitted(t, issued, ctx.now());
          };
          const auto wait = [&](core::AgileBufPtr& b) -> gpu::GpuTask<void> {
            const SimTime w0 = ctx.now();
            if (!co_await ctrl->waitBuf(ctx, b)) ++bad;
            probe.waited(io, t, w0, ctx.now());
          };
          if (async) co_await issue(0, cur);
          for (std::uint32_t i = 0; i < kItems; ++i) {
            if (async) {
              co_await wait(cur);
              checkWord(cur, lbaOf(i));
              if (i + 1 < kItems) co_await issue(i + 1, nxt);
            } else {
              co_await issue(i, cur);
              co_await wait(cur);
              leg.readLat.push_back(ctx.now() - issued);
              checkWord(cur, lbaOf(i));
            }
            co_await ctx.syncBlock();
            if (computeNs > 0) co_await gpu::compute(ctx, computeNs);
            co_await ctx.syncBlock();
            if (async) std::swap(cur, nxt);
          }
        });
  });
  leg.ns = host->engine().now() - start;
  r.timed(tr, "drainIo", [&] { r.check(host->drainIo(), "ctc drainIo"); });
  r.check(ok, std::string("ctc ") + name + " kernel hung");
  r.attempted += probe.ios;
  r.failed += bad + hostFailures(*host, ctrl->stats().exhaustedRetries);
  r.check(bad == 0, std::string("ctc ") + name + ": " + std::to_string(bad) +
                        " reads failed or mismatched the flash pattern");
  if (headline) {
    recordLayers(r, *host, ctrl->snapshot(), leg.ns);
    recordLatency(r, "core.ctrl.submit", std::move(probe.submit));
    recordLatency(r, "core.ctrl.wait", std::move(probe.wait));
  }
  {
    Phase p(tr, "stopAgile");
    host->stopAgile();
  }
  r.endLeg(*host);
  return leg;
}

}  // namespace

RepResult runCtcOverlap(std::uint64_t seed, Tracer& tr, bool setupOnly) {
  RepResult r;
  const std::uint64_t salt = mix(seed ^ 0xc7c0);
  const Leg cal =
      runLeg(r, tr, "leg:calibration", false, 0, salt, false, setupOnly);
  // 32 warps of the block serialize on one SM: per-warp compute for CTC 1.
  const SimTime unitNs = cal.ns / kItems / 32;
  const auto computeNs =
      static_cast<SimTime>(kCtc * static_cast<double>(unitNs));
  Leg sync =
      runLeg(r, tr, "leg:sync", false, computeNs, salt, false, setupOnly);
  const Leg async =
      runLeg(r, tr, "leg:async", true, computeNs, salt, true, setupOnly);
  if (setupOnly) return r;

  const double speedup =
      static_cast<double>(sync.ns) / static_cast<double>(async.ns);
  r.virt("virt_ms", static_cast<double>(async.ns) / 1e6, "ms");
  r.virt("calibration_ms", static_cast<double>(cal.ns) / 1e6, "ms");
  r.virt("sync_ms", static_cast<double>(sync.ns) / 1e6, "ms");
  r.virt("modelled_speedup", speedup, "x");
  r.virt("paper_err_pct", paperErrPct(speedup, kPaperSpeedup), "%");
  recordLatency(r, "read", std::move(sync.readLat));
  r.notes.push_back(
      "paper_err_pct is calibration error: the cost model was tuned on the "
      "CTC 0.9 point (sync/async vs 1.88x)");
  return r;
}

}  // namespace perfbench
