// randrw_3ssd: the Figure 5/6 shape with a 3:1 random read:write mix. Three
// interleaved SSDs (request r goes to SSD r % 3), 8192 closed-loop threads,
// 4 KiB requests at saturation depth. Reads draw LBAs from the lower half of
// each device and are checked against the flash pattern; writes go to
// distinct LBAs of the upper half and are checked in the flash store after
// drainIo. The cache is bypassed, so the NVMe model, the queue pairs and the
// write staging pool do the work.
#include <cstring>
#include <optional>

#include "workload.h"

namespace perfbench {
namespace {

using namespace agile;
using Ctrl = core::AgileCtrl<core::ClockPolicy, core::NeverSharePolicy>;

constexpr std::uint32_t kSsds = 3;
constexpr std::uint32_t kThreads = 8192;
constexpr std::uint32_t kBlockDim = 128;
constexpr std::uint32_t kRequests = kThreads * 6;
constexpr std::uint64_t kCapacity = 1ull << 22;
constexpr std::uint64_t kHalf = kCapacity / 2;

struct Request {
  std::uint64_t lba;
  std::uint64_t tag;  // word 0 a write stores; 0 for reads
  bool write;
};

// A bijection on [0, kHalf): distinct request ids give distinct write LBAs.
std::uint64_t permute(std::uint64_t x, std::uint64_t salt) {
  constexpr std::uint64_t kMask = kHalf - 1;
  x = (x * 0x9e3779b97f4a7c15ull + salt) & kMask;
  x ^= x >> 11;
  x = (x * 0xbf58476d1ce4e5b9ull) & kMask;
  return x ^ (x >> 13);
}

}  // namespace

RepResult runRandRw3Ssd(std::uint64_t seed, Tracer& tr, bool setupOnly) {
  RepResult r;
  Phase legSpan(tr, "leg:randrw");
  core::HostConfig hc;
  hc.queuePairsPerSsd = 32;
  hc.queueDepth = 256;
  hc.service.warps = 2;
  hc.stagingPages = 4096;
  hc.kernelTimeout = 120_s;
  nvme::SsdConfig sc;
  sc.capacityLbas = kCapacity;
  sc.payloadBytes = 64;  // the checks use word 0; timing is unchanged
  auto host = makeHost(r, tr, hc, kSsds, sc);
  std::optional<Ctrl> ctrl;
  r.setup(tr, "AgileCtrl", [&] { ctrl.emplace(*host, ctrlConfig(64)); });
  r.setup(tr, "startAgile", [&] { host->startAgile(); });
  std::vector<core::AgileBuf> bufs(kThreads);
  r.setup(tr, "buffers", [&] {
    std::byte* mem = host->gpu().hbm().allocBytes(std::uint64_t{kThreads} *
                                                  nvme::kLbaBytes);
    for (std::uint32_t i = 0; i < kThreads; ++i) {
      bufs[i].bind(mem + std::uint64_t{i} * nvme::kLbaBytes);
    }
  });
  std::vector<Request> reqs(kRequests);
  const std::uint64_t salt = mix(seed ^ 0x3a3d);
  r.setup(tr, "inputs", [&] {
    for (std::uint64_t i = 0; i < kRequests; ++i) {
      const std::uint64_t h = mix(salt ^ i);
      Request& q = reqs[i];
      q.write = (h & 3) == 0;
      q.lba = q.write ? kHalf + permute(i, salt) : (h >> 2) % kHalf;
      q.tag = q.write ? mix(h) | 1 : 0;
    }
  });

  if (setupOnly) return r;
  IoProbe probe(tr);
  std::vector<SimTime> readLat, writeLat;
  std::uint64_t bad = 0;
  const SimTime start = host->engine().now();
  const bool ok = r.timed(tr, "runKernel", [&] {
    return host->runKernel(
        {.gridDim = kThreads / kBlockDim,
         .blockDim = kBlockDim,
         .name = "perfbench-randrw"},
        [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
          core::AgileLockChain chain;
          const std::uint32_t tid = ctx.globalThreadIdx();
          core::AgileBufPtr buf(bufs[tid]);
          for (std::uint32_t i = tid; i < kRequests; i += kThreads) {
            const Request& q = reqs[i];
            const auto dev = static_cast<std::uint32_t>(i % kSsds);
            const SimTime t0 = ctx.now();
            if (q.write) {
              std::memcpy(buf.data(), &q.tag, sizeof q.tag);
              co_await ctrl->asyncWrite(ctx, dev, q.lba, buf, chain);
            } else {
              co_await ctrl->asyncRead(ctx, dev, q.lba, buf, chain);
            }
            const SimTime t1 = ctx.now();
            const std::uint64_t io = probe.submitted(tid, t0, t1);
            if (!co_await ctrl->waitBuf(ctx, buf)) ++bad;
            const SimTime t2 = ctx.now();
            probe.waited(io, tid, t1, t2);
            (q.write ? writeLat : readLat).push_back(t2 - t0);
            if (!q.write) {
              std::uint64_t w;
              std::memcpy(&w, buf.data(), sizeof w);
              if (w != nvme::FlashStore::patternWord(q.lba, 0)) ++bad;
            }
          }
        });
  });
  r.timed(tr, "drainIo", [&] { r.check(host->drainIo(), "randrw drainIo"); });
  const SimTime ns = host->engine().now() - start;
  r.check(ok, "randrw kernel hung");

  {
    Phase p(tr, "verify");
    std::byte page[nvme::kLbaBytes];
    for (std::uint32_t i = 0; i < kRequests; ++i) {
      if (!reqs[i].write) continue;
      std::uint64_t w = 0;
      if (host->ssd(i % kSsds).flash().readPage(reqs[i].lba, page)) {
        std::memcpy(&w, page, sizeof w);
      }
      if (w != reqs[i].tag) ++bad;
    }
  }
  r.attempted = probe.ios;
  r.failed = bad + hostFailures(*host, ctrl->stats().exhaustedRetries);
  r.check(bad == 0, "randrw: " + std::to_string(bad) +
                        " requests failed or mismatched (read pattern or "
                        "written word)");

  r.virt("virt_ms", static_cast<double>(ns) / 1e6, "ms");
  r.virt("gbps", static_cast<double>(kRequests) * nvme::kLbaBytes /
                     static_cast<double>(ns),
         "GB/s");
  recordLatency(r, "read", std::move(readLat));
  recordLatency(r, "write", std::move(writeLat));
  recordLayers(r, *host, ctrl->snapshot(), ns);
  recordLatency(r, "core.ctrl.submit", std::move(probe.submit));
  recordLatency(r, "core.ctrl.wait", std::move(probe.wait));
  r.notes.push_back(
      "model property: read and write token buckets are independent, so the "
      "mix exceeds read-only saturation; no paper reference for a mix");
  {
    Phase p(tr, "stopAgile");
    host->stopAgile();
  }
  r.endLeg(*host);
  return r;
}

}  // namespace perfbench
