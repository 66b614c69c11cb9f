// kv_serving: SSD-backed KV-cache serving through kv::KvServer (the Tutti
// setting): context 64, up to 16 concurrently decoding sequences, 256
// closed-loop requests whose prompts share one of two prefixes, software
// cache at half the working set. The only workload where the Share Table,
// io tokens, speculative prefetch with cancel-on-EOS and batched writes do
// work. Every token stream is checked against kv::referenceDecode and the
// leak audit must come back clean.
#include <optional>

#include "apps/kvcache/kvcache.h"
#include "workload.h"

namespace perfbench {

using namespace agile;
using namespace agile::apps;

namespace {

constexpr std::uint32_t kCtx = 64;
constexpr std::uint32_t kBatch = 16;
constexpr std::uint32_t kRequests = 256;
constexpr std::uint32_t kMaxNew = 16;
constexpr double kCacheFrac = 0.5;

}  // namespace

RepResult runKvServing(std::uint64_t seed, Tracer& tr, bool setupOnly) {
  RepResult r;
  Phase legSpan(tr, "leg:serve");
  kv::KvConfig cfg;
  cfg.numLayers = 4;
  cfg.maxBatch = kBatch;
  const std::uint32_t chunksPerSeq =
      (kCtx + kMaxNew) / cfg.tokensPerBlock() + 1;
  cfg.poolBlocks = kRequests * cfg.numLayers * chunksPerSeq;
  // Working set: every active sequence touches its per-layer chunk pages
  // each step; the cache holds half of it.
  const auto cacheLines = static_cast<std::uint32_t>(
      kBatch * cfg.numLayers * chunksPerSeq * kCacheFrac);

  core::HostConfig hc;
  hc.queuePairsPerSsd = 8;
  hc.queueDepth = 128;
  nvme::SsdConfig sc;
  sc.capacityLbas = cfg.poolBlocks;
  auto host = makeHost(r, tr, hc, 1, sc);
  std::optional<core::DefaultCtrl> ctrl;
  r.setup(tr, "AgileCtrl",
          [&] { ctrl.emplace(*host, ctrlConfig(cacheLines)); });
  r.setup(tr, "startAgile", [&] { host->startAgile(); });
  std::optional<kv::KvServer> server;
  r.setup(tr, "KvServer", [&] { server.emplace(*host, *ctrl, cfg); });

  // Two prompt families sharing a half-context prefix.
  std::vector<kv::KvRequest> reqs(kRequests);
  r.setup(tr, "inputs", [&] {
    Rng rng(mix(seed ^ 0x4b56));
    std::vector<std::uint32_t> prefixes[2];
    for (auto& pre : prefixes) {
      pre.resize(kCtx / 2);
      for (auto& t : pre) {
        t = 1 + static_cast<std::uint32_t>(rng.nextBelow(cfg.vocab - 1));
      }
    }
    for (std::uint32_t id = 0; id < kRequests; ++id) {
      kv::KvRequest& q = reqs[id];
      q.id = id;
      q.prompt = prefixes[id % 2];
      while (q.prompt.size() < kCtx) {
        q.prompt.push_back(
            1 + static_cast<std::uint32_t>(rng.nextBelow(cfg.vocab - 1)));
      }
      q.maxNewTokens = kMaxNew;
      server->enqueue(q);
    }
  });

  if (setupOnly) return r;
  const SimTime start = host->engine().now();
  const bool ok = r.timed(tr, "KvServer::run", [&] { return server->run(); });
  r.timed(tr, "drainIo", [&] { r.check(host->drainIo(), "kv drainIo"); });
  const SimTime ns = host->engine().now() - start;
  r.check(ok, "kv serving loop hung");

  std::uint64_t bad = kRequests - server->retired().size();
  std::vector<SimTime> ttft;
  {
    Phase p(tr, "verify");
    for (const kv::KvRequestStats& st : server->retired()) {
      if (st.generated != kv::referenceDecode(cfg, reqs[st.id]).generated) {
        ++bad;
      }
      ttft.push_back(st.firstTokenNs - st.admitNs);
    }
  }
  const bool clean = ctrl->cache().busyLines() == 0 &&
                     ctrl->tokens().liveOps() == 0 &&
                     ctrl->shareTable().size() == 0 &&
                     server->pool().freeBlocks() == server->pool().capacity();
  r.attempted = kRequests;
  r.failed = bad + (clean ? 0 : 1) +
             hostFailures(*host, ctrl->stats().exhaustedRetries);
  r.check(bad == 0, "kv: " + std::to_string(bad) +
                        " requests unretired or diverged from referenceDecode");
  r.check(clean, "kv leak audit: BUSY lines, live tokens, share entries or "
                 "pool blocks left after drain");

  r.virt("virt_ms", static_cast<double>(ns) / 1e6, "ms");
  r.virt("tokens", static_cast<double>(server->stats().tokensGenerated),
         "count");
  recordLatency(r, "ttft", std::move(ttft), 90.0);
  recordLayers(r, *host, ctrl->snapshot(), ns);
  {
    Phase p(tr, "stopAgile");
    host->stopAgile();
  }
  r.endLeg(*host);
  return r;
}

}  // namespace perfbench
