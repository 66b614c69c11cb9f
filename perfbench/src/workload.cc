#include "workload.h"

#include <algorithm>
#include <memory>

#include "bench_math.h"

namespace perfbench {

using agile::SimTime;
namespace core = agile::core;

std::uint64_t RepResult::digest() const {
  Fnv1a h;
  for (const Metric& m : metrics) {
    if (!m.virt) continue;
    h.str(m.name);
    h.f64(m.value);
  }
  for (const LegEnd& l : legEnds) {
    h.u64(l.events);
    h.u64(l.readyEvents);
    h.u64(l.now);
  }
  return h.value();
}

void recordLatency(RepResult& r, const std::string& name,
                   std::vector<SimTime> ns, double tail) {
  const auto n = static_cast<std::uint64_t>(ns.size());
  char tailName[32];
  std::snprintf(tailName, sizeof tailName, "_p%g_us", tail);
  r.virt(name + "_samples", static_cast<double>(n), "count");
  r.virt(name + "_p50_us", static_cast<double>(percentile(ns, 50.0)) / 1e3,
         "us");
  if (tailSupported(n, tail)) {
    r.virt(name + tailName, static_cast<double>(percentile(ns, tail)) / 1e3,
           "us");
  } else if (n > 0) {
    r.notes.push_back(name + tailName + " not reported: " +
                      std::to_string(samplesBeyond(n, tail)) +
                      " samples beyond it (< " +
                      std::to_string(kMinSamplesBeyond) + ")");
  }
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void recordLayers(RepResult& r, core::AgileHost& host,
                  const core::CtrlSnapshot& snap, SimTime virtNs) {
  const auto d = [](auto v) { return static_cast<double>(v); };

  const core::ServiceStats& svc = host.service().stats();
  r.virt("core.service.poll_rounds", d(svc.pollRounds), "count");
  r.virt("core.service.completions", d(svc.completions), "count");
  r.virt("core.service.polls_per_completion",
         ratio(d(svc.pollRounds), d(svc.completions)), "ratio");
  r.virt("core.service.cq_doorbells", d(svc.cqDoorbells), "count");

  // Busy fractions over the leg's whole virtual life (SM busy time is
  // counted from host construction, which is where every leg starts).
  agile::gpu::Gpu& gpu = host.gpu();
  const std::uint32_t reserved = gpu.config().reservedSms;
  const SimTime now = host.engine().now();
  double segments = 0, computeBusy = 0, serviceBusy = 0;
  for (std::uint32_t i = 0; i < gpu.numSms(); ++i) {
    segments += d(gpu.sm(i).segments());
    (i < reserved ? serviceBusy : computeBusy) += d(gpu.sm(i).busyNs());
  }
  r.virt("gpu.segments", segments, "count");
  r.virt("gpu.compute_sm_busy_frac",
         ratio(computeBusy, d(now) * gpu.computeSms()), "ratio");
  r.virt("gpu.service_sm_busy_frac", ratio(serviceBusy, d(now) * reserved),
         "ratio");

  double reads = 0, writes = 0, readCap = 0, writeCap = 0, errors = 0;
  double maxOut = 0;
  const double secs = d(virtNs) / 1e9;
  for (std::uint32_t i = 0; i < host.ssdCount(); ++i) {
    agile::nvme::SsdController& ssd = host.ssd(i);
    reads += d(ssd.readsCompleted());
    writes += d(ssd.writesCompleted());
    readCap += ssd.config().readIops * secs;
    writeCap += ssd.config().writeIops * secs;
    errors += d(ssd.errorsReturned());
    maxOut = std::max(maxOut, d(ssd.maxObservedOutstanding()));
  }
  r.virt("nvme.reads", reads, "count");
  r.virt("nvme.writes", writes, "count");
  r.virt("nvme.read_util", ratio(reads, readCap), "ratio");
  r.virt("nvme.write_util", ratio(writes, writeCap), "ratio");
  r.virt("nvme.max_outstanding", maxOut, "count");
  r.virt("nvme.errors", errors, "count");

  r.virt("core.ctrl.direct_reads", d(snap.ctrl.directReads), "count");
  r.virt("core.ctrl.exhausted_retries", d(snap.ctrl.exhaustedRetries),
         "count");
  r.virt("core.ctrl.prefetch_cancelled", d(snap.ctrl.prefetchCancelled),
         "count");
  r.virt("core.ctrl.deferred_issues", d(snap.ctrl.deferredIssues), "count");
  r.virt("core.ctrl.batch_doorbells", d(snap.ctrl.batchDoorbells), "count");

  const core::CacheStats& c = snap.cache;
  r.virt("core.cache.hit_ratio", ratio(d(c.hits), d(c.hits + c.misses)),
         "ratio");
  r.virt("core.cache.busy_hits", d(c.busyHits), "count");
  r.virt("core.cache.evictions", d(c.evictions), "count");
  r.virt("core.cache.writebacks", d(c.writebacks), "count");
  r.virt("core.cache.victim_stalls", d(c.victimStalls), "count");

  r.virt("core.share_table.hits", d(snap.share.hits), "count");
  r.virt("core.share_table.inserts", d(snap.share.inserts), "count");
  r.virt("core.io_token.allocated", d(snap.tokens.allocated), "count");
  r.virt("core.io_token.high_water", d(snap.tokens.highWater), "count");

  const core::IoHealthStats health = host.ioHealth();
  r.virt("core.host.retries", d(health.retries), "count");
  r.virt("core.host.aborted", d(health.aborted), "count");
  r.virt("core.host.watchdog_timeouts", d(health.watchdogTimeouts), "count");
}

std::uint64_t hostFailures(core::AgileHost& host,
                           std::uint64_t exhaustedRetries) {
  std::uint64_t n = host.ioHealth().aborted + exhaustedRetries;
  for (std::uint32_t i = 0; i < host.ssdCount(); ++i) {
    n += host.ssd(i).errorsReturned();
  }
  return n;
}

std::unique_ptr<core::AgileHost> makeHost(RepResult& r, Tracer& tr,
                                          const core::HostConfig& cfg,
                                          std::uint32_t ssds,
                                          const agile::nvme::SsdConfig& ssd) {
  auto host = r.setup(tr, "AgileHost",
                      [&] { return std::make_unique<core::AgileHost>(cfg); });
  r.setup(tr, "addNvmeDev", [&] {
    for (std::uint32_t i = 0; i < ssds; ++i) {
      agile::nvme::SsdConfig c = ssd;
      c.name = "nvme" + std::to_string(i);
      host->addNvmeDev(c);
    }
  });
  r.setup(tr, "initNvme", [&] { host->initNvme(); });
  return host;
}

}  // namespace perfbench
