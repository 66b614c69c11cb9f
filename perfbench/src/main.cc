// perfbench: one command that measures the simulator end to end.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// A run repeats the workload on fresh hosts until `seconds` of wall time
// have passed (at least kMinReps times). Virtual results must be identical
// across repetitions (checked through the digest). Wall figures are
// medians over repetitions, normalized by the host-speed reference timed
// before each repetition (host_ref.h); between repetitions, set-up-only
// passes add set-up samples. With --trace 1, odd repetitions record spans;
// their wall figures give the per-layer self times and the tracing overhead
// against the untraced repetitions of the same run.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics (the end-to-end metrics untraced, the per-layer metrics traced).
// The exit code is nonzero on any check failure.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_math.h"
#include "host_ref.h"
#include "workload.h"

namespace perfbench {
namespace {

constexpr int kMinReps = 3;
// Set-up-only passes may take up to this share of a run, and at most
// kMaxSetupPasses follow one repetition.
constexpr double kSetupShare = 0.1;
constexpr int kMaxSetupPasses = 20;

struct Workload {
  const char* name;
  RepResult (*run)(std::uint64_t seed, Tracer& tr, bool setupOnly);
};

constexpr Workload kWorkloads[] = {
    {"ctc_overlap", runCtcOverlap},
    {"randrw_3ssd", runRandRw3Ssd},
    {"dlrm_b16", runDlrmB16},
    {"kv_serving", runKvServing},
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Reported with --trace 0. Every workload has each of these, never 0.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"peak_rss_mb", "MB"},
    {"virt_ms", "ms"},
};

// Reported with --trace 1; a metric a workload does not exercise reads 0.
// The first group is per-workload virtual results that exist on some
// workloads only (or may be 0), so they cannot carry an end-to-end bound.
constexpr MetricSpec kPerLayer[] = {
    {"read_p50_us", "us"},
    {"read_p99_us", "us"},
    {"read_samples", "count"},
    {"write_p50_us", "us"},
    {"write_p99_us", "us"},
    {"write_samples", "count"},
    {"ttft_p50_us", "us"},
    {"ttft_p90_us", "us"},
    {"ttft_samples", "count"},
    {"modelled_speedup", "x"},
    {"paper_err_pct", "%"},
    {"fail_ratio", "ratio"},
    {"sim.events", "count"},
    {"sim.ready_frac", "ratio"},
    {"sim.events_per_wall_s", "1/s"},
    {"core.service.poll_rounds", "count"},
    {"core.service.completions", "count"},
    {"core.service.polls_per_completion", "ratio"},
    {"core.service.cq_doorbells", "count"},
    {"gpu.segments", "count"},
    {"gpu.compute_sm_busy_frac", "ratio"},
    {"gpu.service_sm_busy_frac", "ratio"},
    {"nvme.reads", "count"},
    {"nvme.writes", "count"},
    {"nvme.read_util", "ratio"},
    {"nvme.write_util", "ratio"},
    {"nvme.max_outstanding", "count"},
    {"nvme.errors", "count"},
    {"core.ctrl.submit_p50_us", "us"},
    {"core.ctrl.submit_p99_us", "us"},
    {"core.ctrl.wait_p50_us", "us"},
    {"core.ctrl.wait_p99_us", "us"},
    {"core.ctrl.direct_reads", "count"},
    {"core.ctrl.exhausted_retries", "count"},
    {"core.ctrl.prefetch_cancelled", "count"},
    {"core.ctrl.deferred_issues", "count"},
    {"core.ctrl.batch_doorbells", "count"},
    {"core.cache.hit_ratio", "ratio"},
    {"core.cache.busy_hits", "count"},
    {"core.cache.evictions", "count"},
    {"core.cache.writebacks", "count"},
    {"core.cache.victim_stalls", "count"},
    {"core.share_table.hits", "count"},
    {"core.share_table.inserts", "count"},
    {"core.io_token.allocated", "count"},
    {"core.io_token.high_water", "count"},
    {"core.host.retries", "count"},
    {"core.host.aborted", "count"},
    {"core.host.watchdog_timeouts", "count"},
    {"bam.virt_ms", "ms"},
    {"bam.poll_rounds", "count"},
    {"bam.cq_lock_fails", "count"},
    {"wall.setup_s", "s"},
    {"wall.run_s", "s"},
    {"wall.drain_s", "s"},
    {"wall.stop_s", "s"},
    {"wall.verify_s", "s"},
    {"wall.leg_other_s", "s"},
    {"trace.overhead_s", "s"},
    {"wall_raw_s", "s"},
    {"setup_raw_s", "s"},
    {"host.ref_s", "s"},
};

// Wall span name -> self-time bucket of the per-layer report.
const char* spanBucket(const std::string& name) {
  static const std::map<std::string, const char*> kBuckets = {
      {"AgileHost", "wall.setup_s"},   {"addNvmeDev", "wall.setup_s"},
      {"initNvme", "wall.setup_s"},    {"AgileCtrl", "wall.setup_s"},
      {"BamCtrl", "wall.setup_s"},     {"startAgile", "wall.setup_s"},
      {"buffers", "wall.setup_s"},     {"inputs", "wall.setup_s"},
      {"KvServer", "wall.setup_s"},    {"runKernel", "wall.run_s"},
      {"runDlrm", "wall.run_s"},       {"KvServer::run", "wall.run_s"},
      {"drainIo", "wall.drain_s"},     {"stopAgile", "wall.stop_s"},
      {"verify", "wall.verify_s"},
  };
  const auto it = kBuckets.find(name);
  return it == kBuckets.end() ? "wall.leg_other_s" : it->second;
}

std::map<std::string, double> selfTimes(const Tracer& tr) {
  const std::vector<WallSpan>& spans = tr.wallSpans();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const WallSpan& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spanBucket(spans[i].name)] +=
        selfTime(spans[i].start, spans[i].end, std::move(children[i]));
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      unsigned long kb = 0;
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  return 0.0;
}

std::string num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fputc('\n', stderr);
  return 2;
}

bool parseU64(const char* s, std::uint64_t* out) {
  const char* end = s + std::strlen(s);
  const auto res = std::from_chars(s, end, *out);
  return res.ec == std::errc() && res.ptr == end && res.ptr != s;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* wl = nullptr;
  std::uint64_t seed = 0, seconds = 0, trace = 2;
  bool haveSeed = false;
  std::string outDir;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (i + 1 >= argc) return usage("missing value after an option");
    const char* v = argv[++i];
    if (std::strcmp(a, "--workload") == 0) {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) wl = &w;
      }
      if (wl == nullptr) return usage("unknown workload");
    } else if (std::strcmp(a, "--seed") == 0) {
      if (!parseU64(v, &seed)) return usage("bad --seed");
      haveSeed = true;
    } else if (std::strcmp(a, "--seconds") == 0) {
      if (!parseU64(v, &seconds) || seconds == 0 || seconds > 600) {
        return usage("bad --seconds");
      }
    } else if (std::strcmp(a, "--trace") == 0) {
      if (!parseU64(v, &trace) || trace > 1) return usage("bad --trace");
    } else if (std::strcmp(a, "--out") == 0) {
      outDir = v;
    } else {
      return usage("unknown option");
    }
  }
  if (wl == nullptr || !haveSeed || seconds == 0 || trace > 1) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const bool traced = trace == 1;

  // Repetitions: even ones untraced, odd ones traced when --trace 1.
  std::vector<RepResult> reps;
  std::vector<bool> repTraced;
  std::vector<std::map<std::string, double>> selfByRep;
  Tracer lastTrace(false);
  HostRef ref;
  std::vector<double> refS, setupOnly;
  ref.measure();  // the first pass only warms the kernel up
  const double start = wallNow();
  const double deadline = start + static_cast<double>(seconds);
  double setupPassS = 0.0;
  while (reps.size() < static_cast<std::size_t>(kMinReps) ||
         wallNow() < deadline) {
    refS.push_back(ref.measure());
    const bool on = traced && reps.size() % 2 == 1;
    Tracer tr(on);
    RepResult rep;
    {
      Phase root(tr, "rep");
      rep = wl->run(seed, tr, false);
    }
    if (on) {
      selfByRep.push_back(selfTimes(tr));
      lastTrace = std::move(tr);
    }
    reps.push_back(std::move(rep));
    repTraced.push_back(on);
    for (int i = 0;
         i < kMaxSetupPasses && setupPassS < kSetupShare * (wallNow() - start);
         ++i) {
      const double t0 = wallNow();
      Tracer off(false);
      setupOnly.push_back(wl->run(seed, off, true).setupS);
      setupPassS += wallNow() - t0;
    }
  }
  refS.push_back(ref.measure());
  // Wall figures are reported in seconds at the reference host's speed.
  const double refMedian = median(refS);
  const double scale = HostRef::scale(refMedian);

  const RepResult& first = reps.front();
  const std::uint64_t digest = first.digest();
  std::vector<std::string> mismatches;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<double> setupSamples = setupOnly, wallUntraced, wallTraced;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    for (const std::string& m : r.mismatches) mismatches.push_back(m);
    if (r.digest() != digest) {
      mismatches.push_back("repetition " + std::to_string(i) +
                           (repTraced[i] ? " (traced)" : "") +
                           ": virtual digest differs from repetition 0");
    }
    attempted += r.attempted;
    failed += r.failed;
    (repTraced[i] ? wallTraced : wallUntraced).push_back(r.wallS);
    if (!repTraced[i]) setupSamples.push_back(r.setupS);
  }

  // Metric values: virtual ones from repetition 0 (identical in all), wall
  // ones as medians.
  std::map<std::string, Metric> all;
  for (const Metric& m : first.metrics) all[m.name] = m;
  const auto put = [&](const char* name, double v, const char* unit,
                       bool virt) { all[name] = Metric{name, v, unit, virt}; };
  std::uint64_t events = 0, readyEvents = 0;
  for (const RepResult::LegEnd& l : first.legEnds) {
    events += l.events;
    readyEvents += l.readyEvents;
  }
  const double wallRawS = median(wallUntraced);
  const double wallS = wallRawS * scale;
  put("setup_s", median(setupSamples) * scale, "s", false);
  put("wall_s", wallS, "s", false);
  put("setup_raw_s", median(setupSamples), "s", false);
  put("wall_raw_s", wallRawS, "s", false);
  put("host.ref_s", refMedian, "s", false);
  put("peak_rss_mb", peakRssMb(), "MB", false);
  put("sim.events", static_cast<double>(events), "count", true);
  put("sim.ready_frac",
      events > 0 ? static_cast<double>(readyEvents) / events : 0.0, "ratio",
      true);
  put("sim.events_per_wall_s", wallRawS > 0 ? events / wallRawS : 0.0,
      "1/s", false);
  put("fail_ratio",
      attempted > 0 ? static_cast<double>(failed) / attempted : 0.0, "ratio",
      false);
  if (traced) {
    std::map<std::string, std::vector<double>> byBucket;
    for (const auto& rep : selfByRep) {
      for (const auto& [k, v] : rep) byBucket[k].push_back(v);
    }
    for (const MetricSpec& s : kPerLayer) {
      if (std::strncmp(s.name, "wall.", 5) == 0) {
        put(s.name, median(byBucket[s.name]) * scale, s.unit, false);
      }
    }
    put("trace.overhead_s", median(wallTraced) * scale - wallS, "s", false);
  }
  if (all.count("virt_ms") == 0 || !(all["virt_ms"].value > 0)) {
    mismatches.push_back("workload reported no virt_ms");
  }
  for (const auto& [name, m] : all) {
    if (!std::isfinite(m.value)) mismatches.push_back(name + " is not finite");
  }
  const bool correct = mismatches.empty();

  std::printf("perfbench workload=%s seed=%llu trace=%d reps=%zu\n", wl->name,
              static_cast<unsigned long long>(seed), traced ? 1 : 0,
              reps.size());
  for (const auto& [name, m] : all) {
    std::printf("  %-36s %-22s %s%s\n", name.c_str(), num(m.value).c_str(),
                m.unit.c_str(), m.virt ? " (virtual)" : "");
  }
  std::printf("  per-rep raw wall_s:");
  for (std::size_t i = 0; i < reps.size(); ++i) {
    std::printf(" %.4f%s", reps[i].wallS, repTraced[i] ? "(traced)" : "");
  }
  std::printf("\n  per-rep host reference (s):");
  for (double v : refS) std::printf(" %.4f", v);
  std::printf("\n  set-up samples %zu; wall figures scaled by %.4f\n",
              setupSamples.size(), scale);
  std::printf("  virtual digest %016llx\n",
              static_cast<unsigned long long>(digest));
  std::printf("  attempted %llu failed %llu fail_ratio %s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              num(all["fail_ratio"].value).c_str());
  for (const std::string& n : first.notes) {
    std::printf("  note: %s\n", n.c_str());
  }
  for (const std::string& m : mismatches) {
    std::printf("  CHECK FAILED: %s\n", m.c_str());
  }

  if (!outDir.empty()) {
    const std::string stem = outDir + "/" + wl->name + "-seed" +
                             std::to_string(seed) + "-trace" +
                             std::to_string(trace);
    if (std::FILE* f = std::fopen((stem + ".record.json").c_str(), "w")) {
      std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,"
                      "\"reps\":%zu,\"digest\":\"%016llx\",\"correct\":%s,"
                      "\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
                   wl->name, static_cast<unsigned long long>(seed),
                   traced ? 1 : 0, reps.size(),
                   static_cast<unsigned long long>(digest),
                   correct ? "true" : "false",
                   static_cast<unsigned long long>(attempted),
                   static_cast<unsigned long long>(failed));
      const char* sep = "";
      for (const auto& [name, m] : all) {
        std::fprintf(f, "%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", sep,
                     name.c_str(), num(m.value).c_str(), m.unit.c_str());
        sep = ",";
      }
      std::fputs("}}\n", f);
      std::fclose(f);
    }
    if (traced) {
      if (std::FILE* f = std::fopen((stem + ".spans.json").c_str(), "w")) {
        lastTrace.writeChrome(f);
        std::fclose(f);
      }
    }
  }

  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  const char* sep = "";
  const auto emit = [&](const MetricSpec& s) {
    const auto it = all.find(s.name);
    const double v = it == all.end() ? 0.0 : it->second.value;
    json += std::string(sep) + "\"" + s.name + "\": {\"value\": " + num(v) +
            ", \"unit\": \"" + s.unit + "\"}";
    sep = ", ";
  };
  if (traced) {
    for (const MetricSpec& s : kPerLayer) emit(s);
  } else {
    for (const MetricSpec& s : kEndToEnd) emit(s);
  }
  json += "}}";
  std::puts(json.c_str());
  return correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main(argc, argv); }
