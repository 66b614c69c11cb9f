// In-memory span recorder for the benchmark's traced runs.
//
// Wall spans are host steady-clock intervals around the benchmark's calls
// into each layer (setup calls, legs, kernel runs, drainIo, stopAgile,
// verification); each knows the span that encloses it. Virtual spans are
// per-I/O submit and wait intervals stamped with KernelCtx::now() inside the
// benchmark's own kernels; the spans of one I/O share an id. Stamping reads
// the engine clock and charges no virtual time, so a traced run simulates
// exactly what an untraced one does. Everything stays in memory until
// writeChrome() emits Chrome trace-event JSON at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

inline double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct WallSpan {
  std::string name;
  int parent = -1;  // index into the span list, -1 for a root
  double start = 0.0;
  double end = 0.0;
};

struct VirtSpan {
  const char* name;  // "submit" or "wait"
  std::uint64_t io;  // shared by the spans of one I/O
  std::uint32_t tid;
  agile::SimTime start;
  agile::SimTime end;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  // Opens a wall span under the innermost open one; -1 when tracing is off.
  int open(std::string name) {
    if (!on_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    wall_.push_back({std::move(name), parent, wallNow(), 0.0});
    open_.push_back(static_cast<int>(wall_.size()) - 1);
    return open_.back();
  }
  void close(int id) {
    if (id < 0) return;
    wall_[static_cast<std::size_t>(id)].end = wallNow();
    open_.pop_back();
  }

  void virt(const char* name, std::uint64_t io, std::uint32_t tid,
            agile::SimTime start, agile::SimTime end) {
    if (on_) virt_.push_back({name, io, tid, start, end});
  }

  const std::vector<WallSpan>& wallSpans() const { return wall_; }

  // Chrome trace-event JSON: pid 0 holds wall spans (µs since the first
  // span), pid 1 virtual spans (virtual µs, tid = GPU thread).
  void writeChrome(std::FILE* f) const {
    const double t0 = wall_.empty() ? 0.0 : wall_.front().start;
    std::fputs("{\"traceEvents\":[\n", f);
    const char* sep = "";
    for (std::size_t i = 0; i < wall_.size(); ++i) {
      const WallSpan& s = wall_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":0,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d}}",
                   sep, s.name.c_str(), (s.start - t0) * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent);
      sep = ",\n";
    }
    for (const VirtSpan& s : virt_) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"io\":%llu}}",
                   sep, s.name, s.tid, static_cast<double>(s.start) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(s.io));
      sep = ",\n";
    }
    std::fputs("\n]}\n", f);
  }

 private:
  bool on_;
  std::vector<WallSpan> wall_;
  std::vector<int> open_;
  std::vector<VirtSpan> virt_;
};

// RAII wall span that also adds its duration to an optional accumulator
// (the setup or timed-region total of the end-to-end metrics).
class Phase {
 public:
  Phase(Tracer& tr, std::string name, double* acc = nullptr)
      : tr_(&tr), acc_(acc), id_(tr.open(std::move(name))), t0_(wallNow()) {}
  ~Phase() {
    if (acc_ != nullptr) *acc_ += wallNow() - t0_;
    tr_->close(id_);
  }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  Tracer* tr_;
  double* acc_;
  int id_;
  double t0_;
};

}  // namespace perfbench
