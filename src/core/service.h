// The AGILE service (§3.2): a lightweight persistent kernel that polls all
// registered completion queues with the warp-centric strategy of Algorithm 1
// and releases shared resources (SQEs, cache lines, transaction barriers) on
// behalf of user threads — eliminating the §2.3.1 deadlock, since a thread
// blocked on a full SQ no longer depends on other user threads to drain
// completions.
//
// Each service warp owns the CQs whose index is congruent to its warp id and
// rotates across them round-robin. Within a CQ, lane i of the warp checks
// the CQE at (offset + i): completions are processed in parallel by the
// lanes, the per-CQ mask accumulates progress, and the window advances (and
// the CQ doorbell is written) only when every entry of the window has been
// consumed — a faithful transcription of Algorithm 1.
//
// The warp is simulated as the lockstep unit it is: lane 0 runs the whole
// warp as one coroutine (the slot checks of lanes 0..window-1 in lane order,
// then one yield as the warp-synchronous point) and charges each segment
// what SIMT lockstep costs — the uniform part plus the max over lanes of the
// per-lane extras. Lanes 1..31 exist only so the launch keeps its 64-thread
// occupancy and register footprint (Fig. 12); they retire at entry. The
// warp sleeps between polling passes on one engine timer.
//
// Ring-order scan: the device writes CQEs only at its CQ tail, in ring
// order, and never passes the host's head doorbell (which sits at the
// window offset). Within a window the posted entries therefore form a
// prefix, and so do the consumed ones (the mask). A pass starts at the
// first unconsumed lane and stops at the first CQE whose phase does not
// match: the lanes it skips could find nothing. Swallowed and aborted
// commands never post, so they keep the order.
//
// Idle fast-forward: a warp whose pass found nothing replays, before it
// sleeps, the idle passes that it and the other (sleeping) service warps
// would run next, arithmetically and without engine events, up to the
// horizon Engine::quietUntil gives: the first point at which anything that
// is not a service warp's timer could run. Before the horizon the queue
// state cannot change, so each replayed pass is idle and its cost follows
// from that state. Passes are committed whole, in start order, only while
// each starts on a free SM, ends before the horizon, overlaps no other
// warp's wake and moves its warp's wake onto no other warp's wake time;
// anything else runs for real. Moved sleepers are re-armed with fresh
// timers, which order among pending events exactly as the originals would
// (see docs/ARCHITECTURE.md "Idle fast-forward"). Consequence: pollRounds
// and the service SM's segments()/busyNs() may run ahead of now(), up to
// the next foreign event; engine runs never return before it, but an
// Engine::runUntil predicate must not read them.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "core/cost_model.h"
#include "core/io_queues.h"
#include "gpu/exec.h"
#include "gpu/regmodel.h"

namespace agile::core {

struct ServiceConfig {
  std::uint32_t warps = 2;
  SimTime idleBackoffMin = cost::kServiceIdleMin;
  SimTime idleBackoffMax = cost::kServiceIdleMax;
};

struct ServiceStats {
  std::uint64_t completions = 0;
  std::uint64_t pollRounds = 0;
  std::uint64_t cqDoorbells = 0;
  std::uint64_t windowsAdvanced = 0;
};

class AgileService {
 public:
  AgileService(QueuePairSet& qps, ServiceConfig cfg)
      : qps_(&qps),
        cfg_(cfg),
        warps_(cfg.warps),
        except_(cfg.warps) {}

  const ServiceConfig& config() const { return cfg_; }
  const ServiceStats& stats() const { return stats_; }
  // Copyable point-in-time snapshot; pairs with resetStats() for per-phase
  // measurement windows (sweep points, steady-state epochs).
  ServiceStats snapshot() const { return stats_; }
  void resetStats() { stats_ = {}; }
  bool stopRequested() const { return stop_; }
  void requestStop() { stop_ = true; }

  // Launch configuration for the persistent service kernel.
  gpu::LaunchConfig launchConfig(bool onReservedSm) const {
    return {.gridDim = 1,
            .blockDim = cfg_.warps * gpu::kWarpSize,
            .regsPerThread = gpu::serviceKernelRegisters(),
            .onReservedSm = onReservedSm,
            .name = "agile-service"};
  }

  // Device body for every service lane: lane 0 runs its warp's polling
  // loop, the other lanes return at once.
  gpu::GpuTask<void> laneBody(gpu::KernelCtx& ctx);

 private:
  // One Algorithm-1 polling pass of the warp over one queue pair, split at
  // its warp-synchronous point. scanWindow runs the slot checks and charges
  // the segment; it returns whether any lane consumed a new completion.
  // `doorbellCarry` is lane 0's CQ-doorbell charge from the previous pass's
  // window advance: it belongs to the segment this pass runs in, so the scan
  // folds it into the lockstep max. advanceWindow runs after the yield and
  // sets the carry again if the window was fully consumed.
  bool scanWindow(gpu::KernelCtx& ctx, AgileCq& cq, AgileSq& sq,
                  SimTime& doorbellCarry);
  void advanceWindow(AgileCq& cq, SimTime& doorbellCarry);

  // Cost of one idle pass of `warp` over the current queue state: `scans`
  // window scans, each ending a segment, then a last segment of `last`.
  struct IdlePass {
    SimTime total = 0;
    SimTime last = 0;
    std::uint32_t scans = 0;
  };
  // False if a pair of the warp holds a posted, unconsumed CQE (its next
  // pass would not be idle).
  bool idlePass(std::uint32_t warp, SimTime overhead, IdlePass& pass) const;
  // Called by `warp` at the end of an idle pass, its backoff already
  // doubled: commits whatever replayed passes the rules allow (see the file
  // comment) and returns the time the warp must wake.
  SimTime fastForward(gpu::KernelCtx& ctx, std::uint32_t warp);

  QueuePairSet* qps_;
  ServiceConfig cfg_;
  ServiceStats stats_;
  bool stop_ = false;

  // Per service warp: lane 0 while its loop runs, the backoff it last
  // slept, and fastForward's scratch (its pass shape and replayed wake).
  struct WarpState {
    gpu::Lane* lane = nullptr;
    SimTime idle = 0;
    IdlePass pass;
    SimTime wake = 0;
  };
  std::vector<WarpState> warps_;
  // The sleeping peers' timers, for Engine::quietUntil; sized once.
  std::vector<sim::TimerId> except_;
};

}  // namespace agile::core
