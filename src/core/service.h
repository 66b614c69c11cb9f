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
#pragma once

#include <cstdint>

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
      : qps_(&qps), cfg_(cfg) {}

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

  QueuePairSet* qps_;
  ServiceConfig cfg_;
  ServiceStats stats_;
  bool stop_ = false;
};

}  // namespace agile::core
