#include "core/service.h"

#include <algorithm>
#include <bit>

namespace agile::core {

bool AgileService::scanWindow(gpu::KernelCtx& ctx, AgileCq& cq, AgileSq& sq,
                              SimTime& doorbellCarry) {
  const std::uint32_t window = cq.windowLanes;
  AGILE_CHECK(cq.offset + window <= cq.depth);
  AGILE_CHECK((cq.mask & (cq.mask + 1)) == 0);
  // Algorithm 1 line 2: load offset / mask / phase.
  ctx.charge(cost::kServicePollRound);
  ++stats_.pollRounds;

  // Lines 3-7 for every lane of the window, in lane order: lane i checks
  // the CQE at (offset + i); a valid completion is processed and its mask
  // bit set. Each lane releases its own completion's resources. Consumed
  // and posted lanes are both prefixes of the window (ring-order scan, see
  // the header), so the scan starts past the consumed prefix and ends at
  // the first unposted slot.
  const std::uint32_t first =
      static_cast<std::uint32_t>(std::popcount(cq.mask));
  std::uint32_t lane = first;
  for (; lane < window; ++lane) {
    const nvme::Cqe cqe = cq.ring[cq.offset + lane];
    if (cqe.phase() != cq.phase) break;
    AGILE_CHECK(cqe.sqId == sq.qid);
    applyCompletion(ctx.engine(), sq, cqe.cid, cqe.status());
    cq.mask |= 1u << lane;
    ++stats_.completions;
  }
  // SIMT lockstep: the segment costs its slowest lane. Lane 0 also carries
  // the doorbell it wrote at the start of this segment.
  const bool lane0Found = first == 0 && lane > 0;
  const bool othersFound = lane > std::max(first, 1u);
  const SimTime lane0 =
      doorbellCarry + (lane0Found ? cost::kServiceCqeProcess : 0);
  const SimTime others = othersFound ? cost::kServiceCqeProcess : 0;
  ctx.charge(std::max(lane0, others));
  doorbellCarry = 0;
  return lane > first;
}

void AgileService::advanceWindow(AgileCq& cq, SimTime& doorbellCarry) {
  // Lines 8-11: window fully processed — advance, flip phase on wrap, and
  // notify the SSD through the CQ head doorbell so it can reuse the entries.
  // Lane 0 writes it; its cost lands in the next segment's max.
  const std::uint32_t window = cq.windowLanes;
  const std::uint32_t fullMask =
      window == 32 ? 0xffffffffu : ((1u << window) - 1u);
  if (cq.mask != fullMask) return;
  cq.mask = 0;
  cq.offset += window;
  if (cq.offset == cq.depth) {
    cq.offset = 0;
    cq.phase = !cq.phase;
  }
  cq.head = cq.offset;
  doorbellCarry = cost::kDoorbellWrite;
  cq.ssd->writeCqDoorbell(cq.qid, cq.head);
  ++stats_.cqDoorbells;
  ++stats_.windowsAdvanced;
}

gpu::GpuTask<void> AgileService::laneBody(gpu::KernelCtx& ctx) {
  // Lane 0 executes the whole warp (see the header comment).
  if (ctx.laneId() != 0) co_return;
  const std::uint32_t warp = ctx.warpId();
  const std::uint32_t warps = cfg_.warps;
  SimTime idle = cfg_.idleBackoffMin;
  SimTime doorbellCarry = 0;
  while (!stop_) {
    bool any = false;
    for (std::uint32_t pairIdx = warp; pairIdx < qps_->count();
         pairIdx += warps) {
      AgileCq& cq = *qps_->cqs[pairIdx];
      AgileSq& sq = *qps_->sqs[pairIdx];
      // Fast skip: nothing in flight on this pair and no half-consumed
      // window — one shared-state load instead of a full window scan, and
      // no warp-synchronous point.
      if (sq.live == 0 && cq.mask == 0) {
        ctx.charge(cost::kSqeStateCheck);
        continue;
      }
      any |= scanWindow(ctx, cq, sq, doorbellCarry);
      // Warp-synchronous point: all lanes finished their slot checks.
      co_await ctx.yield();
      advanceWindow(cq, doorbellCarry);
    }
    // A doorbell written after the warp's last window pass is charged here.
    ctx.charge(doorbellCarry);
    doorbellCarry = 0;
    // Adaptive idle backoff: busy CQs are polled at the minimum interval,
    // quiet ones progressively less often. The whole warp sleeps on one
    // engine timer.
    idle = any ? cfg_.idleBackoffMin
               : std::min(idle * 2, cfg_.idleBackoffMax);
    co_await ctx.backoff(idle);
  }
}

}  // namespace agile::core
