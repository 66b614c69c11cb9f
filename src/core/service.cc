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
  const auto first = static_cast<std::uint32_t>(std::countr_one(cq.mask));
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

bool AgileService::idlePass(std::uint32_t warp, SimTime overhead,
                            IdlePass& pass) const {
  // The segments laneBody would run: skipped pairs charge the state check
  // to the segment they fall in, each scan (nothing found, no doorbell
  // carry) ends one.
  pass = {};
  SimTime pending = 0;
  for (std::uint32_t pairIdx = warp; pairIdx < qps_->count();
       pairIdx += cfg_.warps) {
    const AgileCq& cq = *qps_->cqs[pairIdx];
    if (qps_->sqs[pairIdx]->live == 0 && cq.mask == 0) {
      pending += cost::kSqeStateCheck;
      continue;
    }
    const auto first = static_cast<std::uint32_t>(std::countr_one(cq.mask));
    if (first >= cq.windowLanes ||
        cq.ring[cq.offset + first].phase() == cq.phase) {
      return false;
    }
    pass.total += pending + cost::kServicePollRound + overhead;
    pending = 0;
    ++pass.scans;
  }
  pass.last = pending + overhead;
  pass.total += pass.last;
  return true;
}

SimTime AgileService::fastForward(gpu::KernelCtx& ctx, std::uint32_t warp) {
  const SimTime now = ctx.now();
  const SimTime ownWake = now + warps_[warp].idle;
  gpu::Sm& sm = ctx.warp().sm();
  if (stop_ || sm.residentBlocks() != 1) return ownWake;
  // Every other warp must be asleep; its timer is the service's own.
  SimTime earliest = ownWake;
  std::size_t sleepers = 0;
  for (std::uint32_t w = 0; w < cfg_.warps; ++w) {
    WarpState& ws = warps_[w];
    if (w == warp) {
      ws.wake = ownWake;
      continue;
    }
    if (ws.lane == nullptr || ws.lane->state() != gpu::LaneState::kSleeping) {
      return ownWake;
    }
    except_[sleepers++] = ws.lane->sleepTimer();
    ws.wake = ws.lane->wakeAt();
    earliest = std::min(earliest, ws.wake);
  }
  const SimTime horizon =
      ctx.engine().quietUntil({except_.data(), sleepers});
  const SimTime overhead = ctx.gpu().config().schedOverheadNs;
  if (earliest + overhead >= horizon) return ownWake;
  for (std::uint32_t w = 0; w < cfg_.warps; ++w) {
    if (!idlePass(w, overhead, warps_[w].pass)) return ownWake;
  }

  // Commit whole passes in start order. The SM is free once this pass's
  // last segment (running now) ends.
  SimTime smFree = now + ctx.lane().pendingCharge() + overhead;
  std::uint64_t segments = 0;
  SimTime busy = 0;
  for (;;) {
    WarpState* next = &warps_[0];
    for (WarpState& ws : warps_) {
      if (ws.wake < next->wake) next = &ws;
    }
    const SimTime start = next->wake;
    const SimTime end = start + next->pass.total;
    // Queued behind a busy SM, or not over before something else can run.
    if (start < smFree || end >= horizon) break;
    const SimTime backoff = std::min(next->idle * 2, cfg_.idleBackoffMax);
    // The warp sleeps from its last segment's start.
    const SimTime wake = end - next->pass.last + backoff;
    bool clash = false;
    for (const WarpState& ws : warps_) {
      // Another warp waking inside the pass would interleave with it in
      // the SM's FIFO; an equal wake time would leave the order to seq.
      clash |= &ws != next && (ws.wake < end || ws.wake == wake);
    }
    if (clash) break;
    stats_.pollRounds += next->pass.scans;
    segments += next->pass.scans + 1;
    busy += next->pass.total;
    smFree = end;
    next->idle = backoff;
    next->wake = wake;
  }
  if (segments == 0) return ownWake;
  sm.credit(segments, busy, smFree);
  for (std::uint32_t w = 0; w < cfg_.warps; ++w) {
    WarpState& ws = warps_[w];
    if (w != warp && ws.wake != ws.lane->wakeAt()) ws.lane->resleep(ws.wake);
  }
  return warps_[warp].wake;
}

gpu::GpuTask<void> AgileService::laneBody(gpu::KernelCtx& ctx) {
  // Lane 0 executes the whole warp (see the header comment).
  if (ctx.laneId() != 0) co_return;
  const std::uint32_t warp = ctx.warpId();
  const std::uint32_t warps = cfg_.warps;
  WarpState& self = warps_[warp];
  self.lane = &ctx.lane();
  self.idle = cfg_.idleBackoffMin;
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
    // engine timer; after an idle pass it first fast-forwards.
    self.idle = any ? cfg_.idleBackoffMin
                    : std::min(self.idle * 2, cfg_.idleBackoffMax);
    const SimTime wake =
        any ? ctx.now() + self.idle : fastForward(ctx, warp);
    co_await ctx.backoff(wake - ctx.now());
  }
  self.lane = nullptr;
}

}  // namespace agile::core
