#include "gpu/exec.h"

#include <algorithm>
#include <bit>

namespace agile::gpu {

// ---------------------------------------------------------------- Lane ----

Lane::Lane(Warp& warp, std::uint32_t laneId, std::uint32_t threadIdx)
    : warp_(&warp), laneId_(laneId), threadIdx_(threadIdx) {
  parkNode_.lane = this;
  parkNode_.fire = [](sim::WaitNode* n) {
    static_cast<ParkNode*>(n)->lane->wake();
  };
}

Lane::~Lane() = default;

void Lane::start(const KernelFn& fn) {
  ctx_ = std::make_unique<KernelCtx>(*this, warp_->block(), threadIdx_);
  task_ = fn(*ctx_);
  AGILE_CHECK(task_.valid());
  resumePoint_ = task_.handle();
  state_ = LaneState::kReady;
}

SimTime Lane::resumeSegment() {
  AGILE_CHECK(state_ == LaneState::kReady);
  AGILE_CHECK(resumePoint_);
  state_ = LaneState::kRunning;
  pendingCharge_ = 0;
  auto h = resumePoint_;
  resumePoint_ = nullptr;
  h.resume();
  const SimTime charged = pendingCharge_;
  if (task_.done()) {
    state_ = LaneState::kDone;
    task_.reset();
    ctx_.reset();
    warp_->laneDied(laneId_);
    return charged;
  }
  // The kernel must have suspended through a KernelCtx awaitable, which
  // records the resume point and the new lane state.
  AGILE_CHECK_MSG(state_ != LaneState::kRunning,
                  "kernel suspended outside the scheduler awaitables");
  return charged;
}

void Lane::wake() {
  AGILE_CHECK(state_ == LaneState::kSleeping || state_ == LaneState::kParked ||
              state_ == LaneState::kCollective ||
              state_ == LaneState::kBarrier);
  state_ = LaneState::kReady;
  warp_->laneReady(laneId_);
}

void Lane::suspendYield(std::coroutine_handle<> h) {
  resumePoint_ = h;
  state_ = LaneState::kReady;
  warp_->laneReady(laneId_);
}

void Lane::suspendSleep(std::coroutine_handle<> h, SimTime delay) {
  resumePoint_ = h;
  state_ = LaneState::kSleeping;
  sim::Engine& eng = warp_->block().gpu().engine();
  wakeAt_ = eng.now() + delay;
  sleepTimer_ = eng.scheduleAfter(delay, [this] { wake(); });
}

void Lane::resleep(SimTime t) {
  AGILE_CHECK(state_ == LaneState::kSleeping);
  sim::Engine& eng = warp_->block().gpu().engine();
  AGILE_CHECK(eng.cancel(sleepTimer_));
  wakeAt_ = t;
  sleepTimer_ = eng.scheduleAt(t, [this] { wake(); });
}

void Lane::suspendPark(std::coroutine_handle<> h, sim::WaitList& list) {
  resumePoint_ = h;
  state_ = LaneState::kParked;
  list.park(parkNode_);
}

void Lane::suspendCollective(std::coroutine_handle<> h, std::uint64_t value) {
  resumePoint_ = h;
  state_ = LaneState::kCollective;
  collParity_ = collGen_ & 1u;
  ++collGen_;
  warp_->laneArrivedCollective(laneId_, collParity_, value);
}

void Lane::suspendBarrier(std::coroutine_handle<> h) {
  resumePoint_ = h;
  state_ = LaneState::kBarrier;
  warp_->block().barrierArrive(*this);
}

// ---------------------------------------------------------------- Warp ----

Warp::Warp(Block& block, std::uint32_t warpId, std::uint32_t laneCount)
    : block_(&block), warpId_(warpId) {
  AGILE_CHECK(laneCount >= 1 && laneCount <= kWarpSize);
  lanes_.reserve(laneCount);
  for (std::uint32_t i = 0; i < laneCount; ++i) {
    const std::uint32_t threadIdx = warpId * kWarpSize + i;
    lanes_.push_back(std::make_unique<Lane>(*this, i, threadIdx));
    liveMask_ |= 1u << i;
  }
  liveCount_ = laneCount;
}

Warp::~Warp() = default;

void Warp::startLanes(const KernelFn& fn) {
  for (auto& l : lanes_) {
    l->start(fn);
    readyMask_ |= 1u << l->laneId();
  }
  AGILE_CHECK(sm_ != nullptr);
  queued = true;
  sm_->enqueue(this);
}

SimTime Warp::runSegment() {
  running = true;
  std::uint32_t snapshot = readyMask_;
  readyMask_ = 0;
  SimTime cost = 0;
  // Visit only the ready lanes, in ascending lane order.
  for (; snapshot != 0; snapshot &= snapshot - 1) {
    const auto i = static_cast<std::uint32_t>(std::countr_zero(snapshot));
    cost = std::max(cost, lanes_[i]->resumeSegment());
  }
  running = false;
  return cost;
}

void Warp::laneReady(std::uint32_t laneId) {
  readyMask_ |= 1u << laneId;
  if (!queued && !running) {
    queued = true;
    sm_->enqueue(this);
  }
}

void Warp::laneArrivedCollective(std::uint32_t laneId, std::uint32_t parity,
                                 std::uint64_t value) {
  auto& slot = coll_[parity];
  AGILE_CHECK((slot.arrived & (1u << laneId)) == 0);
  slot.arrived |= 1u << laneId;
  slot.values[laneId] = value;
  maybeCompleteCollective(parity);
}

void Warp::maybeCompleteCollective(std::uint32_t parity) {
  auto& slot = coll_[parity];
  if (slot.arrived == 0) return;
  // Complete when every live lane has arrived in this slot.
  if ((slot.arrived & liveMask_) != liveMask_) return;
  slot.resultMask = slot.arrived & liveMask_;
  const std::uint32_t toWake = slot.arrived;
  slot.arrived = 0;
  for (std::uint32_t i = 0; i < laneCount(); ++i) {
    if ((toWake & (1u << i)) != 0) {
      AGILE_CHECK(lanes_[i]->state() == LaneState::kCollective);
      lanes_[i]->wake();
    }
  }
}

void Warp::laneDied(std::uint32_t laneId) {
  liveMask_ &= ~(1u << laneId);
  --liveCount_;
  // A shrinking live set may satisfy an outstanding collective or the block
  // barrier (remaining arrivers are now everyone alive).
  if (liveMask_ != 0) {
    maybeCompleteCollective(0);
    maybeCompleteCollective(1);
  }
  block_->laneDied();
}

// --------------------------------------------------------------- Block ----

Block::Block(Gpu& gpu, KernelHandle kernel, std::uint32_t blockIdx, Sm& sm)
    : gpu_(&gpu),
      kernel_(std::move(kernel)),
      blockIdx_(blockIdx),
      sm_(&sm),
      liveLanes_(kernel_->cfg.blockDim),
      shared_(kernel_->cfg.sharedBytesPerBlock) {
  const std::uint32_t dim = kernel_->cfg.blockDim;
  const std::uint32_t warpCount = ceilDiv(dim, kWarpSize);
  warps_.reserve(warpCount);
  for (std::uint32_t w = 0; w < warpCount; ++w) {
    const std::uint32_t lanes = std::min(kWarpSize, dim - w * kWarpSize);
    warps_.push_back(std::make_unique<Warp>(*this, w, lanes));
    warps_.back()->bindSm(sm);
  }
}

Block::~Block() = default;

void Block::start() {
  for (auto& w : warps_) w->startLanes(kernel_->fn);
}

void Block::barrierArrive(Lane& lane) {
  ++barrierArrived_;
  barrierWaiters_.push_back(&lane);
  maybeReleaseBarrier();
}

void Block::laneDied() {
  AGILE_CHECK(liveLanes_ > 0);
  --liveLanes_;
  if (liveLanes_ == 0) {
    gpu_->blockFinished(this);
    return;
  }
  maybeReleaseBarrier();
}

void Block::maybeReleaseBarrier() {
  if (barrierArrived_ == 0 || barrierArrived_ < liveLanes_) return;
  barrierArrived_ = 0;
  auto waiters = std::move(barrierWaiters_);
  barrierWaiters_.clear();
  for (Lane* l : waiters) l->wake();
}

// ------------------------------------------------------------------ Sm ----

Sm::Sm(Gpu& gpu, std::uint32_t smId)
    : gpu_(&gpu),
      smId_(smId),
      freeWarpSlots_(gpu.config().warpSlotsPerSm),
      freeRegs_(gpu.config().regsPerSm),
      freeSharedBytes_(gpu.config().sharedBytesPerSm) {}

void Sm::enqueue(Warp* w) {
  ready_.push_back(w);
  kick();
}

bool Sm::canPlace(const LaunchConfig& cfg) const {
  const std::uint32_t warps = ceilDiv(cfg.blockDim, kWarpSize);
  const std::uint32_t regs = cfg.blockDim * cfg.regsPerThread;
  return freeWarpSlots_ >= warps && freeRegs_ >= regs &&
         residentBlocks_ < gpu_->config().maxBlocksPerSm &&
         freeSharedBytes_ >= cfg.sharedBytesPerBlock;
}

void Sm::acquire(const LaunchConfig& cfg) {
  AGILE_CHECK(canPlace(cfg));
  freeWarpSlots_ -= ceilDiv(cfg.blockDim, kWarpSize);
  freeRegs_ -= cfg.blockDim * cfg.regsPerThread;
  freeSharedBytes_ -= cfg.sharedBytesPerBlock;
  ++residentBlocks_;
}

void Sm::release(const LaunchConfig& cfg) {
  freeWarpSlots_ += ceilDiv(cfg.blockDim, kWarpSize);
  freeRegs_ += cfg.blockDim * cfg.regsPerThread;
  freeSharedBytes_ += cfg.sharedBytesPerBlock;
  AGILE_CHECK(residentBlocks_ > 0);
  --residentBlocks_;
}

void Sm::kick() {
  if (running_) return;
  running_ = true;
  auto& eng = gpu_->engine();
  eng.scheduleAt(std::max(eng.now(), busyUntil_), [this] { runSlot(); });
}

void Sm::runSlot() {
  if (ready_.empty()) {
    running_ = false;
    return;
  }
  Warp* w = ready_.front();
  ready_.pop_front();
  w->queued = false;
  const SimTime cost =
      w->runSegment() + gpu_->config().schedOverheadNs;
  if (w->hasReadyLanes() && !w->queued) {
    w->queued = true;
    ready_.push_back(w);
  }
  ++segments_;
  busyNs_ += cost;
  auto& eng = gpu_->engine();
  // A segment that credited replayed ones (Sm::credit) leaves the SM busy
  // past its own end; the next slot still runs at that end and finds the
  // ready queue empty.
  const SimTime end = eng.now() + cost;
  busyUntil_ = std::max(busyUntil_, end);
  eng.scheduleAt(end, [this] { runSlot(); });
}

// ----------------------------------------------------------------- Gpu ----

Gpu::Gpu(sim::Engine& engine, GpuConfig cfg)
    : engine_(&engine), cfg_(cfg), hbm_(cfg.hbmBytes) {
  AGILE_CHECK(cfg.numSms >= 1);
  AGILE_CHECK(cfg.reservedSms < cfg.numSms);
  sms_.reserve(cfg.numSms);
  for (std::uint32_t i = 0; i < cfg.numSms; ++i) {
    sms_.push_back(std::make_unique<Sm>(*this, i));
  }
}

Gpu::~Gpu() = default;

KernelHandle Gpu::launch(LaunchConfig cfg, KernelFn fn) {
  AGILE_CHECK(cfg.gridDim >= 1);
  AGILE_CHECK(cfg.blockDim >= 1);
  auto k = std::make_shared<KernelState>();
  k->cfg = std::move(cfg);
  k->fn = std::move(fn);
  k->launchTime = engine_->now();
  pendingLaunches_.push_back(k);
  dispatchPending();
  return k;
}

bool Gpu::wait(const KernelHandle& k, SimTime deadline) {
  return engine_->runUntil([&] { return k->done; }, deadline);
}

std::uint32_t Gpu::occupancyBlocksPerSm(const LaunchConfig& cfg) const {
  const std::uint32_t warps = ceilDiv(cfg.blockDim, kWarpSize);
  const std::uint32_t regs = cfg.blockDim * cfg.regsPerThread;
  std::uint32_t byWarps = cfg_.warpSlotsPerSm / std::max(1u, warps);
  std::uint32_t byRegs = regs == 0 ? cfg_.maxBlocksPerSm : cfg_.regsPerSm / regs;
  std::uint32_t byShared =
      cfg.sharedBytesPerBlock == 0
          ? cfg_.maxBlocksPerSm
          : static_cast<std::uint32_t>(cfg_.sharedBytesPerSm /
                                       cfg.sharedBytesPerBlock);
  return std::min({byWarps, byRegs, byShared, cfg_.maxBlocksPerSm});
}

double Gpu::smBusyFraction() const {
  if (engine_->now() == 0) return 0.0;
  SimTime busy = 0;
  for (const auto& sm : sms_) busy += sm->busyNs();
  return static_cast<double>(busy) /
         (static_cast<double>(engine_->now()) * static_cast<double>(sms_.size()));
}

void Gpu::dispatchPending() {
  while (!pendingLaunches_.empty()) {
    auto& k = pendingLaunches_.front();
    if (k->nextBlock == k->cfg.gridDim) {
      pendingLaunches_.pop_front();
      continue;
    }
    // Pick the SM with the most free warp slots that fits the block.
    // Reserved SMs host only launches that ask for them (system kernels).
    Sm* best = nullptr;
    for (std::uint32_t i = 0; i < sms_.size(); ++i) {
      const bool reserved = i < cfg_.reservedSms;
      if (reserved != k->cfg.onReservedSm) continue;
      Sm* sm = sms_[i].get();
      if (!sm->canPlace(k->cfg)) continue;
      if (best == nullptr || sm->freeWarpSlots() > best->freeWarpSlots()) {
        best = sm;
      }
    }
    if (best == nullptr) return;  // wait for a resident block to finish
    best->acquire(k->cfg);
    auto block =
        std::make_unique<Block>(*this, k, k->nextBlock++, *best);
    Block* raw = block.get();
    activeBlocks_.push_back(std::move(block));
    raw->start();
  }
}

void Gpu::blockFinished(Block* b) {
  b->sm().release(b->kernel()->cfg);
  auto k = b->kernel();
  ++k->blocksDone;
  if (k->blocksDone == k->cfg.gridDim) {
    k->done = true;
    k->endTime = engine_->now();
    k->onDone.notifyAll(*engine_);
  }
  // Destruction is deferred: we are currently inside a lane coroutine of this
  // block, running inside its warp's segment. Reap once the stack unwinds.
  engine_->scheduleAfter(0, [this, b] {
    auto it = std::find_if(activeBlocks_.begin(), activeBlocks_.end(),
                           [b](const auto& p) { return p.get() == b; });
    AGILE_CHECK(it != activeBlocks_.end());
    activeBlocks_.erase(it);
    dispatchPending();
  });
}

// ----------------------------------------------------------- KernelCtx ----

KernelCtx::KernelCtx(Lane& lane, Block& block, std::uint32_t threadIdx)
    : lane_(&lane), block_(&block), threadIdx_(threadIdx) {}

// ------------------------------------------------------------- helpers ----

GpuTask<void> compute(KernelCtx& ctx, SimTime total, SimTime chunk) {
  AGILE_CHECK(chunk > 0);
  while (total > 0) {
    const SimTime step = std::min(total, chunk);
    ctx.charge(step);
    total -= step;
    co_await ctx.yield();
  }
}

GpuTask<std::uint32_t> warpBallot(KernelCtx& ctx, bool pred) {
  auto [mask, values] = co_await ctx.warpGather(pred ? 1 : 0);
  std::uint32_t result = 0;
  for (std::uint32_t i = 0; i < kWarpSize; ++i) {
    if ((mask & (1u << i)) != 0 && values[i] != 0) result |= 1u << i;
  }
  co_return result;
}

GpuTask<std::uint64_t> warpShfl(KernelCtx& ctx, std::uint64_t value,
                                std::uint32_t srcLane) {
  auto [mask, values] = co_await ctx.warpGather(value);
  AGILE_CHECK(srcLane < kWarpSize);
  if ((mask & (1u << srcLane)) == 0) co_return value;
  co_return values[srcLane];
}

GpuTask<std::uint32_t> warpMatchAny(KernelCtx& ctx, std::uint64_t value) {
  auto [mask, values] = co_await ctx.warpGather(value);
  std::uint32_t result = 0;
  for (std::uint32_t i = 0; i < kWarpSize; ++i) {
    if ((mask & (1u << i)) != 0 && values[i] == value) result |= 1u << i;
  }
  co_return result;
}

}  // namespace agile::gpu
