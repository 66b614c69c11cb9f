// Tests for the AGILE service (Algorithm 1): warp-centric window semantics,
// CQ doorbell cadence, phase-bit survival across ring laps, multi-warp CQ
// partitioning, lifecycle, and the pinned virtual schedule of the lockstep
// service warp (including multi-lap and fault-injected runs).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "core/ctrl.h"
#include "core/host.h"

namespace agile::core {
namespace {

struct ServiceFixture : ::testing::Test {
  std::unique_ptr<AgileHost> host;

  // End time of the last traffic() kernel.
  SimTime trafficEnd = 0;

  static HostConfig hostConfig(std::uint32_t qps, std::uint32_t depth,
                               std::uint32_t serviceWarps = 2) {
    HostConfig cfg;
    cfg.queuePairsPerSsd = qps;
    cfg.queueDepth = depth;
    cfg.service.warps = serviceWarps;
    return cfg;
  }

  static nvme::SsdConfig ssdConfig() {
    nvme::SsdConfig ssd;
    ssd.capacityLbas = 1u << 16;
    return ssd;
  }

  void build(const HostConfig& cfg, const nvme::SsdConfig& ssd) {
    host = std::make_unique<AgileHost>(cfg);
    host->addNvmeDev(ssd);
    host->initNvme();
    host->startAgile();
  }

  void build(std::uint32_t qps, std::uint32_t depth,
             std::uint32_t serviceWarps = 2, SimTime ioTimeoutNs = 0,
             SimTime readLatencyNs = 0) {
    HostConfig cfg = hostConfig(qps, depth, serviceWarps);
    cfg.ioTimeoutNs = ioTimeoutNs;
    nvme::SsdConfig ssd = ssdConfig();
    if (readLatencyNs != 0) ssd.readLatencyNs = readLatencyNs;
    build(cfg, ssd);
  }

  void TearDown() override {
    if (host && host->serviceRunning()) host->stopAgile();
  }

  // Let the service run a few poll rounds past the last app kernel (window
  // advance and CQ doorbells happen on the round after the final
  // completion is consumed).
  void settle() { idleFor(500_us); }

  // Launch a kernel whose first `n` threads each issue one read.
  gpu::KernelHandle launchTraffic(std::uint32_t n) {
    auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
    return host->launchKernel(
        {.gridDim = std::max(1u, n / 64), .blockDim = std::min(n, 64u),
         .name = "traffic"},
        [this, n, mem](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
          AgileLockChain chain;
          if (ctx.globalThreadIdx() >= n) co_return;
          AgileBuf tmp(mem);
          nvme::Sqe cmd;
          cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
          cmd.slba = ctx.globalThreadIdx() % 512;
          cmd.prp1 = host->gpu().hbm().physAddr(mem);
          Transaction txn;
          txn.kind = TxnKind::kBufRead;
          txn.buf = &tmp;
          tmp.barrier().addPending();
          const std::uint32_t qp =
              ctx.globalThreadIdx() % host->queuePairs().count();
          co_await issueCommand(ctx, *host->queuePairs().sqs[qp], cmd, txn,
                                chain);
          co_await barrierWait(ctx, tmp.barrier());
        });
  }

  // Issue `n` reads and wait for all of them.
  void traffic(std::uint32_t n) {
    const gpu::KernelHandle k = launchTraffic(n);
    ASSERT_TRUE(host->wait(k));
    trafficEnd = k->endTime;
  }

  // Run the engine `ns` past now.
  void idleFor(SimTime ns) {
    host->engine().runFor(host->engine().now() + ns);
  }
};

// --- per-command I/O watchdog (HostConfig::ioTimeoutNs) -------------------

// Healthy traffic with the watchdog armed: every command's timer is
// cancelled by its completion; nothing times out, and the timers ride the
// wheel's O(1) cancel path.
TEST_F(ServiceFixture, WatchdogCancelledOnCompletion) {
  build(2, 64, 2, /*ioTimeoutNs=*/100_ms);
  const std::uint64_t cancelledBefore = host->engine().cancelledEvents();
  traffic(128);
  settle();
  EXPECT_EQ(host->ioTimeouts(), 0u);
  EXPECT_EQ(host->service().stats().completions, 128u);
  // One armed-and-cancelled watchdog per command.
  EXPECT_GE(host->engine().cancelledEvents() - cancelledBefore, 128u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

// A command that exceeds the timeout has its transaction errored by the
// watchdog (the parked reader observes the failure) while the CID stays
// claimed; the device's late completion then reclaims the slot without
// settling the transaction twice.
TEST_F(ServiceFixture, WatchdogErrorsSlowCommand) {
  // 5 ms device latency vs a 500 us timeout: every command times out first.
  build(1, 64, 2, /*ioTimeoutNs=*/500_us, /*readLatencyNs=*/5_ms);
  auto* mem = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  bool readOk = true;
  const bool ok = host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "slow-read"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        AgileBuf tmp(mem);
        nvme::Sqe cmd;
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = 7;
        cmd.prp1 = host->gpu().hbm().physAddr(mem);
        Transaction txn;
        txn.kind = TxnKind::kBufRead;
        txn.buf = &tmp;
        tmp.barrier().addPending();
        co_await issueCommand(ctx, *host->queuePairs().sqs[0], cmd, txn,
                              chain);
        readOk = co_await barrierWait(ctx, tmp.barrier());
      });
  ASSERT_TRUE(ok);
  EXPECT_FALSE(readOk);  // errored by the watchdog, not the device
  EXPECT_EQ(host->ioTimeouts(), 1u);
  // The CID is still claimed until the device answers, but the caller was
  // already settled: the parked slot is sacrificed capacity, not pending
  // work (drainIo must not wedge on it if the answer never comes).
  EXPECT_EQ(host->ioHealth().parkedSlots, 1u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  // Let the real (late) completion land: the slot is reclaimed, the
  // transaction is not settled a second time.
  host->engine().runFor(host->engine().now() + 20_ms);
  EXPECT_EQ(host->ioHealth().parkedSlots, 0u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  EXPECT_EQ(host->ioTimeouts(), 1u);
}

// A timed-out cache fill errors the token early, but the frame stays BUSY
// (pinned: the device will still DMA into it) until the late completion
// settles the line with the real status — no recycled memory is ever a DMA
// target.
TEST_F(ServiceFixture, WatchdogErrorsCacheFill) {
  build(1, 64, 2, /*ioTimeoutNs=*/500_us, /*readLatencyNs=*/5_ms);
  DefaultCtrl ctrl(*host, CtrlConfig{.cacheLines = 8});
  IoToken token;
  bool waitOk = true;
  const bool ok = host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "slow-prefetch"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        token = co_await ctrl.submitPrefetch(ctx, 0, 3, chain);
        waitOk = co_await ctrl.wait(ctx, token);
      });
  ASSERT_TRUE(ok);
  EXPECT_FALSE(waitOk);  // token errored at the deadline
  EXPECT_EQ(host->ioTimeouts(), 1u);
  // The DMA target stays pinned until the device answers.
  EXPECT_EQ(ctrl.cache().busyLines(), 1u);
  host->engine().runFor(host->engine().now() + 20_ms);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  EXPECT_EQ(ctrl.cache().busyLines(), 0u);
  // The late completion settled the fill with the device's real status:
  // the page is cached and a demand read of it hits.
  EXPECT_NE(ctrl.cache().findLine(makeTag(0, 3)), DefaultCtrl::Cache::npos);
}

// A timed-out asyncWrite errors the caller's barrier early but keeps the
// staging page (the in-flight DMA source) out of the pool until the device
// answers, so no later write can be corrupted by the stale transfer.
TEST_F(ServiceFixture, WatchdogDefersStagingRecycleOnWriteTimeout) {
  build(1, 64, 2, /*ioTimeoutNs=*/500_us, /*readLatencyNs=*/5_ms);
  auto* payload = host->gpu().hbm().allocBytes(nvme::kLbaBytes);
  const std::size_t stagingBefore = host->staging().available();
  std::byte* staging = host->staging().tryGet();
  ASSERT_NE(staging, nullptr);
  AgileBuf buf(payload);
  const bool ok = host->runKernel(
      {.gridDim = 1, .blockDim = 1, .name = "slow-write"},
      [&](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        AgileLockChain chain;
        nvme::Sqe cmd;
        // A *read* opcode so the 5 ms latency applies, but carried by a
        // kBufWrite transaction — exercising exactly the staging-recycle
        // path under timeout.
        cmd.opcode = static_cast<std::uint8_t>(nvme::Opcode::kRead);
        cmd.slba = 9;
        cmd.prp1 = host->gpu().hbm().physAddr(staging);
        Transaction txn;
        txn.kind = TxnKind::kBufWrite;
        txn.staging = staging;
        txn.stagingPool = &host->staging();
        txn.barrier = &buf.barrier();
        buf.barrier().addPending();
        co_await issueCommand(ctx, *host->queuePairs().sqs[0], cmd, txn,
                              chain);
        (void)co_await barrierWait(ctx, buf.barrier());
      });
  ASSERT_TRUE(ok);
  EXPECT_EQ(host->ioTimeouts(), 1u);
  EXPECT_TRUE(buf.barrier().failed());
  // Deadline passed, but the staging page is still pinned by the in-flight
  // DMA — not yet back in the pool.
  EXPECT_EQ(host->staging().available(), stagingBefore - 1);
  host->engine().runFor(host->engine().now() + 20_ms);
  // The late completion recycled it.
  EXPECT_EQ(host->staging().available(), stagingBefore);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

TEST_F(ServiceFixture, ProcessesAllCompletions) {
  build(2, 64);
  traffic(256);
  EXPECT_EQ(host->service().stats().completions, 256u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

TEST_F(ServiceFixture, SnapshotAndResetStats) {
  build(2, 64);
  traffic(64);
  const ServiceStats snap = host->service().snapshot();
  EXPECT_EQ(snap.completions, 64u);
  EXPECT_GT(snap.pollRounds, 0u);
  host->service().resetStats();
  EXPECT_EQ(host->service().stats().completions, 0u);
  // The snapshot is an independent copy; a second traffic window measures
  // only its own completions.
  traffic(32);
  EXPECT_EQ(host->service().stats().completions, 32u);
  EXPECT_EQ(snap.completions, 64u);
}

TEST_F(ServiceFixture, WindowsAdvanceOnlyWhenFull) {
  build(1, 64);  // window = 32
  // 16 completions: fewer than one window — resources released but the
  // window must NOT advance (and no CQ doorbell written).
  traffic(16);
  settle();
  EXPECT_EQ(host->service().stats().completions, 16u);
  EXPECT_EQ(host->service().stats().windowsAdvanced, 0u);
  EXPECT_EQ(host->queuePairs().cqs[0]->mask, 0xFFFFu);
  // 16 more fill the window: it advances and the doorbell is rung.
  traffic(16);
  settle();
  EXPECT_EQ(host->service().stats().windowsAdvanced, 1u);
  EXPECT_GE(host->service().stats().cqDoorbells, 1u);
  EXPECT_EQ(host->queuePairs().cqs[0]->offset, 32u);
  EXPECT_EQ(host->queuePairs().cqs[0]->mask, 0u);
}

TEST_F(ServiceFixture, PhaseFlipsAcrossLaps) {
  build(1, 64);
  AgileCq& cq = *host->queuePairs().cqs[0];
  EXPECT_TRUE(cq.phase);
  traffic(64);  // exactly one CQ lap
  settle();
  EXPECT_EQ(cq.offset, 0u);
  EXPECT_FALSE(cq.phase);  // lap completed, phase flipped
  traffic(64);  // second lap
  settle();
  EXPECT_TRUE(cq.phase);
  EXPECT_EQ(host->service().stats().completions, 128u);
}

TEST_F(ServiceFixture, ManyLapsNoLostCompletions) {
  build(2, 32);  // window = 16
  for (int round = 0; round < 5; ++round) traffic(128);
  EXPECT_EQ(host->service().stats().completions, 640u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
}

TEST_F(ServiceFixture, WarpsPartitionCqs) {
  build(4, 64, /*serviceWarps=*/2);
  traffic(256);
  // All four CQs drained even though each service warp owns only half.
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(host->queuePairs().sqs[i]->inFlight(), 0u) << i;
  }
  EXPECT_EQ(host->service().stats().completions, 256u);
}

TEST_F(ServiceFixture, SingleWarpHandlesEverything) {
  build(4, 64, /*serviceWarps=*/1);
  traffic(256);
  EXPECT_EQ(host->service().stats().completions, 256u);
}

TEST_F(ServiceFixture, IdleServiceSkipsQuietQueues) {
  build(4, 64);
  // Let the service spin a while with zero traffic: the fast-skip path must
  // keep full window polls (pollRounds) near zero.
  host->engine().runFor(host->engine().now() + 2_ms);
  EXPECT_EQ(host->service().stats().completions, 0u);
  EXPECT_LE(host->service().stats().pollRounds, 8u);
}

TEST_F(ServiceFixture, StopQuiescesPromptly) {
  build(2, 64);
  traffic(64);
  host->stopAgile();
  EXPECT_FALSE(host->serviceRunning());
  // Restarting works.
  host->startAgile();
  traffic(64);
  EXPECT_EQ(host->service().stats().completions, 64u);
}

TEST_F(ServiceFixture, ServiceRegistersMatchPaper) {
  build(1, 64);
  EXPECT_EQ(host->service().launchConfig(false).regsPerThread, 37u);
}

// --- pinned service schedule ----------------------------------------------
//
// The service warp runs as one lockstep coroutine that charges each segment
// the SIMT max over its lanes (core/service.h). The values below were
// recorded from the earlier one-coroutine-per-lane service, so they pin the
// exact virtual schedule across that change: the traffic kernel's end time,
// the service counters, and the service SM's segment count and busy time.

struct ServiceSchedule {
  SimTime trafficEnd;
  std::uint64_t pollRounds;
  std::uint64_t completions;
  std::uint64_t cqDoorbells;
  std::uint64_t smSegments;
  SimTime smBusyNs;
};

// The service block is the first launch, so it lands on SM 0 whether or
// not that SM is reserved for it.
void expectSchedule(ServiceFixture& f, const ServiceSchedule& want) {
  const ServiceStats& st = f.host->service().stats();
  const gpu::Sm& sm = f.host->gpu().sm(0);
  EXPECT_EQ(f.trafficEnd, want.trafficEnd);
  EXPECT_EQ(st.pollRounds, want.pollRounds);
  EXPECT_EQ(st.completions, want.completions);
  EXPECT_EQ(st.cqDoorbells, want.cqDoorbells);
  EXPECT_EQ(sm.segments(), want.smSegments);
  EXPECT_EQ(sm.busyNs(), want.smBusyNs);
}

// Depth 32: a 16-lane window, so lanes 16..31 check no slot.
TEST_F(ServiceFixture, ScheduleHalfWindow) {
  build(2, 32);
  traffic(512);
  settle();
  expectSchedule(*this, {607668, 1271, 512, 32, 3047, 86300});
}

// One queue pair, one service warp: every doorbell lands in the segment
// that ends the warp's pass and starts its backoff.
TEST_F(ServiceFixture, ScheduleSingleQpSingleWarp) {
  build(1, 64, /*serviceWarps=*/1);
  traffic(256);
  settle();
  expectSchedule(*this, {330762, 418, 256, 8, 1088, 32048});
}

// A service polling slower than the device completes fills the CQ before
// the window advances, so completions wait in the device's backpressure
// queue and the CQ doorbell itself posts them (tryPost).
TEST_F(ServiceFixture, ScheduleCqBackpressure) {
  HostConfig cfg = hostConfig(1, 32, /*serviceWarps=*/1);
  cfg.service.idleBackoffMin = 4_us;
  cfg.service.idleBackoffMax = 4_us;
  nvme::SsdConfig ssd = ssdConfig();
  ssd.readLatencyNs = 2_us;
  ssd.readIops = 1e9;
  ssd.iopsBurst = 64;
  build(cfg, ssd);
  // Sample the device-side backlog while the traffic runs.
  std::size_t maxBackpressured = 0;
  bool sampling = true;
  std::function<void()> sample = [&] {
    maxBackpressured = std::max(
        maxBackpressured, host->ssd(0).queuePair(1).backpressured.size());
    if (sampling) host->engine().scheduleAfter(50, [&] { sample(); });
  };
  sample();
  traffic(512);
  sampling = false;
  settle();
  EXPECT_GT(maxBackpressured, 0u);
  expectSchedule(*this, {135136, 33, 512, 32, 191, 5634});
}

// Without a reserved SM the service warp shares SM 0 with user warps, so
// its segments interleave with theirs in the SM's ready queue.
TEST_F(ServiceFixture, ScheduleSharedSm) {
  HostConfig cfg = hostConfig(4, 64);
  cfg.reserveServiceSm = false;
  build(cfg, ssdConfig());
  traffic(1024);
  settle();
  expectSchedule(*this, {1161803, 5128, 1024, 32, 8406, 295511});
}

// Fifteen laps of a depth-32 ring through one 16-lane window, in batches
// that end mid-window: later scans start past a consumed prefix, and the
// phase flips on each lap.
TEST_F(ServiceFixture, ScheduleMultiLapHalfWindow) {
  build(1, 32, /*serviceWarps=*/1);
  AgileCq& cq = *host->queuePairs().cqs[0];
  ASSERT_EQ(cq.windowLanes, 16u);
  for (std::uint32_t n : {40u, 192u, 40u, 192u, 40u}) traffic(n);
  settle();
  // 504 completions: 15 laps of 32, one full window and 8 lanes of the next.
  EXPECT_EQ(cq.offset, 16u);
  EXPECT_EQ(cq.mask, 0xFFu);
  EXPECT_FALSE(cq.phase);  // an odd number of laps
  expectSchedule(*this, {1299158, 1364, 504, 31, 2729, 80608});
}

// Injected faults: swallowed completions (recovered by the watchdog and
// the retry tier's abort-and-reissue) and transient read errors (reissued
// after backoff). Dropped and aborted commands never post a CQE, so the
// ring stays in order for the service.
TEST_F(ServiceFixture, ScheduleFaultPlanRetries) {
  HostConfig cfg = hostConfig(2, 32);
  cfg.ioTimeoutNs = 200_us;
  cfg.retry.maxAttempts = 6;
  cfg.retry.backoffBaseNs = 10'000;
  cfg.retry.quarantineAfter = 0;
  nvme::SsdConfig ssd = ssdConfig();
  ssd.fault.enabled = true;
  ssd.fault.seed = 7;
  ssd.fault.dropRate = 0.05;
  ssd.fault.readErrorRate = 0.1;
  build(cfg, ssd);
  traffic(256);
  settle();
  const IoHealthStats h = host->ioHealth();
  EXPECT_GT(h.retries, 0u);
  EXPECT_GT(host->ssd(0).droppedCompletions(), 0u);
  EXPECT_GT(host->ssd(0).injectedErrors(), 0u);
  EXPECT_EQ(host->pendingTransactions(), 0u);
  expectSchedule(*this, {1246152, 2125, 289, 17, 4251, 107492});
}

// --- idle fast-forward -----------------------------------------------------
//
// An idle service warp replays its own and its sleeping peers' next idle
// passes up to the next event that is not a service timer (core/service.h
// "Idle fast-forward"). The values below were recorded before that change
// existed, so they hold the replay to the exact schedule across long idle
// stretches, run deadlines, stops and kernel timeouts. `trafficEnd` pins
// whatever time each case names.

// Bursts of slow reads separated by long idle gaps, with 1, 2 and 4
// service warps over 8 queue pairs. In-flight reads keep pairs scanned, so
// passes run several segments; the warps' backoffs settle on one period at
// different phases, so their passes run close together on the SM.
void idleStretches(ServiceFixture& f, std::uint32_t warps) {
  nvme::SsdConfig ssd = ServiceFixture::ssdConfig();
  ssd.readLatencyNs = 150_us;
  f.build(ServiceFixture::hostConfig(8, 64, warps), ssd);
  for (std::uint32_t n : {24u, 64u, 8u}) {
    f.traffic(n);
    f.idleFor(3_ms + 777);
  }
}

TEST_F(ServiceFixture, ScheduleIdleStretchesOneWarp) {
  idleStretches(*this, 1);
  expectSchedule(*this, {6538836, 33400, 96, 0, 37576, 1358162});
}

TEST_F(ServiceFixture, ScheduleIdleStretchesTwoWarps) {
  idleStretches(*this, 2);
  expectSchedule(*this, {6536686, 35756, 96, 0, 44696, 1471542});
}

TEST_F(ServiceFixture, ScheduleIdleStretchesFourWarps) {
  idleStretches(*this, 4);
  expectSchedule(*this, {6537672, 36960, 96, 0, 55441, 1557560});
}

// Sixteen queue pairs per warp, reads on four of them: every pass is
// mostly per-pair state checks, split into segments by the scans.
TEST_F(ServiceFixture, ScheduleSkipOnlyWide) {
  build(32, 32);
  idleFor(2_ms);
  expectSchedule(*this, {0, 0, 0, 0, 2004, 264528});
  traffic(4);
  idleFor(2_ms + 5);
  expectSchedule(*this, {2062530, 3972, 4, 0, 7962, 654016});
}

// A runFor deadline inside an idle stretch with reads in flight: the
// counters at return are the schedule's at the deadline, nothing replayed
// past it.
TEST_F(ServiceFixture, ScheduleRunForDeadlineMidIdle) {
  build(4, 64, 2, 0, /*readLatencyNs=*/400_us);
  const gpu::KernelHandle k = launchTraffic(64);
  idleFor(123'457);
  trafficEnd = host->engine().now();
  expectSchedule(*this, {123457, 242, 0, 0, 364, 10184});
  ASSERT_TRUE(host->wait(k));
  trafficEnd = k->endTime;
  expectSchedule(*this, {460682, 1034, 64, 0, 1551, 46634});
}

// Stopping after a long idle run: the warps wake on their replayed
// timers, see the stop and retire. `trafficEnd` pins the stop time.
TEST_F(ServiceFixture, ScheduleStopAfterLongIdle) {
  build(2, 64);
  traffic(64);
  idleFor(5_ms + 3);
  host->stopAgile();
  trafficEnd = host->engine().now();
  expectSchedule(*this, {5125208, 201, 64, 2, 5408, 71674});
}

// host->wait gives up on a sleeping kernel while the service idles: the
// first event past the deadline still runs, as with the deadline tested
// in the predicate. Then the kernel finishes.
TEST_F(ServiceFixture, ScheduleKernelTimeoutWhileIdle) {
  HostConfig cfg = hostConfig(2, 64);
  cfg.kernelTimeout = 1_ms;
  build(cfg, ssdConfig());
  traffic(32);
  const gpu::KernelHandle k = host->launchKernel(
      {.gridDim = 1, .blockDim = 1, .name = "sleeper"},
      [](gpu::KernelCtx& ctx) -> gpu::GpuTask<void> {
        co_await ctx.backoff(3_ms);
      });
  EXPECT_FALSE(host->wait(k));
  trafficEnd = host->engine().now();
  expectSchedule(*this, {1087780, 1102, 32, 0, 2205, 49660});
  idleFor(2_ms + 11);
  ASSERT_TRUE(k->done);
  trafficEnd = k->endTime;
  expectSchedule(*this, {3086058, 3064, 32, 0, 6129, 135988});
}

// With nothing else pending, an idle stretch costs a handful of engine
// events instead of about three per pass per warp: the first idle pass
// replays the rest up to the runFor deadline. Each pair's window is half
// consumed (16 of 32 lanes), so the replayed passes scan windows too.
TEST_F(ServiceFixture, IdleRunForEventBudget) {
  build(4, 64);
  traffic(64);
  settle();
  const std::uint64_t before = host->engine().executedEvents();
  const std::uint64_t rounds = host->service().stats().pollRounds;
  idleFor(10_ms);
  EXPECT_LT(host->engine().executedEvents() - before, 64u);
  EXPECT_GT(host->service().stats().pollRounds - rounds, 10'000u);
}

}  // namespace
}  // namespace agile::core
