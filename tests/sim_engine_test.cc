// Unit tests for the DES engine, wait lists, token bucket, and sweep runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <vector>

#include "sim/engine.h"
#include "sim/sweep.h"
#include "sim/token_bucket.h"

namespace agile::sim {
namespace {

TEST(EngineTest, EventsFireInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.scheduleAt(30, [&] { order.push_back(3); });
  eng.scheduleAt(10, [&] { order.push_back(1); });
  eng.scheduleAt(20, [&] { order.push_back(2); });
  eng.runToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), 30);
}

TEST(EngineTest, TiesBreakInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.scheduleAt(5, [&order, i] { order.push_back(i); });
  }
  eng.runToCompletion();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(EngineTest, NestedScheduling) {
  Engine eng;
  int fired = 0;
  eng.scheduleAt(1, [&] {
    eng.scheduleAfter(5, [&] { fired = 2; });
    fired = 1;
  });
  eng.runToCompletion();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), 6);
}

TEST(EngineTest, RunUntilStopsEarly) {
  Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    eng.scheduleAt(i, [&] { ++count; });
  }
  bool ok = eng.runUntil([&] { return count == 4; });
  EXPECT_TRUE(ok);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(eng.now(), 4);
}

TEST(EngineTest, RunUntilReturnsFalseOnDrain) {
  Engine eng;
  eng.scheduleAt(1, [] {});
  bool ok = eng.runUntil([] { return false; });
  EXPECT_FALSE(ok);
}

TEST(EngineTest, RunForLeavesLaterEventsQueued) {
  Engine eng;
  int fired = 0;
  eng.scheduleAt(10, [&] { ++fired; });
  eng.scheduleAt(100, [&] { ++fired; });
  eng.runFor(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 50);
  EXPECT_EQ(eng.pendingEvents(), 1u);
  eng.runToCompletion();
  EXPECT_EQ(fired, 2);
}

TEST(EngineTest, ExecutedEventCount) {
  Engine eng;
  for (int i = 0; i < 5; ++i) eng.scheduleAt(i + 1, [] {});
  eng.runToCompletion();
  EXPECT_EQ(eng.executedEvents(), 5u);
}

TEST(WaitListTest, NotifyAllWakesEveryone) {
  Engine eng;
  WaitList wl;
  int woken = 0;
  eng.scheduleAt(1, [&] {
    wl.park([&] { ++woken; });
    wl.park([&] { ++woken; });
    wl.park([&] { ++woken; });
  });
  eng.scheduleAt(2, [&] { wl.notifyAll(eng); });
  eng.runToCompletion();
  EXPECT_EQ(woken, 3);
  EXPECT_TRUE(wl.empty());
}

TEST(WaitListTest, NotifyOneIsFifo) {
  Engine eng;
  WaitList wl;
  std::vector<int> order;
  eng.scheduleAt(1, [&] {
    wl.park([&] { order.push_back(1); });
    wl.park([&] { order.push_back(2); });
  });
  eng.scheduleAt(2, [&] { wl.notifyOne(eng); });
  eng.runToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(wl.size(), 1u);
}

TEST(WaitListTest, NotifyEmptyIsNoop) {
  Engine eng;
  WaitList wl;
  wl.notifyAll(eng);
  wl.notifyOne(eng);
  eng.runToCompletion();
  EXPECT_TRUE(wl.empty());
}

// --- regression tests for the slab/ready-queue engine rebuild ------------

// Same-timestamp events must fire in schedule order regardless of whether
// they were routed through the ready queue (t == now / zero delay) or the
// heap (scheduled for the future and reached later).
TEST(EngineTest, ReadyQueueAndHeapMergeInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  // A and B land on the heap for t=10 (seqs 0, 1).
  eng.scheduleAt(10, [&] {
    order.push_back(0);
    // From inside t=10: C via zero delay (ready queue), D via absolute
    // scheduleAt(now) (also ready queue), E back on the heap for t=10 is
    // impossible — but B (earlier seq) must still fire before C and D.
    eng.scheduleAfter(0, [&] { order.push_back(2); });
    eng.scheduleAt(10, [&] { order.push_back(3); });
  });
  eng.scheduleAt(10, [&] { order.push_back(1); });
  eng.runToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(eng.now(), 10);
}

// Zero-delay cascades interleave with heap events at the same timestamp in
// strict sequence order.
TEST(EngineTest, ZeroDelayDoesNotStarveSameTimeHeapEvents) {
  Engine eng;
  std::vector<int> order;
  eng.scheduleAt(5, [&] {
    order.push_back(1);
    eng.scheduleAfter(0, [&] { order.push_back(3); });
  });
  eng.scheduleAt(5, [&] { order.push_back(2); });
  eng.scheduleAt(6, [&] { order.push_back(4); });
  eng.runToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// runFor boundary semantics: events exactly at the deadline fire, events one
// tick later stay queued, and the clock lands exactly on the deadline.
TEST(EngineTest, RunForDeadlineBoundary) {
  Engine eng;
  std::vector<int> fired;
  eng.scheduleAt(50, [&] {
    fired.push_back(1);
    // Zero-delay follow-up at the deadline itself must also run.
    eng.scheduleAfter(0, [&] { fired.push_back(2); });
  });
  eng.scheduleAt(51, [&] { fired.push_back(3); });
  eng.runFor(50);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), 50);
  EXPECT_EQ(eng.pendingEvents(), 1u);
  eng.runToCompletion();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

// runFor with a deadline in the past runs nothing and does not move time
// backwards.
TEST(EngineTest, RunForPastDeadlineIsNoop) {
  Engine eng;
  int fired = 0;
  eng.scheduleAt(10, [&] { ++fired; });
  eng.runFor(20);
  EXPECT_EQ(eng.now(), 20);
  eng.scheduleAt(30, [&] { ++fired; });
  eng.runFor(5);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 20);
  EXPECT_EQ(eng.pendingEvents(), 1u);
}

// Slab recycling: a long zero-delay chain with a small working set must not
// grow the slab beyond one chunk, and idle()/pendingEvents() must track the
// ready queue as well as the heap.
TEST(EngineTest, SlabNodesRecycleThroughFreeList) {
  Engine eng;
  std::uint64_t remaining = 100'000;
  std::function<void()> tick = [&] {
    if (remaining-- > 0) eng.scheduleAfter(0, tick);
  };
  eng.scheduleAfter(0, tick);
  EXPECT_FALSE(eng.idle());
  EXPECT_EQ(eng.pendingEvents(), 1u);
  eng.runToCompletion();
  EXPECT_TRUE(eng.idle());
  EXPECT_EQ(eng.executedEvents(), 100'001u);
  EXPECT_EQ(eng.slabChunks(), 1u);
  EXPECT_EQ(eng.readyPathEvents(), 100'001u);
}

// Callbacks that never fire (engine destroyed with events pending, in both
// the heap and the ready queue) must still be destroyed.
TEST(EngineTest, DestructorReleasesPendingCallbacks) {
  auto token = std::make_shared<int>(42);
  {
    Engine eng;
    bool parentFired = false;
    eng.scheduleAt(10, [keep = token] {});
    eng.scheduleAt(5, [&eng, &parentFired, keep = token] {
      parentFired = true;
      eng.scheduleAfter(0, [inner = keep] {});
    });
    // Stop right after the t=5 parent: its zero-delay child is still in the
    // ready queue, the t=10 event still in the heap.
    eng.runUntil([&] { return parentFired; });
    EXPECT_EQ(eng.pendingEvents(), 2u);
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// Callables wider than the inline payload take the boxed fallback and still
// run (and destroy) correctly.
TEST(EngineTest, OversizedCallbacksFallBackToBoxing) {
  Engine eng;
  std::array<std::uint64_t, 16> big{};  // 128 bytes > kInlineCallbackBytes
  big[15] = 7;
  std::uint64_t seen = 0;
  eng.scheduleAfter(3, [big, &seen] { seen = big[15]; });
  auto token = std::make_shared<int>(1);
  eng.scheduleAt(10, [big, keep = token] {});  // destroyed unfired
  eng.runFor(5);
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(token.use_count(), 2);
}

TEST(WaitListTest, NotifyOneFifoUnderReparking) {
  Engine eng;
  WaitList wl;
  std::vector<int> order;
  std::function<void()> w1 = [&] {
    order.push_back(1);
    wl.park(w1);  // immediately re-park at the tail
  };
  eng.scheduleAt(1, [&] {
    wl.park(w1);
    wl.park([&] { order.push_back(2); });
  });
  eng.scheduleAt(2, [&] { wl.notifyOne(eng); });  // wakes 1, which re-parks
  eng.scheduleAt(3, [&] { wl.notifyOne(eng); });  // must wake 2, not 1 again
  eng.scheduleAt(4, [&] { wl.notifyOne(eng); });  // 1 again (now at head)
  eng.runToCompletion();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1}));
  EXPECT_EQ(wl.size(), 1u);  // the re-parked 1
}

// Intrusive parking: an embedded WaitNode round-trips with no allocation and
// fires through the engine like a callable waiter.
TEST(WaitListTest, IntrusiveNodeParkAndFire) {
  struct Counter : WaitNode {
    int fired = 0;
  };
  Engine eng;
  WaitList wl;
  Counter a, b;
  a.fire = b.fire = [](WaitNode* n) { ++static_cast<Counter*>(n)->fired; };
  wl.park(a);
  wl.park(b);
  EXPECT_EQ(wl.size(), 2u);
  wl.notifyOne(eng);
  eng.runToCompletion();
  EXPECT_EQ(a.fired, 1);
  EXPECT_EQ(b.fired, 0);
  wl.notifyAll(eng);
  eng.runToCompletion();
  EXPECT_EQ(b.fired, 1);
  EXPECT_TRUE(wl.empty());
}

// Destroying a WaitList with callable waiters still parked must release
// them (the drop hook).
TEST(WaitListTest, DestructionDropsParkedWaiters) {
  auto token = std::make_shared<int>(0);
  {
    WaitList wl;
    wl.park([keep = token] {});
    wl.park([keep = token] {});
    EXPECT_EQ(token.use_count(), 3);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// A waiter that was notified (popped off the list, wake event queued) but
// whose wake never ran because the engine was torn down must still be
// released through its drop hook.
TEST(WaitListTest, NotifiedButUnfiredWaiterReleasedAtTeardown) {
  auto token = std::make_shared<int>(0);
  {
    Engine eng;
    WaitList wl;
    wl.park([keep = token] {});
    wl.notifyOne(eng);  // off the list, queued as an engine event
    EXPECT_TRUE(wl.empty());
    EXPECT_EQ(token.use_count(), 2);
  }  // engine destroyed without running the wake
  EXPECT_EQ(token.use_count(), 1);
}

// A waiter woken by notifyAll re-parking itself lands on the *next* notify
// round, not the current one (no livelock).
TEST(WaitListTest, NotifyAllReparkersWaitForNextRound) {
  Engine eng;
  WaitList wl;
  int wakes = 0;
  std::function<void()> again = [&] {
    ++wakes;
    wl.park(again);
  };
  eng.scheduleAt(1, [&] { wl.park(again); });
  eng.scheduleAt(2, [&] { wl.notifyAll(eng); });
  eng.scheduleAt(3, [&] { wl.notifyAll(eng); });
  eng.runToCompletion();
  EXPECT_EQ(wakes, 2);
  EXPECT_EQ(wl.size(), 1u);
}

// --- timer-wheel regression tests ----------------------------------------

// Events on exact bucket and level boundaries (slot edges, level spans,
// the wheel horizon) fire in (time, seq) order with exact timestamps.
TEST(EngineTest, WheelBucketBoundaryEvents) {
  Engine eng;
  const SimTime slot = SimTime{1} << Engine::kWheelBits;           // level-0 span
  const SimTime level1 = SimTime{1} << (2 * Engine::kWheelBits);   // level-1 span
  const SimTime horizon = SimTime{1} << Engine::kWheelHorizonBits;
  const std::vector<SimTime> times = {
      1,          slot - 1,   slot,       slot + 1,    level1 - 1,
      level1,     level1 + 1, horizon - 1, horizon,    horizon + 1,
      2 * horizon};
  std::vector<SimTime> fired;
  // Schedule in shuffled order; must fire in time order.
  for (std::size_t i = 0; i < times.size(); ++i) {
    const SimTime t = times[(i * 7) % times.size()];
    eng.scheduleAt(t, [&fired, &eng] { fired.push_back(eng.now()); });
  }
  eng.runToCompletion();
  ASSERT_EQ(fired.size(), times.size());
  std::vector<SimTime> want = times;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(fired, want);
}

// A cascade at level rollover must preserve both firing times and the seq
// tie-break for events that land on the same tick from different levels.
TEST(EngineTest, CascadeAtLevelRolloverKeepsOrder) {
  Engine eng;
  const SimTime slot = SimTime{1} << Engine::kWheelBits;
  std::vector<int> order;
  // A sits one level up (beyond the level-0 span); B fires first, then
  // schedules C for A's exact timestamp. A (older seq) must beat C.
  eng.scheduleAt(2 * slot + 5, [&] { order.push_back(1); });  // seq 0
  eng.scheduleAt(3, [&] {                                     // seq 1
    order.push_back(0);
    eng.scheduleAt(2 * slot + 5, [&] { order.push_back(2); });
  });
  eng.runToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.now(), 2 * slot + 5);
}

// cancel() semantics: pending events die exactly once, fired events and
// recycled handles are safe no-ops, and a reused slab node does not honor
// a stale handle (generation check).
TEST(EngineTest, CancelThenRescheduleReusesNodeSafely) {
  Engine eng;
  int fired = 0;
  TimerId a = eng.scheduleAt(10, [&] { ++fired; });
  EXPECT_TRUE(static_cast<bool>(a));
  EXPECT_EQ(eng.pendingEvents(), 1u);
  EXPECT_TRUE(eng.cancel(a));
  EXPECT_FALSE(eng.cancel(a));  // double cancel
  EXPECT_EQ(eng.pendingEvents(), 0u);
  EXPECT_TRUE(eng.idle());
  // The cancelled wheel node is recycled immediately; the next schedule
  // reuses it. The stale handle must not kill the new event.
  TimerId b = eng.scheduleAt(20, [&] { ++fired; });
  EXPECT_FALSE(eng.cancel(a));
  eng.runToCompletion();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(eng.cancel(b));  // already fired
  EXPECT_EQ(eng.cancelledEvents(), 1u);
}

// Cancelling ready-queue and overflow-heap events (the lazily reclaimed
// locations) releases their callbacks and never fires them.
TEST(EngineTest, CancelReadyAndOverflowEvents) {
  auto token = std::make_shared<int>(0);
  Engine eng;
  const SimTime horizon = SimTime{1} << Engine::kWheelHorizonBits;
  int fired = 0;
  TimerId ready = eng.scheduleNow([&fired, keep = token] { ++fired; });
  TimerId far = eng.scheduleAt(2 * horizon, [&fired, keep = token] { ++fired; });
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_TRUE(eng.cancel(ready));
  EXPECT_TRUE(eng.cancel(far));
  EXPECT_EQ(token.use_count(), 1);  // callbacks destroyed at cancel time
  EXPECT_TRUE(eng.idle());
  eng.scheduleAt(5, [&fired] { ++fired; });
  eng.runToCompletion();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 5);
}

// Overflow-heap handoff: events beyond the wheel horizon migrate into the
// wheel when the clock enters their epoch and interleave correctly with
// near-future events scheduled later.
TEST(EngineTest, OverflowHeapHandoff) {
  Engine eng;
  const SimTime horizon = SimTime{1} << Engine::kWheelHorizonBits;
  std::vector<int> order;
  eng.scheduleAt(3 * horizon + 7, [&] { order.push_back(3); });
  eng.scheduleAt(horizon + 1, [&] {
    order.push_back(1);
    // Near-future event in the new epoch, earlier than the far one.
    eng.scheduleAfter(5, [&] { order.push_back(2); });
  });
  eng.scheduleAt(2, [&] { order.push_back(0); });
  EXPECT_EQ(eng.pendingEvents(), 3u);
  eng.runToCompletion();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(eng.now(), 3 * horizon + 7);
}

// Batched epoch migration: a large overflow population spanning several
// epochs — with interleaved cancellations — must fire in exact (time, seq)
// order. Exercises the O(N) partition path of migrateOverflow (many entries
// of one epoch migrate at once) and the fast peek path between epochs.
TEST(EngineTest, OverflowBatchMigrationKeepsOrder) {
  Engine eng;
  const SimTime horizon = SimTime{1} << Engine::kWheelHorizonBits;
  std::vector<std::uint32_t> order;
  std::vector<TimerId> ids;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::vector<std::pair<SimTime, std::uint32_t>> expected;
  for (std::uint32_t i = 0; i < 600; ++i) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    // Epochs 1..3, pseudorandom offset inside the epoch.
    const SimTime t = (1 + (rng >> 33) % 3) * horizon +
                      static_cast<SimTime>((rng >> 8) % horizon);
    ids.push_back(eng.scheduleAt(t, [&order, i] { order.push_back(i); }));
    expected.emplace_back(t, i);
  }
  // Cancel every fifth timer while it still sits in the overflow heap.
  for (std::uint32_t i = 0; i < 600; i += 5) {
    EXPECT_TRUE(eng.cancel(ids[i]));
    expected[i].second = ~0u;  // tombstone
  }
  eng.runToCompletion();
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<std::uint32_t> want;
  for (const auto& [t, i] : expected) {
    if (i != ~0u) want.push_back(i);
  }
  EXPECT_EQ(order, want);
}

// runFor must not fire wheel/overflow events past the deadline even when
// the deadline sits inside an otherwise-empty stretch of the wheel.
TEST(EngineTest, RunForStopsInsideWheelGaps) {
  Engine eng;
  const SimTime slot = SimTime{1} << Engine::kWheelBits;
  const SimTime horizon = SimTime{1} << Engine::kWheelHorizonBits;
  int fired = 0;
  eng.scheduleAt(2, [&] { ++fired; });
  eng.scheduleAt(3 * slot, [&] { ++fired; });
  eng.scheduleAt(horizon + 9, [&] { ++fired; });
  eng.runFor(slot);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), slot);
  EXPECT_EQ(eng.pendingEvents(), 2u);
  eng.runFor(horizon);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(eng.now(), horizon);
  eng.runToCompletion();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(eng.now(), horizon + 9);
}

// Destroying the engine with events parked in every structure (ready,
// wheel, overflow) still releases all callbacks.
TEST(EngineTest, DestructorReleasesWheelAndOverflowCallbacks) {
  auto token = std::make_shared<int>(0);
  {
    Engine eng;
    const SimTime horizon = SimTime{1} << Engine::kWheelHorizonBits;
    eng.scheduleNow([keep = token] {});
    eng.scheduleAt(100, [keep = token] {});
    eng.scheduleAt(5 * horizon, [keep = token] {});
    EXPECT_EQ(token.use_count(), 4);
  }
  EXPECT_EQ(token.use_count(), 1);
}

// Randomized cross-check: the wheel engine's execution order must match a
// straightforward (time, seq) priority-queue reference on a trace mixing
// every delay magnitude, zero-delay events, and cancellations.
TEST(EngineTest, RandomizedTraceMatchesReferenceOrder) {
  // Reference: lazy-cancel binary heap over (time, seq).
  struct RefEngine {
    struct Ev {
      SimTime time;
      std::uint64_t seq;
      std::function<void()> fn;
      bool operator<(const Ev& o) const {  // reversed for min-top
        return time != o.time ? time > o.time : seq > o.seq;
      }
    };
    SimTime now = 0;
    std::uint64_t nextSeq = 0;
    std::priority_queue<Ev> q;
    std::set<std::uint64_t> live, dead;
    std::uint64_t schedule(SimTime t, std::function<void()> fn) {
      const std::uint64_t s = nextSeq++;
      live.insert(s);
      q.push(Ev{t, s, std::move(fn)});
      return s;
    }
    bool cancel(std::uint64_t s) {
      if (live.erase(s) == 0) return false;
      dead.insert(s);
      return true;
    }
    void run() {
      while (!q.empty()) {
        Ev ev = std::move(const_cast<Ev&>(q.top()));
        q.pop();
        if (dead.erase(ev.seq) != 0) continue;
        live.erase(ev.seq);
        now = ev.time;
        ev.fn();
      }
    }
  };

  const int kOps = 4000;
  std::uint64_t rng = 12345;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 16;
  };
  auto delayFor = [](std::uint64_t r) {
    // Mix of magnitudes: zero-delay, sub-slot, cross-level, past-horizon.
    const unsigned exp = static_cast<unsigned>(r % 36);
    return static_cast<SimTime>((std::uint64_t{1} << exp) % (1ull << 35)) +
           static_cast<SimTime>((r >> 8) % 3);
  };

  std::vector<std::uint64_t> wheelTrace, refTrace;
  {
    Engine eng;
    std::vector<TimerId> handles;
    std::uint64_t localRng = rng;
    std::uint64_t id = 0;
    std::function<void()> op = [&] {
      wheelTrace.push_back(id);
      const std::uint64_t r =
          (localRng = localRng * 6364136223846793005ull + 1442695040888963407ull) >> 16;
      if (id++ < kOps) {
        if (r % 5 == 0 && !handles.empty()) {
          const bool hit = eng.cancel(handles[r % handles.size()]);
          wheelTrace.push_back(hit ? 1u : 2u);
        }
        handles.push_back(eng.scheduleAfter(delayFor(r), op));
        handles.push_back(eng.scheduleAfter(delayFor(r >> 3), op));
        if (handles.size() > 64) handles.erase(handles.begin());
      }
    };
    eng.scheduleNow(op);
    eng.runToCompletion();
  }
  {
    RefEngine eng;
    std::vector<std::uint64_t> handles;
    std::uint64_t localRng = rng;
    std::uint64_t id = 0;
    std::function<void()> op = [&] {
      refTrace.push_back(id);
      const std::uint64_t r =
          (localRng = localRng * 6364136223846793005ull + 1442695040888963407ull) >> 16;
      if (id++ < kOps) {
        if (r % 5 == 0 && !handles.empty()) {
          const bool hit = eng.cancel(handles[r % handles.size()]);
          refTrace.push_back(hit ? 1u : 2u);
        }
        handles.push_back(eng.schedule(eng.now + delayFor(r), op));
        handles.push_back(eng.schedule(eng.now + delayFor(r >> 3), op));
        if (handles.size() > 64) handles.erase(handles.begin());
      }
    };
    eng.schedule(0, op);
    eng.run();
  }
  EXPECT_EQ(wheelTrace, refTrace);
}

// quietUntil against a brute-force minimum over the live events that the
// except list does not name. Events span all three wheel levels and (in
// odd trials) the overflow heap; some are cancelled, the clock advances
// through runFor between queries, and except lists mix live and stale
// handles. The result is always a lower bound no earlier than now; without
// overflow events it is no earlier than the earliest event's level-2 slot
// base, and exact when that event lies in now's level-0 window.
TEST(EngineTest, QuietUntilIsBruteForceLowerBound) {
  constexpr SimTime kLevel0 = SimTime{1} << Engine::kWheelBits;
  constexpr SimTime kLevel2 = SimTime{1} << (2 * Engine::kWheelBits);
  struct Ev {
    TimerId id;
    SimTime time;
    bool live;
  };
  std::uint64_t rng = 777;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 16;
  };
  int exactChecks = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const bool overflow = trial % 2 == 1;
    Engine eng;
    std::vector<Ev> evs;
    auto delay = [&] {
      // Sub-slot, level-1, level-2 and (odd trials) past-horizon delays.
      const unsigned bits = static_cast<unsigned>(
          next() % (overflow ? 36 : Engine::kWheelHorizonBits));
      return 1 + static_cast<SimTime>(next() % (std::uint64_t{1} << bits));
    };
    auto add = [&](int n) {
      for (int i = 0; i < n; ++i) {
        const SimTime t = eng.now() + delay();
        const std::size_t k = evs.size();
        evs.push_back({eng.scheduleAt(t, [&evs, k] { evs[k].live = false; }),
                       t, true});
      }
    };
    add(1 + static_cast<int>(next() % 40));
    for (int round = 0; round < 6; ++round) {
      for (Ev& e : evs) {
        if (e.live && next() % 8 == 0) {
          ASSERT_TRUE(eng.cancel(e.id));
          e.live = false;
        }
      }
      std::vector<TimerId> except;
      std::vector<bool> named(evs.size(), false);
      for (std::size_t k = 0; k < evs.size(); ++k) {
        if (next() % 3 == 0) {
          except.push_back(evs[k].id);
          named[k] = true;
        }
      }
      SimTime want = kSimTimeNever;
      for (std::size_t k = 0; k < evs.size(); ++k) {
        if (evs[k].live && !named[k]) want = std::min(want, evs[k].time);
      }
      const SimTime got = eng.quietUntil(except);
      ASSERT_LE(got, want) << "trial " << trial << " round " << round;
      ASSERT_GE(got, eng.now());
      if (!overflow && want != kSimTimeNever) {
        ASSERT_GE(got, want & ~(kLevel2 - 1));
        if ((want ^ eng.now()) < kLevel0) {
          ASSERT_EQ(got, want);
          ++exactChecks;
        }
      }
      eng.runFor(eng.now() + delay());
      add(static_cast<int>(next() % 8));
    }
  }
  EXPECT_GT(exactChecks, 50);
}

// Inside an event: a pending ready or due event pins the horizon to now,
// and an active runFor / runUntil deadline caps it at deadline + 1.
TEST(EngineTest, QuietUntilSeesPendingWorkAndRunDeadline) {
  Engine eng;
  std::vector<SimTime> seen;
  auto probe = [&] { seen.push_back(eng.quietUntil({})); };
  // Due: another timer at the same tick. Ready: a zero-delay event.
  eng.scheduleAt(10, probe);
  eng.scheduleAt(10, [] {});
  eng.scheduleAt(20, [&] {
    eng.scheduleNow([] {});
    probe();
  });
  // Alone at its tick: the next event (at 40) bounds it, and the runFor
  // deadline caps at 36 at the probe at 30.
  eng.scheduleAt(30, probe);
  eng.scheduleAt(40, [] {});
  eng.runFor(35);
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 20, 36}));
  // Outside a run there is no cap; inside runUntil its deadline caps.
  EXPECT_EQ(eng.quietUntil({}), 40);
  eng.scheduleAt(50, probe);
  eng.scheduleAt(5'000'000, [] {});
  EXPECT_FALSE(eng.runUntil([] { return false; }, 1000));
  EXPECT_EQ(seen.back(), 1001);
  // Excepting the only other timer leaves just the deadline.
  TimerId far;
  eng.scheduleAt(eng.now() + 7,
                 [&] { seen.push_back(eng.quietUntil({&far, 1})); });
  far = eng.scheduleAt(eng.now() + 9, [] {});
  eng.runFor(eng.now() + 100);
  EXPECT_EQ(seen.back(), eng.now() + 1);
}

// runUntil(done, deadline) stops after the same event, at the same now(),
// as the predicate `done() || now() > deadline` it replaces, and returns
// done() at the stop.
TEST(EngineTest, RunUntilDeadlineMatchesPredicateForm) {
  std::uint64_t rng = 99;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 16;
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<SimTime> times;
    for (int i = 0; i < 30; ++i) {
      times.push_back(static_cast<SimTime>(next() % 5000));
    }
    const int target = static_cast<int>(next() % 40);  // may never be hit
    const SimTime deadline = static_cast<SimTime>(next() % 6000);
    struct Result {
      int fired;
      SimTime now;
      bool ok;
    };
    auto run = [&](bool engineDeadline) {
      Engine eng;
      int fired = 0;
      for (SimTime t : times) eng.scheduleAt(t, [&fired] { ++fired; });
      bool ok;
      if (engineDeadline) {
        ok = eng.runUntil([&] { return fired == target; }, deadline);
      } else {
        ok = eng.runUntil(
                 [&] { return fired == target || eng.now() > deadline; }) &&
             fired == target;
      }
      return Result{fired, eng.now(), ok};
    };
    const Result a = run(true);
    const Result b = run(false);
    ASSERT_EQ(a.fired, b.fired) << "trial " << trial;
    ASSERT_EQ(a.now, b.now) << "trial " << trial;
    ASSERT_EQ(a.ok, b.ok) << "trial " << trial;
  }
}

TEST(TokenBucketTest, BurstCompletesImmediately) {
  TokenBucket tb(1000.0, 16.0);  // 1000 units/s, burst 16
  EXPECT_EQ(tb.reserve(0, 1.0), 0);
  EXPECT_EQ(tb.reserve(0, 1.0), 0);
}

TEST(TokenBucketTest, SteadyStateRate) {
  TokenBucket tb(1000.0, 1.0);  // 1 unit per ms
  SimTime last = 0;
  for (int i = 0; i < 100; ++i) {
    last = tb.reserve(0, 1.0);
  }
  // 100 units at 1000/s from an empty start: the 100th completes near 99 ms.
  EXPECT_NEAR(static_cast<double>(last), 99e6, 5e6);
}

TEST(TokenBucketTest, IdleRefill) {
  TokenBucket tb(1000.0, 4.0);
  // Drain the burst.
  for (int i = 0; i < 4; ++i) tb.reserve(0, 1.0);
  // After a long idle period, capacity is available again immediately.
  EXPECT_EQ(tb.reserve(1'000'000'000, 1.0), 1'000'000'000);
}

TEST(TokenBucketTest, RateChange) {
  TokenBucket tb(1000.0, 1.0);
  tb.setRate(2000.0);
  EXPECT_DOUBLE_EQ(tb.ratePerSec(), 2000.0);
}

TEST(TokenBucketTest, ThroughputMatchesRate) {
  // Reserving N units one at a time must take ~N/rate seconds overall.
  TokenBucket tb(1e6, 8.0);
  SimTime last = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) last = tb.reserve(0, 1.0);
  const double seconds = static_cast<double>(last) / 1e9;
  EXPECT_NEAR(seconds, n / 1e6, 0.01 * n / 1e6 + 1e-5);
}

TEST(SweepTest, RunsAllIndices) {
  std::vector<std::atomic<int>> hits(64);
  parallelFor(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepTest, ZeroIsNoop) {
  parallelFor(0, [&](std::size_t) { FAIL(); });
}

TEST(SweepTest, SingleThreadFallback) {
  std::vector<int> hits(5, 0);
  parallelFor(5, [&](std::size_t i) { hits[i] = 1; }, 1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(SweepStatsTest, MergesAcrossPoints) {
  SweepStats stats(3);
  parallelFor(3, [&](std::size_t i) {
    stats.record(i, "reads", 10 * (i + 1));
    if (i != 1) stats.record(i, "hits", 5);
  });
  const auto rows = stats.merged();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].metric, "reads");  // first-recorded order
  EXPECT_EQ(rows[0].total, 60u);
  EXPECT_EQ(rows[0].min, 10u);
  EXPECT_EQ(rows[0].max, 30u);
  EXPECT_EQ(rows[0].points, 3u);
  EXPECT_EQ(rows[1].metric, "hits");
  EXPECT_EQ(rows[1].total, 10u);
  EXPECT_EQ(rows[1].points, 2u);
}

TEST(SweepStatsTest, RecordsEngineTelemetry) {
  SweepStats stats(2);
  parallelFor(2, [&](std::size_t i) {
    Engine eng;
    for (std::size_t k = 0; k <= i; ++k) {
      eng.scheduleAfter(static_cast<SimTime>(k + 1), [] {});
    }
    eng.runToCompletion();
    stats.recordEngine(i, eng);
  });
  const auto rows = stats.merged();
  ASSERT_GE(rows.size(), 4u);
  EXPECT_EQ(rows[0].metric, "engine.events");
  EXPECT_EQ(rows[0].total, 3u);  // 1 + 2 events
  EXPECT_EQ(rows[0].points, 2u);
}

TEST(EngineTest, ReserveEventsPreSizesOneArena) {
  Engine eng;
  eng.reserveEvents(5000);
  EXPECT_EQ(eng.slabChunks(), 1u);
  EXPECT_EQ(eng.slabEventCapacity(), 5000u);
  // 3000 concurrently pending events fit the arena: no growth chunks.
  int fired = 0;
  for (int i = 0; i < 3000; ++i) {
    eng.scheduleAfter(static_cast<SimTime>(1 + i % 7), [&] { ++fired; });
  }
  eng.runToCompletion();
  EXPECT_EQ(fired, 3000);
  EXPECT_EQ(eng.slabChunks(), 1u);
  // Overflowing the arena falls back to chunked growth, not a crash.
  std::vector<TimerId> ids;
  for (int i = 0; i < 6000; ++i) {
    ids.push_back(eng.scheduleAfter(10, [] {}));
  }
  EXPECT_GT(eng.slabChunks(), 1u);
  for (auto& id : ids) eng.cancel(id);
}

TEST(EngineTest, ReserveEventsDoesNotPerturbExecution) {
  // Identical schedules with and without an arena must fire in the same
  // order at the same times (the determinism contract the sweep arenas
  // rely on).
  auto run = [](bool reserve) {
    Engine eng;
    if (reserve) eng.reserveEvents(4096);
    std::vector<std::pair<SimTime, int>> log;
    for (int i = 0; i < 500; ++i) {
      eng.scheduleAfter(static_cast<SimTime>((i * 37) % 11),
                        [&log, i, &eng] { log.emplace_back(eng.now(), i); });
    }
    eng.runToCompletion();
    return log;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(SweepStatsTest, SlabArenaPlanRoundTrip) {
  SlabArenaPlan plan(2);
  EXPECT_EQ(plan.eventsFor(0), 0u);
  {
    Engine eng;
    plan.apply(0, eng);  // nothing observed yet: no-op
    EXPECT_EQ(eng.slabChunks(), 0u);
    // Force two growth chunks' worth of live events.
    std::vector<TimerId> ids;
    for (int i = 0; i < 1500; ++i) {
      ids.push_back(eng.scheduleAfter(5, [] {}));
    }
    eng.runToCompletion();
    plan.observe(0, eng);
  }
  EXPECT_GE(plan.eventsFor(0), 1500u);
  {
    Engine eng;
    plan.apply(0, eng);
    // One arena, sized with headroom over the observed capacity.
    EXPECT_EQ(eng.slabChunks(), 1u);
    EXPECT_GE(eng.slabEventCapacity(), plan.eventsFor(0));
    std::vector<TimerId> ids;
    for (int i = 0; i < 1500; ++i) {
      ids.push_back(eng.scheduleAfter(5, [] {}));
    }
    eng.runToCompletion();
    // The replay fits the arena: the sweep stays memory-flat.
    EXPECT_EQ(eng.slabChunks(), 1u);
    // A fitting round must not grow the plan (no headroom compounding).
    const std::size_t planned = plan.eventsFor(0);
    plan.observe(0, eng);
    EXPECT_EQ(plan.eventsFor(0), planned);
  }
}

TEST(SweepStatsTest, RenderIsDeterministic) {
  SweepStats stats(2);
  stats.record(0, "a.metric", 1);
  stats.record(1, "a.metric", 2);
  const std::string a = stats.render("unit");
  const std::string b = stats.render("unit");
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("a.metric"), std::string::npos);
  EXPECT_NE(a.find("2 points"), std::string::npos);
}

}  // namespace
}  // namespace agile::sim
