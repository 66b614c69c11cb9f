#include "sim/engine.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace agile::sim {

Engine::~Engine() {
  // Destroy never-fired callbacks (they may own resources). Node memory
  // itself belongs to the slabs. Cancelled nodes already destroyed theirs.
  for (EventNode* n = readyHead_; n != nullptr; n = n->next) {
    if (n->loc != Loc::kCancelled) n->op(this, n, /*run=*/false);
  }
  for (EventNode* n = dueHead_; n != nullptr; n = n->next) {
    if (n->loc != Loc::kCancelled) n->op(this, n, /*run=*/false);
  }
  for (auto& level : buckets_) {
    for (EventNode* head : level) {
      for (EventNode* n = head; n != nullptr; n = n->next) {
        n->op(this, n, /*run=*/false);
      }
    }
  }
  for (const HeapEntry& e : overflow_) {
    if (e.node->loc != Loc::kCancelled) e.node->op(this, e.node, /*run=*/false);
  }
}

bool Engine::cancel(TimerId id) {
  EventNode* n = static_cast<EventNode*>(id.node_);
  // Generation check: a recycled node carries a newer seq; a fired or
  // already-cancelled node carries loc kFree / kCancelled.
  if (n == nullptr || n->seq != id.seq_) return false;
  switch (n->loc) {
    case Loc::kWheel:
      // O(1) hlist unlink; the bucket's occupancy bit goes stale and is
      // cleared lazily by the next scan that reaches it.
      n->op(this, n, /*run=*/false);
      *n->pprev = n->next;
      if (n->next != nullptr) n->next->pprev = n->pprev;
      --wheelCount_;
      ++cancelled_;
      freeNode(n);
      return true;
    case Loc::kReady:
      n->op(this, n, /*run=*/false);
      n->loc = Loc::kCancelled;
      --readyCount_;
      ++cancelled_;
      return true;
    case Loc::kDue:
      n->op(this, n, /*run=*/false);
      n->loc = Loc::kCancelled;
      --dueCount_;
      ++cancelled_;
      return true;
    case Loc::kOverflow:
      n->op(this, n, /*run=*/false);
      n->loc = Loc::kCancelled;
      --overflowCount_;
      ++cancelled_;
      return true;
    case Loc::kFree:
    case Loc::kCancelled:
      return false;
  }
  return false;
}

void Engine::cleanFronts() {
  while (readyHead_ != nullptr && readyHead_->loc == Loc::kCancelled) {
    EventNode* n = readyHead_;
    readyHead_ = n->next;
    if (readyHead_ == nullptr) readyTail_ = nullptr;
    freeNode(n);
  }
  while (dueHead_ != nullptr && dueHead_->loc == Loc::kCancelled) {
    EventNode* n = dueHead_;
    dueHead_ = n->next;
    freeNode(n);
  }
}

void Engine::migrateOverflow() {
  const std::uint64_t epoch =
      static_cast<std::uint64_t>(now_) >> kWheelHorizonBits;
  // Fast path: drop cancelled tops, and return unless the heap front has
  // entered the current epoch — the common case is one O(1) peek.
  for (;;) {
    if (overflow_.empty()) return;
    const HeapEntry top = overflow_.front();
    if (top.node->loc == Loc::kCancelled) {
      std::pop_heap(overflow_.begin(), overflow_.end(), HeapLater{});
      overflow_.pop_back();
      freeNode(top.node);
      continue;
    }
    if ((static_cast<std::uint64_t>(top.time) >> kWheelHorizonBits) != epoch) {
      return;
    }
    break;
  }
  // At least one live entry must migrate. An epoch rollover typically moves
  // a large batch of timers at once (every in-flight NVMe latency timer
  // landed in the same ~8.6 s epoch), and popping them one at a time costs
  // an O(log N) sift each. Instead, partition the backing vector in one
  // O(N) pass — place every current-epoch entry on the wheel, free the
  // cancelled ones — and re-heapify the remainder once. Bucket placement
  // order does not affect execution order: drainTick sorts each bucket by
  // seq before firing, so the (time, seq) contract is preserved.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < overflow_.size(); ++i) {
    const HeapEntry e = overflow_[i];
    if (e.node->loc == Loc::kCancelled) {
      freeNode(e.node);
      continue;
    }
    if ((static_cast<std::uint64_t>(e.time) >> kWheelHorizonBits) == epoch) {
      --overflowCount_;
      wheelPlace(e.node, static_cast<std::uint64_t>(e.node->time) ^
                             static_cast<std::uint64_t>(now_));
      continue;
    }
    overflow_[keep++] = e;
  }
  overflow_.resize(keep);
  std::make_heap(overflow_.begin(), overflow_.end(), HeapLater{});
}

int Engine::findOccupied(unsigned level, std::size_t from) {
  std::size_t w = from / 64;
  std::uint64_t bits =
      occupancy_[level][w] & (~std::uint64_t{0} << (from % 64));
  for (;;) {
    while (bits != 0) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
      const std::size_t idx = w * 64 + b;
      if (buckets_[level][idx] != nullptr) return static_cast<int>(idx);
      // Bucket emptied by cancellation: drop the stale occupancy bit.
      occupancy_[level][w] &= ~(std::uint64_t{1} << b);
      bits &= bits - 1;
    }
    if (++w >= kOccWords) return -1;
    bits = occupancy_[level][w];
  }
}

void Engine::cascade(unsigned level, std::size_t idx) {
  EventNode* n = buckets_[level][idx];
  buckets_[level][idx] = nullptr;
  occupancy_[level][idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
  // Every node here lives in this slot's [base, base + span) window, so its
  // offset from the slot base selects the finer level.
  const std::uint64_t span = std::uint64_t{1} << (kWheelBits * level);
  while (n != nullptr) {
    EventNode* next = n->next;
    --wheelCount_;
    wheelPlace(n, static_cast<std::uint64_t>(n->time) & (span - 1));
    n = next;
  }
}

void Engine::drainTick(std::size_t idx) {
  EventNode* n = buckets_[0][idx];
  buckets_[0][idx] = nullptr;
  occupancy_[0][idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
  AGILE_DCHECK(dueHead_ == nullptr);
  // One node (the common case: a lone timer or segment end) is already in
  // (time, seq) order, so it links straight into the due list.
  if (n->next == nullptr) {
    n->loc = Loc::kDue;
    n->pprev = nullptr;
    dueHead_ = n;
    --wheelCount_;
    ++dueCount_;
    return;
  }
  drainScratch_.clear();
  for (; n != nullptr; n = n->next) drainScratch_.push_back(n);
  // All nodes share one timestamp; (time, seq) order within the tick is
  // seq order. Buckets are push-front lists touched by cascades, so sort.
  std::sort(
      drainScratch_.begin(), drainScratch_.end(),
      [](const EventNode* a, const EventNode* b) { return a->seq < b->seq; });
  EventNode* head = nullptr;
  for (auto it = drainScratch_.rbegin(); it != drainScratch_.rend(); ++it) {
    AGILE_DCHECK((*it)->time == drainScratch_.front()->time);
    (*it)->loc = Loc::kDue;
    (*it)->pprev = nullptr;
    (*it)->next = head;
    head = *it;
  }
  dueHead_ = head;
  wheelCount_ -= drainScratch_.size();
  dueCount_ += drainScratch_.size();
}

bool Engine::advanceToNextTick(SimTime limit) {
  for (;;) {
    migrateOverflow();
    if (wheelCount_ == 0) {
      if (overflow_.empty()) return false;
      const SimTime t = overflow_.front().time;
      if (t > limit) return false;
      // Enter the overflow top's epoch; the next migrate pulls it (and its
      // whole epoch) into the wheel. Nothing is pending before t.
      now_ = t;
      continue;
    }
    // Scan for the earliest pending tick, cascading coarse slots downward.
    // `cur` tracks the earliest time still possible; it only moves to slot
    // bases that provably precede every pending event.
    std::uint64_t cur = static_cast<std::uint64_t>(now_);
    unsigned level = 0;
    while (level < kWheelLevels) {
      const std::size_t from = (cur >> (kWheelBits * level)) & kSlotMask;
      const int idx = findOccupied(level, from);
      if (idx < 0) {
        ++level;
        continue;
      }
      if (level == 0) {
        const SimTime tick = static_cast<SimTime>(
            (cur & ~kSlotMask) | static_cast<std::uint64_t>(idx));
        if (tick > limit) return false;
        drainTick(static_cast<std::size_t>(idx));
        now_ = tick;
        return true;
      }
      const std::uint64_t span = std::uint64_t{1} << (kWheelBits * level);
      const std::uint64_t base =
          static_cast<std::uint64_t>(
              buckets_[level][static_cast<std::size_t>(idx)]->time) &
          ~(span - 1);
      // Cascading re-anchors nodes at the slot base; only safe if the
      // clock can never rest below it afterwards (see header contract).
      if (static_cast<SimTime>(base) > limit) return false;
      cascade(level, static_cast<std::size_t>(idx));
      cur = base;
      level = 0;
    }
    AGILE_CHECK_MSG(false, "timer wheel scan missed a pending event");
  }
}

bool Engine::step() {
  cleanFronts();
  EventNode* n;
  // Merge the ready queue (all at now_, FIFO == seq order) against the due
  // list (this tick's timers, seq-sorted) on seq, so execution order is
  // identical to a single global heap ordered on (time, seq).
  if (readyHead_ != nullptr &&
      (dueHead_ == nullptr || dueHead_->seq > readyHead_->seq)) {
    n = readyHead_;
    readyHead_ = n->next;
    if (readyHead_ == nullptr) readyTail_ = nullptr;
    --readyCount_;
  } else if (dueHead_ != nullptr) {
    n = dueHead_;
    dueHead_ = n->next;
    --dueCount_;
  } else if (advanceToNextTick(kSimTimeNever)) {
    n = dueHead_;
    dueHead_ = n->next;
    --dueCount_;
  } else {
    return false;
  }
  ++executed_;
  n->op(this, n, /*run=*/true);
  return true;
}

bool Engine::runUntil(const SmallFn<bool()>& done, SimTime deadline) {
  const SimTime outer = std::exchange(runDeadline_, deadline);
  bool ok = true;
  while (!done()) {
    if (now_ > deadline || !step()) {
      ok = done();
      break;
    }
  }
  runDeadline_ = outer;
  return ok;
}

void Engine::runToCompletion() {
  while (step()) {
  }
}

void Engine::runFor(SimTime deadline) {
  const SimTime outer = std::exchange(runDeadline_, deadline);
  // Ready/due events fire at now_; they are eligible whenever
  // now_ <= deadline. Timer ticks advance only up to the deadline.
  for (;;) {
    cleanFronts();
    if ((readyHead_ != nullptr || dueHead_ != nullptr) && now_ <= deadline) {
      step();
      continue;
    }
    if (readyHead_ == nullptr && dueHead_ == nullptr &&
        advanceToNextTick(deadline)) {
      continue;  // the due list now holds that tick; fire on the next pass
    }
    break;
  }
  if (now_ < deadline) now_ = deadline;
  runDeadline_ = outer;
}

const Engine::EventNode* Engine::firstUnexcepted(
    const EventNode* n, std::span<const TimerId> except) {
  for (; n != nullptr; n = n->next) {
    const bool excepted =
        std::any_of(except.begin(), except.end(), [n](const TimerId& id) {
          return id.node_ == n && id.seq_ == n->seq;
        });
    if (!excepted) return n;
  }
  return nullptr;
}

SimTime Engine::quietUntil(std::span<const TimerId> except) const {
  if (readyCount_ != 0 || dueCount_ != 0) return now_;
  SimTime bound =
      runDeadline_ == kSimTimeNever ? kSimTimeNever : runDeadline_ + 1;
  // The heap top precedes every overflow event, live or not.
  if (!overflow_.empty()) bound = std::min(bound, overflow_.front().time);
  if (wheelCount_ == 0) return bound;
  // advanceToNextTick's walk: level 0 from now's tick, then each coarser
  // level from now's slot. The first bucket it reaches holds the earliest
  // event: a level-0 bucket is one exact tick, a coarser one starts at its
  // slot base. Skipping a bucket of excepted timers only is that walk over
  // the wheel with those timers cancelled. Stale occupancy bits (emptied
  // buckets) are skipped, not cleared.
  const auto cur = static_cast<std::uint64_t>(now_);
  for (unsigned level = 0; level < kWheelLevels; ++level) {
    const std::size_t from = (cur >> (kWheelBits * level)) & kSlotMask;
    const std::uint64_t baseMask =
        ~((std::uint64_t{1} << (kWheelBits * level)) - 1);
    std::uint64_t bits =
        occupancy_[level][from / 64] & (~std::uint64_t{0} << (from % 64));
    for (std::size_t w = from / 64;;) {
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t idx =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const EventNode* n = firstUnexcepted(buckets_[level][idx], except);
        if (n != nullptr) {
          return std::min(bound,
                          static_cast<SimTime>(
                              static_cast<std::uint64_t>(n->time) & baseMask));
        }
      }
      if (++w >= kOccWords) break;
      bits = occupancy_[level][w];
    }
  }
  return bound;
}

WaitList::~WaitList() {
  WaitNode* n = head_;
  while (n != nullptr) {
    WaitNode* next = n->next;
    if (n->drop != nullptr) n->drop(n);
    n = next;
  }
}

WaitNode* WaitList::popFront() {
  WaitNode* n = head_;
  if (n == nullptr) return nullptr;
  head_ = n->next;
  if (head_ == nullptr) tail_ = nullptr;
  n->next = nullptr;
  --size_;
  return n;
}

namespace {

// The scheduled wake for a notified waiter. Fires the node when the event
// runs; if the engine is torn down with the wake still queued (the node is
// out of the WaitList by then, so its drop hook would otherwise never run),
// the destructor falls back to drop so callable waiters don't leak.
struct NotifyEvent {
  WaitNode* n;

  explicit NotifyEvent(WaitNode* node) : n(node) {}
  NotifyEvent(NotifyEvent&& o) noexcept : n(std::exchange(o.n, nullptr)) {}
  NotifyEvent(const NotifyEvent&) = delete;
  NotifyEvent& operator=(const NotifyEvent&) = delete;
  NotifyEvent& operator=(NotifyEvent&&) = delete;
  ~NotifyEvent() {
    if (n != nullptr && n->drop != nullptr) n->drop(n);
  }

  void operator()() {
    WaitNode* node = std::exchange(n, nullptr);
    node->fire(node);
  }
};

}  // namespace

void WaitList::notifyAll(Engine& engine) {
  // One ready-queue event per waiter, scheduled in park order, so waiters
  // interleave with other same-timestamp events exactly as they would have
  // when each carried its own timer entry.
  while (WaitNode* n = popFront()) {
    engine.scheduleNow(NotifyEvent(n));
  }
}

void WaitList::notifyOne(Engine& engine) {
  if (WaitNode* n = popFront()) {
    engine.scheduleNow(NotifyEvent(n));
  }
}

}  // namespace agile::sim
