// Copyright (c) 2026 madnet authors. All rights reserved.

#include "sim/event_queue.h"

#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.h"
#include "util/random.h"

namespace madnet::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.Empty());
  EXPECT_EQ(queue.Size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.Push(3.0, [&] { order.push_back(3); });
  queue.Push(1.0, [&] { order.push_back(1); });
  queue.Push(2.0, [&] { order.push_back(2); });
  while (!queue.Empty()) {
    auto [when, cb] = queue.Pop();
    (void)when;
    cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.Push(5.0, [&order, i] { order.push_back(i); });
  }
  while (!queue.Empty()) queue.Pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue queue;
  queue.Push(7.0, [] {});
  queue.Push(2.5, [] {});
  EXPECT_DOUBLE_EQ(queue.NextTime(), 2.5);
}

TEST(EventQueueTest, CancelPendingEvent) {
  EventQueue queue;
  bool ran = false;
  EventId id = queue.Push(1.0, [&] { ran = true; });
  queue.Push(2.0, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_EQ(queue.Size(), 1u);
  EXPECT_DOUBLE_EQ(queue.NextTime(), 2.0);
  queue.Pop().second();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, CancelAfterRunFails) {
  EventQueue queue;
  EventId id = queue.Push(1.0, [] {});
  queue.Push(2.0, [] {});
  queue.Pop().second();
  EXPECT_FALSE(queue.Cancel(id));
  EXPECT_EQ(queue.Size(), 1u);  // Live count untouched.
}

TEST(EventQueueTest, DoubleCancelFails) {
  EventQueue queue;
  EventId id = queue.Push(1.0, [] {});
  queue.Push(3.0, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_FALSE(queue.Cancel(id));
  EXPECT_EQ(queue.Size(), 1u);
}

TEST(EventQueueTest, CancelInvalidIdFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.Cancel(kInvalidEventId));
  EXPECT_FALSE(queue.Cancel(9999));
}

TEST(EventQueueTest, CancelLastEventEmptiesQueue) {
  EventQueue queue;
  EventId id = queue.Push(1.0, [] {});
  EXPECT_TRUE(queue.Cancel(id));
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, ClearDropsEverything) {
  EventQueue queue;
  queue.Push(1.0, [] {});
  queue.Push(2.0, [] {});
  queue.Clear();
  EXPECT_TRUE(queue.Empty());
  // Queue stays usable after Clear.
  queue.Push(3.0, [] {});
  EXPECT_EQ(queue.Size(), 1u);
}

TEST(EventQueueTest, ManyCancellationsInterleaved) {
  EventQueue queue;
  std::vector<EventId> ids;
  std::vector<int> ran;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(queue.Push(static_cast<Time>(i), [&ran, i] {
      ran.push_back(i);
    }));
  }
  // Cancel every odd event.
  for (int i = 1; i < 100; i += 2) EXPECT_TRUE(queue.Cancel(ids[i]));
  EXPECT_EQ(queue.Size(), 50u);
  while (!queue.Empty()) queue.Pop().second();
  ASSERT_EQ(ran.size(), 50u);
  for (size_t j = 0; j < ran.size(); ++j) EXPECT_EQ(ran[j] % 2, 0);
}

// Reference-model property test: a seeded random mix of pushes, cancels,
// peeks, pops and clears, shaped like the simulator's traffic, whose pop
// sequence must equal a std::set ordered on (when, id). The offsets span
// every container of the calendar layout: within the current epoch
// (per-receiver deliveries, zero delay), the next few epochs (relay
// jitter), the ring (gossip rounds, Opt-2 postpones up to ~14 s each and
// their sums), its 64 s horizon edge, and past it (up to thousands of
// seconds).
class EventQueueModelCheck {
 public:
  explicit EventQueueModelCheck(uint64_t seed) : rng_(seed) {}

  void Run(int steps) {
    for (int step = 0; step < steps; ++step) {
      if (step == steps / 2) ClearAndRestart();
      const double r = rng_.NextDouble();
      if (r < 0.40) {
        Push(now_ + DrawOffset());
      } else if (r < 0.50) {
        PushAtTieTime();
      } else if (r < 0.58) {
        CancelSome();
      } else {
        PopOne();
      }
      ASSERT_EQ(queue_.Size(), model_.size());
      ASSERT_EQ(queue_.Empty(), model_.empty());
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (!model_.empty()) {
      PopOne();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(queue_.Empty());
  }

  // How many cancels hit an entry this far ahead of the clock: within one
  // 1/64 s epoch, inside the 64 s ring horizon, beyond it.
  int near_cancels = 0;
  int ring_cancels = 0;
  int far_cancels = 0;
  int tie_pops = 0;  // Pops whose time equals the previous pop's.
  int pops = 0;

 private:
  using Key = std::pair<Time, EventId>;

  Time DrawOffset() {
    const double kind = rng_.NextDouble();
    if (kind < 0.05) return 0.0;                           // Zero delay.
    if (kind < 0.55) return rng_.Uniform(0.0005, 0.002);  // Delivery.
    if (kind < 0.70) return rng_.Uniform(0.0, 0.05);      // Relay jitter.
    if (kind < 0.85) return rng_.Uniform(0.9, 1.1);       // Gossip round.
    if (kind < 0.91) return rng_.Uniform(0.0, 13.6);      // Postpone.
    if (kind < 0.93) return rng_.Uniform(13.6, 64.0);     // Postpones.
    if (kind < 0.96) return rng_.Uniform(63.9, 64.1);     // Ring edge.
    if (kind < 0.99) return rng_.Uniform(64.0, 300.0);    // Past horizon.
    return rng_.Uniform(1000.0, 5000.0);                  // Far future.
  }

  void Push(Time when) {
    const EventId id = queue_.Push(when, [this, when] {
      popped_ = when;
      ++callbacks_run_;
    });
    ASSERT_NE(id, kInvalidEventId);
    ASSERT_TRUE(model_.insert({when, id}).second);
    pending_.push_back({when, id});
  }

  // Several pushes at one of a few fixed instants, issued while the
  // instant is far off, in the ring, and in the current epoch, so equal
  // times meet in the near heap from every container.
  void PushAtTieTime() {
    if (tie_times_.empty() || rng_.Bernoulli(0.02)) {
      tie_times_.push_back(now_ + rng_.Uniform(0.0, 120.0));
    }
    const Time when = tie_times_[rng_.NextUint64(tie_times_.size())];
    if (when >= now_) Push(when);
  }

  void CancelSome() {
    if (pending_.empty()) return;
    // Half the cancels hit the latest push (often a delivery in the
    // current epoch), the rest any key ever pushed and not yet cancelled.
    const size_t pick = rng_.Bernoulli(0.5)
                            ? pending_.size() - 1
                            : rng_.NextUint64(pending_.size());
    const Key key = pending_[pick];
    pending_[pick] = pending_.back();
    pending_.pop_back();
    const bool live = model_.erase(key) == 1;
    ASSERT_EQ(queue_.Cancel(key.second), live);
    if (!live) return;  // Already ran; Cancel must refuse.
    ASSERT_FALSE(queue_.Cancel(key.second));  // Double cancel.
    const Time ahead = key.first - now_;
    if (ahead < 1.0 / 64.0) {
      ++near_cancels;
    } else if (ahead < 63.0) {
      ++ring_cancels;
    } else if (ahead > 65.0) {
      ++far_cancels;
    }
  }

  void PopOne() {
    if (model_.empty()) return;
    const Key want = *model_.begin();
    ASSERT_EQ(queue_.NextTime(), want.first);
    auto [when, callback] = queue_.Pop();
    ASSERT_EQ(when, want.first);
    const int before = callbacks_run_;
    callback();
    ASSERT_EQ(callbacks_run_, before + 1);
    ASSERT_EQ(popped_, want.first);
    // Cancelling the popped id must fail: it matches the model's minimum
    // exactly when the queue popped that very event.
    ASSERT_FALSE(queue_.Cancel(want.second));
    if (pops > 0 && when == now_) ++tie_pops;
    model_.erase(model_.begin());
    now_ = when;
    ++pops;
    ++pops_since_clear_;
    ASSERT_EQ(queue_.pops(), pops_since_clear_);
    ASSERT_GE(queue_.depth_sum(), queue_.pops());
  }

  // Clear() drops everything; the queue then serves a fresh run starting
  // at time 0, as after Simulator::Reset.
  void ClearAndRestart() {
    const std::vector<Key> dropped(model_.begin(), model_.end());
    queue_.Clear();
    model_.clear();
    pending_.clear();
    tie_times_.clear();
    now_ = 0.0;
    pops_since_clear_ = 0;
    EXPECT_TRUE(queue_.Empty());
    EXPECT_EQ(queue_.pops(), 0u);
    EXPECT_EQ(queue_.depth_sum(), 0u);
    for (const Key& key : dropped) EXPECT_FALSE(queue_.Cancel(key.second));
  }

  Rng rng_;
  EventQueue queue_;
  std::set<Key> model_;
  std::vector<Key> pending_;  // Every pushed key, until cancelled.
  std::vector<Time> tie_times_;
  Time now_ = 0.0;
  Time popped_ = -1.0;
  int callbacks_run_ = 0;
  uint64_t pops_since_clear_ = 0;
};

TEST(EventQueuePropertyTest, PopOrderMatchesOrderedSetModel) {
  EventQueueModelCheck totals(0);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    EventQueueModelCheck check(seed);
    check.Run(40000);
    if (HasFatalFailure()) FAIL() << "seed " << seed;
    totals.near_cancels += check.near_cancels;
    totals.ring_cancels += check.ring_cancels;
    totals.far_cancels += check.far_cancels;
    totals.tie_pops += check.tie_pops;
    totals.pops += check.pops;
  }
  // The mix reached every container and produced equal-time pops.
  EXPECT_GT(totals.near_cancels, 100);
  EXPECT_GT(totals.ring_cancels, 100);
  EXPECT_GT(totals.far_cancels, 100);
  EXPECT_GT(totals.tie_pops, 100);
  EXPECT_GT(totals.pops, 100000);
}

TEST(EventQueuePropertyTest, EqualTimesPopFifoAcrossContainers) {
  // The same instant pushed from 100 s away (overflow), 5 s away (ring)
  // and within its epoch (near heap) pops in push order.
  EventQueue queue;
  std::vector<int> order;
  const Time target = 100.0;
  queue.Push(target, [&] { order.push_back(0); });
  queue.Push(95.0, [] {});
  queue.Pop().second();  // Now 95 s: the target is in the ring.
  queue.Push(target, [&] { order.push_back(1); });
  queue.Push(target - 0.001, [] {});
  while (queue.NextTime() < target) queue.Pop().second();
  queue.Push(target, [&] { order.push_back(2); });
  while (!queue.Empty()) queue.Pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, InfiniteTimePopsLast) {
  // An epoch index saturates at the far end of the time axis; the window
  // must still reach it instead of spinning on an unreachable epoch.
  EventQueue queue;
  const Time inf = std::numeric_limits<Time>::infinity();
  queue.Push(inf, [] {});
  queue.Push(1.0, [] {});
  EXPECT_EQ(queue.Pop().first, 1.0);
  EXPECT_EQ(queue.NextTime(), inf);
  queue.Push(inf, [] {});
  EXPECT_EQ(queue.Pop().first, inf);
  EXPECT_EQ(queue.Pop().first, inf);
  EXPECT_TRUE(queue.Empty());
}

TEST(EventQueueTest, WorkCountersTrackPopsAndDepth) {
  EventQueue queue;
  for (int i = 0; i < 4; ++i) queue.Push(0.001 * i, [] {});
  while (!queue.Empty()) queue.Pop();
  // All four share one epoch: the near heap held 4, 3, 2, 1 at the pops.
  EXPECT_EQ(queue.pops(), 4u);
  EXPECT_EQ(queue.depth_sum(), 10u);
  queue.Clear();
  EXPECT_EQ(queue.pops(), 0u);
  EXPECT_EQ(queue.depth_sum(), 0u);
}

// The debug-invariant layer: popping an empty queue and NaN event times are
// programming errors that MADNET_DCHECK turns into aborts (active in debug
// and MADNET_FORCE_DCHECKS builds; compiled out in plain Release, where
// these tests skip).
TEST(EventQueueDeathTest, PopOnEmptyQueueDchecks) {
#if MADNET_DCHECK_ASSERTS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EventQueue queue;
  EXPECT_DEATH(queue.Pop(), "MADNET_DCHECK failed");
#else
  GTEST_SKIP() << "MADNET_DCHECK compiled out (NDEBUG build)";
#endif
}

TEST(EventQueueDeathTest, NanEventTimeDchecks) {
#if MADNET_DCHECK_ASSERTS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EventQueue queue;
  const Time nan = std::numeric_limits<Time>::quiet_NaN();
  EXPECT_DEATH(queue.Push(nan, [] {}), "MADNET_DCHECK failed");
#else
  GTEST_SKIP() << "MADNET_DCHECK compiled out (NDEBUG build)";
#endif
}

}  // namespace
}  // namespace madnet::sim
