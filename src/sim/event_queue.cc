// Copyright (c) 2026 madnet authors. All rights reserved.

#include "sim/event_queue.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/logging.h"

namespace madnet::sim {

// MADNET_HOT
void EventQueue::HeapPush(const Entry& entry) {
  // Hole-based sift-up: move parents down until `entry` fits, then write it
  // once (entries are trivially copyable 16-byte keys, so each step is a
  // memcpy).
  // NOLINTNEXTLINE(madnet-hot-alloc): amortized O(1) heap growth.
  near_.push_back(entry);
  size_t i = near_.size() - 1;
  while (i > 0) {
    const size_t parent = (i - 1) >> 2;
    if (!Before(entry, near_[parent])) break;
    near_[i] = near_[parent];
    i = parent;
  }
  near_[i] = entry;
}

// MADNET_HOT
void EventQueue::HeapPop() {
  const Entry last = near_.back();
  near_.pop_back();
  const size_t n = near_.size();
  if (n == 0) return;
  // Hole-based sift-down from the root: promote the smallest child until
  // `last` fits.
  size_t i = 0;
  for (;;) {
    const size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    size_t best = first_child;
    const size_t end_child = first_child + 4 < n ? first_child + 4 : n;
    for (size_t c = first_child + 1; c < end_child; ++c) {
      if (Before(near_[c], near_[best])) best = c;
    }
    if (!Before(near_[best], last)) break;
    near_[i] = near_[best];
    i = best;
  }
  near_[i] = last;
}

// MADNET_HOT
void EventQueue::RingPush(const Entry& entry, int64_t e) {
  const uint64_t bucket = static_cast<uint64_t>(e) & kRingMask;
  uint32_t node = free_node_;
  if (node != kNil) {
    free_node_ = nodes_[node].next;
  } else {
    node = static_cast<uint32_t>(nodes_.size());
    // Grows to the peak number of pending ring entries, then recycles.
    // NOLINTNEXTLINE(madnet-hot-alloc): amortized O(1) pool growth.
    nodes_.push_back({});
  }
  uint64_t& word = occupied_[bucket >> 6];
  const uint64_t bit = uint64_t{1} << (bucket & 63);
  nodes_[node] = {entry, (word & bit) != 0 ? bucket_head_[bucket] : kNil};
  bucket_head_[bucket] = node;
  word |= bit;
  ++ring_count_;
}

int64_t EventQueue::NextRingEpoch() const {
  // Window invariant: the ring holds exactly the epochs in (cur_epoch_,
  // cur_epoch_ + kRingSize), and cur_epoch_'s own bucket is empty. So the
  // first set bit at or cyclically after cur_epoch_ + 1's bucket is the
  // nearest epoch; the extra iteration revisits the start word's low bits.
  const uint64_t start = static_cast<uint64_t>(cur_epoch_ + 1) & kRingMask;
  size_t word = start >> 6;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (start & 63));
  for (size_t i = 0; i <= kOccupancyWords; ++i) {
    if (bits != 0) {
      const uint64_t bucket =
          (uint64_t{word} << 6) | static_cast<uint64_t>(std::countr_zero(bits));
      return cur_epoch_ + 1 +
             static_cast<int64_t>((bucket - start) & kRingMask);
    }
    word = (word + 1) & (kOccupancyWords - 1);
    bits = occupied_[word];
  }
  MADNET_DCHECK(false);  // ring_count_ > 0 with no occupied bucket.
  return std::numeric_limits<int64_t>::max();
}

bool EventQueue::ReapIfCancelled(const Entry& entry) {
  if (state_[entry.seq - 1] != kCancelled) return false;
  state_[entry.seq - 1] = kDone;
  TakeSlot(entry.slot);
  return true;
}

void EventQueue::RedistributeOverflow() {
  while (!overflow_.empty()) {
    const Entry entry = overflow_.front();
    const int64_t e = EpochOf(entry.when);
    // The window never passes an overflow entry (AdvanceEpoch pulls them
    // in first), so every overflow epoch is still ahead of cur_epoch_.
    MADNET_DCHECK_GT(e, cur_epoch_);
    if (!InRing(e)) break;
    std::pop_heap(overflow_.begin(), overflow_.end(), After);
    overflow_.pop_back();
    if (!ReapIfCancelled(entry)) RingPush(entry, e);
  }
}

void EventQueue::AdvanceEpoch() {
  for (;;) {
    const bool ring_nonempty = ring_count_ > 0;
    const int64_t ring_epoch = ring_nonempty
                                   ? NextRingEpoch()
                                   : std::numeric_limits<int64_t>::max();
    // Overflow entries may have become due as the window advanced; they
    // must join the ring before the window moves past them.
    const int64_t overflow_epoch =
        overflow_.empty() ? std::numeric_limits<int64_t>::max()
                          : EpochOf(overflow_.front().when);
    if (!overflow_.empty() && overflow_epoch <= ring_epoch) {
      if (!ring_nonempty) {
        // Nothing nearer anywhere: jump the window to just before the
        // earliest overflow entry so redistribution lands it in the ring.
        cur_epoch_ = std::max(cur_epoch_, overflow_epoch - 1);
      }
      RedistributeOverflow();
      if (ring_count_ == 0 && overflow_.empty()) return;  // All reaped.
      continue;
    }
    if (!ring_nonempty) return;
    cur_epoch_ = ring_epoch;
    const uint64_t bucket = static_cast<uint64_t>(ring_epoch) & kRingMask;
    uint32_t node = bucket_head_[bucket];
    uint32_t last = kNil;
    while (node != kNil) {
      const Entry& entry = nodes_[node].entry;
      // Cancelled entries are reaped here instead of being sifted through
      // the near heap just to be thrown away at the top.
      if (!ReapIfCancelled(entry)) HeapPush(entry);
      --ring_count_;
      last = node;
      node = nodes_[node].next;
    }
    // The whole list joins the free list in one splice.
    nodes_[last].next = free_node_;
    free_node_ = bucket_head_[bucket];
    occupied_[bucket >> 6] &= ~(uint64_t{1} << (bucket & 63));
    return;
  }
}

// MADNET_HOT
bool EventQueue::SettleTop() {
  for (;;) {
    if (!near_.empty()) {
      if (!ReapIfCancelled(near_.front())) return true;
      HeapPop();  // The cancelled callback was freed by the reap.
      continue;
    }
    if (ring_count_ == 0 && overflow_.empty()) return false;
    AdvanceEpoch();
  }
}

// Shared by Push and PushReserved; forced inline because Push is the
// per-delivery hot path, and an outlined copy costs Push a call per event.
// MADNET_HOT
[[gnu::always_inline]] inline void EventQueue::Enqueue(EventId id, Time when,
                                                       Callback&& callback) {
  MADNET_DCHECK(when == when);  // NaN keys would corrupt the heap order.
  MADNET_DCHECK(callback != nullptr);
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(callback);
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(std::move(callback));
  }
  const Entry entry{when, static_cast<uint32_t>(id), slot};
  const int64_t e = EpochOf(when);
  if (e <= cur_epoch_) {
    // Current (or past — a zero-delay reschedule) epoch: straight into the
    // near heap so SettleTop sees it.
    HeapPush(entry);
  } else if (InRing(e)) {
    RingPush(entry, e);
  } else {
    // NOLINTNEXTLINE(madnet-hot-alloc): far-future events are rare.
    overflow_.push_back(entry);
    std::push_heap(overflow_.begin(), overflow_.end(), After);
  }
  ++live_count_;
}

// MADNET_HOT
EventId EventQueue::Push(Time when, Callback callback) {
  const EventId id = next_seq_++;
  // NOLINTNEXTLINE(madnet-hot-alloc): amortized O(1) per-id byte growth.
  state_.push_back(kPending);  // state_[id - 1].
  MADNET_DCHECK_LE(id, std::numeric_limits<uint32_t>::max());
  Enqueue(id, when, std::move(callback));
  return id;
}

void EventQueue::PushReserved(EventId id, Time when, Callback&& callback) {
  MADNET_DCHECK(id != kInvalidEventId && id < next_seq_);
  MADNET_DCHECK_EQ(state_[id - 1], kDone);  // Reserved and never pushed.
  state_[id - 1] = kPending;
  Enqueue(id, when, std::move(callback));
}

bool EventQueue::Cancel(EventId id) {
  // Only ids that were pushed and have neither run nor been cancelled are
  // cancellable. The entry stays put as a tombstone; its slot is reclaimed
  // when the entry reaches the top (or is migrated out of its bucket).
  if (id == kInvalidEventId || id >= next_seq_) return false;
  uint8_t& state = state_[id - 1];
  if (state != kPending) return false;
  state = kCancelled;
  --live_count_;
  return true;
}

EventQueue::Callback EventQueue::TakeSlot(uint32_t slot) {
  MADNET_DCHECK_LT(slot, slots_.size());
  MADNET_DCHECK(slots_[slot] != nullptr);  // Double-free of a slot.
  Callback callback = std::move(slots_[slot]);
  slots_[slot] = nullptr;
  free_slots_.push_back(slot);
  return callback;
}

Time EventQueue::NextTime() {
  const bool live = SettleTop();
  MADNET_DCHECK(live);  // NextTime() on an empty queue.
  (void)live;
  return near_.front().when;
}

std::pair<Time, EventQueue::Callback> EventQueue::Pop() {
  const bool live = SettleTop();
  MADNET_DCHECK(live);  // Pop() on an empty queue.
  (void)live;
  const Entry top = near_.front();  // Trivially copyable.
  // Heap integrity: extraction order is non-decreasing in time, and the
  // entry leaving the heap must still be pending (tombstones were reaped by
  // SettleTop above, and ids never re-enter the queue).
  MADNET_DCHECK_GE(top.when, last_pop_time_);
  MADNET_DCHECK_EQ(state_[top.seq - 1], kPending);
  last_pop_time_ = top.when;
  last_popped_ = top.seq;
  ++pops_;
  depth_sum_ += near_.size();
  HeapPop();
  state_[top.seq - 1] = kDone;
  --live_count_;
  return {top.when, TakeSlot(top.slot)};
}

void EventQueue::Clear() {
  near_.clear();
  nodes_.clear();
  free_node_ = kNil;
  occupied_.fill(0);
  ring_count_ = 0;
  overflow_.clear();
  cur_epoch_ = 0;
  slots_.clear();
  free_slots_.clear();
  // Outstanding ids become permanently non-cancellable (they neither run
  // nor linger); ids keep growing across Clear so old handles stay dead.
  std::fill(state_.begin(), state_.end(), kDone);
  live_count_ = 0;
  pops_ = 0;
  depth_sum_ = 0;
  last_pop_time_ = std::numeric_limits<Time>::lowest();
}

}  // namespace madnet::sim
