// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The pending-event set of the discrete-event simulator. Events at the same
// timestamp pop in scheduling order (FIFO), which makes whole runs
// deterministic: the (time, sequence) key is a strict total order, so
// extraction order does not depend on the container's internal arrangement.
//
// Layout is a calendar-style structure fitted to the traffic a run
// schedules. Measured on one 1000-peer run of each Figure 7 method, the
// pushes split by how far ahead of the clock they land:
//  - per-receiver deliveries, 0.5-2 ms ahead: 94% of flooding's pushes,
//    84% of gossip's, 66% of Opt-1's, 32% of Opt-2's, 23% of optimized's;
//  - flooding relays (jitter), under 1 s ahead: 5% of flooding's;
//  - gossip rounds and Opt-2 entry timers, 1-16 s ahead: the rest, except
//  - accumulated Opt-2 postpones, 16-64 s ahead (15% of Opt-2's pushes,
//    3% of optimized's) and beyond 64 s (1% of Opt-2's).
// The containers:
//  - `near_`: a 4-ary implicit heap holding only the current epoch's
//    entries. An epoch is 1/64 s, so the heap holds a few frames'
//    deliveries: mean depth at a pop is 34 for flooding, 10 for gossip,
//    8 for Opt-1, 5 for Opt-2 and 4 for optimized (119, 46, 44, 29 and 35
//    with 0.5 s epochs).
//  - the ring: 4096 buckets of unsorted entries, one per upcoming epoch,
//    a 64 s horizon that covers every recurring timer offset above.
//    Pushing into a future epoch is an O(1) list push with no sift. The
//    buckets are singly linked lists of nodes in one shared pool, so ring
//    memory follows the peak number of pending ring entries, and an
//    occupancy bitmap finds the next non-empty epoch with find-first-set.
//  - `overflow_`: entries beyond the horizon, a min-heap from which the
//    advancing window pops exactly the entries that come due.
// When the near heap drains, the next non-empty bucket is migrated into it
// (cancelled entries are dropped during migration instead of being sifted).
// Every entry still pops in exact (time, sequence) order: the near heap
// always contains every pending entry of the earliest non-empty epoch.
//
// Why 1/64 s. Replaying each method's recorded queue operations against
// widths from 1/2 to 1/256 s (queue alone, 21 interleaved rounds per width
// on a 2.1 GHz Xeon), the cost per pop falls with the heap's depth until
// the epoch nears the delivery spread: weighted by each method's share of
// a Figure 7 run, 1/64 s costs 17% less than 1/2 s, and 1/128 and 1/256 s
// are within 1% of 1/64 s. Below 1/64 s more deliveries cross into the
// next epoch and pay a ring transit (13% of flooding's pushes at 1/64 s,
// 20% at 1/128, 36% at 1/256) while the depth barely falls (34, 30, 26):
// it is bounded below by the deliveries in flight. So 1/64 s is the widest
// epoch at the minimum.
// The 64 s horizon (not 16 s) cut Opt-2's overflow pushes from 24% to
// 1.5% and its queue cost per pop by 17% in the same replay.
//
// Layout is driven by the broadcast hot path (one event per receiver per
// frame — millions per run): heap entries are 16-byte trivially-copyable
// keys so sift operations are memcpys, callbacks live in a recycled slot
// pool rather than inside the heap, and event lifecycle (pending / ran /
// cancelled) is a flat byte-per-id vector indexed by the monotonically
// increasing sequence number — no hash-set insert+erase per event. Ids can
// be reserved ahead of any push (Reserve/PushReserved); the medium keeps
// the ids of the deliveries it elides that way.

#ifndef MADNET_SIM_EVENT_QUEUE_H_
#define MADNET_SIM_EVENT_QUEUE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace madnet::sim {

/// Simulated time, in seconds.
using Time = double;

/// Opaque handle to a scheduled event; used to cancel it.
using EventId = uint64_t;

/// Sentinel returned for operations that could not produce an event.
inline constexpr EventId kInvalidEventId = 0;

/// A time-ordered queue of callbacks.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `callback` at absolute time `when`. Returns a handle that can
  /// cancel the event while it is still pending.
  EventId Push(Time when, Callback callback);

  /// Takes the id the next Push would get without queueing anything. The
  /// id may be pushed later with PushReserved, or never; until then it is
  /// not cancellable.
  EventId Reserve() {
    const EventId id = next_seq_++;
    // NOLINTNEXTLINE(madnet-hot-transitive-alloc): amortized O(1) per id.
    state_.push_back(kDone);  // state_[id - 1]: nothing queued under it.
    MADNET_DCHECK_LE(id, std::numeric_limits<uint32_t>::max());
    return id;
  }

  /// Queues `callback` at `when` under a Reserve()d id that was never
  /// pushed: it pops exactly where a Push at reservation time would have.
  void PushReserved(EventId id, Time when, Callback&& callback);

  /// Cancels a pending event. Returns false if the event already ran, was
  /// already cancelled, or never existed.
  bool Cancel(EventId id);

  /// True iff no runnable event is pending.
  bool Empty() const { return live_count_ == 0; }

  /// Number of runnable (non-cancelled) pending events.
  size_t Size() const { return live_count_; }

  /// Timestamp of the earliest runnable event. Requires !Empty().
  Time NextTime();

  /// Removes and returns the earliest runnable event. Requires !Empty().
  /// The returned pair is (time, callback).
  std::pair<Time, Callback> Pop();

  /// Id of the event the last Pop() returned (kInvalidEventId before any).
  EventId last_popped() const { return last_popped_; }

  /// Drops every pending event and zeroes the work counters.
  void Clear();

  /// Exact work counters: Pop() calls, and the near heap's size at each
  /// of them summed (depth_sum / pops is the mean depth a pop sifts
  /// through). Deterministic for a given push/cancel/pop sequence.
  uint64_t pops() const { return pops_; }
  uint64_t depth_sum() const { return depth_sum_; }

 private:
  struct Entry {
    Time when;
    // Tie-break: FIFO among same-time events; doubles as id. Narrowed to 32
    // bits so an entry is 16 bytes and a 4-ary node's children share one
    // cache line. Safe: state_ grows one byte per id, so a queue would need
    // > 4 GiB of lifecycle bytes before ids could wrap (DCHECKed in
    // Reserve).
    uint32_t seq;
    uint32_t slot;  // Index of the callback in slots_.
  };
  /// Strict total order: (when, seq) lexicographic. seq values are unique,
  /// so no two entries compare equal.
  static bool Before(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
  /// Reverse of Before, for the std:: heap algorithms (min-heap).
  static bool After(const Entry& a, const Entry& b) { return Before(b, a); }

  // Epochs per simulated second; the epoch width is its reciprocal. A
  // power of two, so `when * kEpochsPerSecond` is exact. Purely a
  // performance constant: epoch assignment never affects pop order, only
  // which container an entry waits in (derivation in the header comment).
  static constexpr double kEpochsPerSecond = 64.0;
  // Ring capacity in epochs; a power of two and a multiple of 64 (one
  // occupancy word per 64 buckets). The horizon kRingSize /
  // kEpochsPerSecond = 64 s covers the recurring timer offsets.
  static constexpr int64_t kRingSize = 4096;
  static constexpr int64_t kRingMask = kRingSize - 1;
  static constexpr size_t kOccupancyWords = kRingSize / 64;
  // End of a bucket list / of the free node list.
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();

  /// Epoch index of a timestamp, saturated so the ring arithmetic below
  /// never overflows.
  static int64_t EpochOf(Time when) {
    const double q = when * kEpochsPerSecond;
    if (!(q < 9.0e18)) return std::numeric_limits<int64_t>::max();
    if (!(q > -9.0e18)) return std::numeric_limits<int64_t>::min() / 2;
    int64_t k = static_cast<int64_t>(q);
    k -= static_cast<int64_t>(q < static_cast<double>(k));
    return k;
  }

  /// True iff epoch `e` (> cur_epoch_) lies inside the ring window.
  bool InRing(int64_t e) const {
    return static_cast<uint64_t>(e) - static_cast<uint64_t>(cur_epoch_) <
           static_cast<uint64_t>(kRingSize);
  }

  /// Sift `entry` up from the back of the near heap.
  void HeapPush(const Entry& entry);

  /// Removes the minimum (near_[0]) from the near heap.
  void HeapPop();

  /// Appends `entry` to the bucket of its epoch `e`, which must lie in the
  /// ring window.
  void RingPush(const Entry& entry, int64_t e);

  /// Epoch of the nearest non-empty ring bucket. Requires ring_count_ > 0.
  int64_t NextRingEpoch() const;

  /// Ensures near_[0] is the earliest live entry: reaps tombstones and
  /// migrates epochs forward as the near heap drains. Returns false when no
  /// runnable entry exists anywhere.
  bool SettleTop();

  /// Moves the next non-empty epoch's entries into the empty near heap,
  /// dropping cancelled entries. Requires pending entries in ring/overflow.
  void AdvanceEpoch();

  /// Moves every overflow entry the ring window now reaches into the
  /// ring, dropping cancelled ones; cost is proportional to the entries
  /// moved, not to the overflow's size.
  void RedistributeOverflow();

  /// Queues `callback` at `when` under `id`, whose state is already
  /// pending.
  void Enqueue(EventId id, Time when, Callback&& callback);

  /// Reaps a cancelled entry leaving a container (frees its callback) and
  /// returns true; false if the entry is still pending.
  bool ReapIfCancelled(const Entry& entry);

  // Lifecycle of an event id (state_[id - 1]). Done = ran, cancelled and
  // reaped, cleared, or reserved and not pushed; Cancelled = cancelled,
  // still queued.
  enum : uint8_t { kPending = 0, kDone = 1, kCancelled = 2 };

  /// Returns the callback slot `slot` to the free pool.
  Callback TakeSlot(uint32_t slot);

  /// A ring entry plus the index of the next node of its bucket's list.
  struct RingNode {
    Entry entry;
    uint32_t next;
  };

  std::vector<Entry> near_;  // Current epoch: 4-ary min-heap on Before().
  // Future epochs: bucket b holds the unsorted entries of the one window
  // epoch e with e & kRingMask == b, as a singly linked list of nodes in
  // the shared pool nodes_, so ring memory follows the peak number of
  // pending ring entries, not per-bucket high-water marks.
  std::vector<RingNode> nodes_;
  uint32_t free_node_ = kNil;  // Head of the recycled-node list.
  // Bit b set iff bucket b is non-empty: the next epoch is a find-first-set
  // over kOccupancyWords words instead of a probe of every bucket.
  std::array<uint64_t, kOccupancyWords> occupied_{};
  // First node of each bucket's list, meaningful only while the bucket's
  // occupancy bit is set, so neither construction nor Clear() writes it.
  std::array<uint32_t, kRingSize> bucket_head_;
  size_t ring_count_ = 0;  // Total entries across ring buckets.
  // Beyond the ring horizon: a min-heap on Before(), so the entries the
  // advancing window reaches come off its top.
  std::vector<Entry> overflow_;
  int64_t cur_epoch_ = 0;  // Epoch the near heap represents.
  std::vector<Callback> slots_;       // Callback storage, heap-independent.
  std::vector<uint32_t> free_slots_;  // Recyclable indices into slots_.
  std::vector<uint8_t> state_;        // Per-id lifecycle, indexed by id - 1.
  uint64_t next_seq_ = 1;  // 0 is kInvalidEventId.
  EventId last_popped_ = kInvalidEventId;
  size_t live_count_ = 0;
  uint64_t pops_ = 0;        // Pop() calls since construction/Clear().
  uint64_t depth_sum_ = 0;   // near_.size() at each of those pops.
  // Timestamp of the most recent Pop; Pop DCHECKs that extraction times
  // never move backwards (heap-integrity invariant).
  Time last_pop_time_ = std::numeric_limits<Time>::lowest();
};

}  // namespace madnet::sim

#endif  // MADNET_SIM_EVENT_QUEUE_H_
