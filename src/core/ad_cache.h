// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Per-peer advertisement cache (paper, Section III-A and Algorithms 1/3):
// received advertisements are kept sorted by forwarding probability and the
// cache retains only the top-k; the lowest-probability entry is dropped on
// overflow. Each entry also carries the per-advertisement gossip scheduling
// state used by Optimization 2 (independent time handler per entry).

#ifndef MADNET_CORE_AD_CACHE_H_
#define MADNET_CORE_AD_CACHE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/advertisement.h"
#include "sim/event_queue.h"

namespace madnet::core {

/// One cached advertisement plus its scheduling state.
struct CacheEntry {
  Advertisement ad;
  /// Immutable on-air copy of the current version of `ad` and its wire
  /// size, shared by every broadcast of that version. Null until a
  /// broadcast needs it; reset whenever a merge changes R, D or the
  /// sketches.
  std::shared_ptr<const GossipMessage> snapshot;
  uint32_t snapshot_bytes = 0;
  double probability = 0.0;       ///< Last refreshed forwarding probability.
  sim::Time next_gossip_time = 0; ///< Scheduled broadcast time (Opt-2 path).
  sim::EventId timer = sim::kInvalidEventId;  ///< Pending per-entry event.
};

/// A bounded map AdKey -> CacheEntry with probability-ordered eviction.
class AdCache {
 public:
  /// Creates a cache holding at most `capacity` advertisements (k >= 1).
  explicit AdCache(size_t capacity);

  /// Looks up an entry; nullptr if absent. The pointer stays valid until
  /// the entry is erased or evicted.
  // MADNET_HOT
  CacheEntry* Find(uint64_t key) {
    // Linear scan of the flat key index: the cache is top-k bounded (k is
    // ~10 in the paper), so scanning a dense key array beats walking the
    // map. The map stays the owner — its key-sorted iteration order is
    // part of the determinism contract (ForEach/EraseIf feed RNG draws) —
    // while the side index only accelerates point lookups.
    for (size_t i = 0; i < index_keys_.size(); ++i) {
      if (index_keys_[i] == key) return index_values_[i];
    }
    return nullptr;
  }
  const CacheEntry* Find(uint64_t key) const {
    return const_cast<AdCache*>(this)->Find(key);
  }

  /// Inserts a new entry (Algorithm 1). If the cache is full, callers must
  /// refresh probabilities first, then the lowest-probability entry —
  /// possibly the incoming one — is dropped. Returns the inserted entry, or
  /// nullptr if the incoming entry itself was the drop victim. If an
  /// *existing* entry was evicted, its pending timer id is written to
  /// `evicted_timer` (sim::kInvalidEventId otherwise) so the caller can
  /// cancel it. Requires the key not to be present (asserts in debug
  /// builds).
  CacheEntry* Insert(CacheEntry entry, sim::EventId* evicted_timer);

  /// Removes an entry. Returns the removed entry's timer id (so the caller
  /// can cancel it), or sim::kInvalidEventId if the key was absent.
  sim::EventId Erase(uint64_t key);

  /// Applies `fn` to every entry (typically to refresh probabilities or
  /// collect expired ads). Mutation of entries is allowed; erasure is not.
  void ForEach(const std::function<void(uint64_t, CacheEntry&)>& fn);

  /// Visits every entry in ascending key order, erasing those for which
  /// `fn(key, entry)` returns true (read the entry's timer inside `fn`;
  /// the entry is gone afterwards). Allocates nothing.
  template <typename Fn>
  void EraseIf(Fn&& fn) {
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (fn(it->first, it->second)) {
        IndexRemove(it->first);
        it = entries_.erase(it);
      } else {
        ++it;
      }
    }
  }

  size_t Size() const { return entries_.size(); }
  size_t Capacity() const { return capacity_; }
  bool Full() const { return entries_.size() >= capacity_; }

 private:
  /// Key of the entry with the lowest probability (ties: larger key, for
  /// determinism). Requires a non-empty cache.
  uint64_t LowestProbabilityKey() const;

  /// Removes `key` from the flat Find index (no-op if absent).
  void IndexRemove(uint64_t key);

  size_t capacity_;
  // Ordered on purpose: ForEach/EraseIf iterate this map and their visit order
  // feeds RNG draws (opportunistic_gossip), so iteration must be identical
  // across platforms and standard-library versions — std::map's key order
  // is; a hash map's bucket order is not (rule madnet-unordered-iteration).
  std::map<uint64_t, CacheEntry> entries_;
  // Flat mirror of entries_ for Find: parallel key/pointer arrays, order
  // irrelevant (only entries_ defines iteration order). Map node pointers
  // are stable until erase, so the cached pointers never dangle.
  std::vector<uint64_t> index_keys_;
  std::vector<CacheEntry*> index_values_;
};

}  // namespace madnet::core

#endif  // MADNET_CORE_AD_CACHE_H_
