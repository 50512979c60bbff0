// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/ad_cache.h"

#include <cassert>

namespace madnet::core {

AdCache::AdCache(size_t capacity) : capacity_(capacity) {
  assert(capacity >= 1);
}

void AdCache::IndexRemove(uint64_t key) {
  for (size_t i = 0; i < index_keys_.size(); ++i) {
    if (index_keys_[i] == key) {
      index_keys_[i] = index_keys_.back();
      index_keys_.pop_back();
      index_values_[i] = index_values_.back();
      index_values_.pop_back();
      return;
    }
  }
}

uint64_t AdCache::LowestProbabilityKey() const {
  assert(!entries_.empty());
  uint64_t worst_key = 0;
  double worst_probability = 2.0;  // Above any real probability.
  bool first = true;
  for (const auto& [key, entry] : entries_) {
    if (first || entry.probability < worst_probability ||
        (entry.probability == worst_probability && key > worst_key)) {
      worst_key = key;
      worst_probability = entry.probability;
      first = false;
    }
  }
  return worst_key;
}

CacheEntry* AdCache::Insert(CacheEntry entry, sim::EventId* evicted_timer) {
  assert(evicted_timer != nullptr);
  *evicted_timer = sim::kInvalidEventId;
  const uint64_t key = entry.ad.id.Key();
  assert(entries_.find(key) == entries_.end() &&
         "Insert of a key already cached");
  if (Full()) {
    // Algorithm 1: drop the least-probability entry, counting the incoming
    // one as a candidate victim.
    const uint64_t victim = LowestProbabilityKey();
    const auto victim_it = entries_.find(victim);
    if (victim_it->second.probability >= entry.probability) {
      return nullptr;  // The newcomer loses; nothing changes.
    }
    *evicted_timer = victim_it->second.timer;
    IndexRemove(victim);
    entries_.erase(victim_it);
  }
  // The receive path reaches Insert only for an ad the peer does not
  // cache (once per ad, or again after an eviction), never for the
  // duplicates that make up a broadcast storm.
  // NOLINTNEXTLINE(madnet-hot-transitive-alloc): cold branch, see above.
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  assert(inserted);
  (void)inserted;
  // NOLINTNEXTLINE(madnet-hot-transitive-alloc): cold branch, see above.
  index_keys_.push_back(key);
  // NOLINTNEXTLINE(madnet-hot-transitive-alloc): cold branch, see above.
  index_values_.push_back(&it->second);
  return &it->second;
}

sim::EventId AdCache::Erase(uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return sim::kInvalidEventId;
  const sim::EventId timer = it->second.timer;
  IndexRemove(key);
  entries_.erase(it);
  return timer;
}

void AdCache::ForEach(const std::function<void(uint64_t, CacheEntry&)>& fn) {
  for (auto& [key, entry] : entries_) fn(key, entry);
}

}  // namespace madnet::core
