// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/ad_cache.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace madnet::core {
namespace {

CacheEntry MakeEntry(uint32_t seq, double probability,
                     sim::EventId timer = sim::kInvalidEventId) {
  CacheEntry entry;
  entry.ad.id = AdId{1, seq};
  entry.probability = probability;
  entry.timer = timer;
  return entry;
}

TEST(AdCacheTest, InsertAndFind) {
  AdCache cache(3);
  sim::EventId evicted;
  CacheEntry* inserted = cache.Insert(MakeEntry(1, 0.5), &evicted);
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(evicted, sim::kInvalidEventId);
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_NE(cache.Find(AdId{1, 1}.Key()), nullptr);
  EXPECT_EQ(cache.Find(AdId{1, 2}.Key()), nullptr);
}

TEST(AdCacheTest, EvictsLowestProbability) {
  AdCache cache(2);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.9, 101), &evicted);
  cache.Insert(MakeEntry(2, 0.2, 102), &evicted);
  // Full; inserting a better entry evicts seq 2 (probability 0.2).
  CacheEntry* inserted = cache.Insert(MakeEntry(3, 0.5, 103), &evicted);
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(evicted, 102u);
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.Find(AdId{1, 2}.Key()), nullptr);
  EXPECT_NE(cache.Find(AdId{1, 1}.Key()), nullptr);
  EXPECT_NE(cache.Find(AdId{1, 3}.Key()), nullptr);
}

TEST(AdCacheTest, IncomingEntryCanLose) {
  AdCache cache(2);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.9), &evicted);
  cache.Insert(MakeEntry(2, 0.8), &evicted);
  CacheEntry* inserted = cache.Insert(MakeEntry(3, 0.1), &evicted);
  EXPECT_EQ(inserted, nullptr);
  EXPECT_EQ(evicted, sim::kInvalidEventId);
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.Find(AdId{1, 3}.Key()), nullptr);
}

TEST(AdCacheTest, TieGoesAgainstIncoming) {
  AdCache cache(1);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.5), &evicted);
  EXPECT_EQ(cache.Insert(MakeEntry(2, 0.5), &evicted), nullptr);
  EXPECT_NE(cache.Find(AdId{1, 1}.Key()), nullptr);
}

TEST(AdCacheTest, EraseReturnsTimer) {
  AdCache cache(2);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.5, 77), &evicted);
  EXPECT_EQ(cache.Erase(AdId{1, 1}.Key()), 77u);
  EXPECT_EQ(cache.Size(), 0u);
  EXPECT_EQ(cache.Erase(AdId{1, 1}.Key()), sim::kInvalidEventId);
}

TEST(AdCacheTest, ForEachVisitsAllAndMutates) {
  AdCache cache(5);
  sim::EventId evicted;
  for (uint32_t i = 1; i <= 4; ++i) {
    cache.Insert(MakeEntry(i, 0.1 * i), &evicted);
  }
  cache.ForEach([](uint64_t, CacheEntry& entry) { entry.probability = 0.99; });
  int count = 0;
  cache.ForEach([&](uint64_t, CacheEntry& entry) {
    EXPECT_DOUBLE_EQ(entry.probability, 0.99);
    ++count;
  });
  EXPECT_EQ(count, 4);
}

TEST(AdCacheTest, EraseIfVisitsInKeyOrder) {
  AdCache cache(5);
  sim::EventId evicted;
  for (uint32_t seq : {3u, 1u, 4u, 2u}) {
    cache.Insert(MakeEntry(seq, 0.1 * seq), &evicted);
  }
  std::vector<uint64_t> visited;
  cache.EraseIf([&](uint64_t key, CacheEntry& entry) {
    visited.push_back(key);
    entry.probability = 0.9;
    return key == AdId{1, 2}.Key() || key == AdId{1, 4}.Key();
  });
  std::vector<uint64_t> sorted = visited;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(visited, sorted);  // Ascending key order, as ForEach.
  EXPECT_EQ(visited.size(), 4u);
  // Erased entries are gone from both the map and the Find index; the
  // kept ones carry the mutation.
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.Find(AdId{1, 2}.Key()), nullptr);
  EXPECT_EQ(cache.Find(AdId{1, 4}.Key()), nullptr);
  ASSERT_NE(cache.Find(AdId{1, 1}.Key()), nullptr);
  EXPECT_DOUBLE_EQ(cache.Find(AdId{1, 3}.Key())->probability, 0.9);
  int remaining = 0;
  cache.ForEach([&](uint64_t, CacheEntry&) { ++remaining; });
  EXPECT_EQ(remaining, 2);
}

TEST(AdCacheTest, CapacityOne) {
  AdCache cache(1);
  EXPECT_EQ(cache.Capacity(), 1u);
  sim::EventId evicted;
  cache.Insert(MakeEntry(1, 0.2, 11), &evicted);
  EXPECT_TRUE(cache.Full());
  CacheEntry* inserted = cache.Insert(MakeEntry(2, 0.7, 22), &evicted);
  ASSERT_NE(inserted, nullptr);
  EXPECT_EQ(evicted, 11u);
  EXPECT_EQ(cache.Size(), 1u);
}

TEST(AdCacheTest, PointerStableUntilErase) {
  AdCache cache(10);
  sim::EventId evicted;
  CacheEntry* a = cache.Insert(MakeEntry(1, 0.5), &evicted);
  cache.Insert(MakeEntry(2, 0.6), &evicted);
  cache.Insert(MakeEntry(3, 0.7), &evicted);
  EXPECT_EQ(cache.Find(AdId{1, 1}.Key()), a);
  a->probability = 0.42;
  EXPECT_DOUBLE_EQ(cache.Find(AdId{1, 1}.Key())->probability, 0.42);
}

}  // namespace
}  // namespace madnet::core
