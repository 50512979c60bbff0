// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Exact heap-allocation witness for the broadcast-storm receive path. This
// binary replaces the global operator new with a counting one and pins the
// number of allocations one 200-peer Restricted Flooding run, one 200-peer
// pure-gossip run and one 200-peer resource-exchange run make, so a change
// that puts a heap allocation back on a per-delivery or per-broadcast path
// fails deterministically.
//
// The counts depend on the standard library (std::function's inline
// buffer, container growth policies), so they are pinned for the CI
// toolchain (GCC/libstdc++ on x86-64). Sanitizer runtimes interpose their
// own allocator; the pins are skipped there. A failing case prints the
// observed count to paste in.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include <gtest/gtest.h>

#include "scenario/scenario.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* block = std::malloc(size);
  if (block == nullptr) throw std::bad_alloc();
  return block;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* block) noexcept { std::free(block); }
void operator delete[](void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete[](void* block, std::size_t) noexcept { std::free(block); }

namespace madnet::scenario {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// The golden matrix's plain 200-peer configuration (see
/// scenario_golden_aggregates_test.cc).
ScenarioConfig AllocConfig(Method method) {
  ScenarioConfig config;
  config.method = method;
  config.num_peers = 200;
  config.area_size_m = 5000.0;
  config.issue_location = {2500.0, 2500.0};
  config.initial_radius_m = 1000.0;
  config.initial_duration_s = 300.0;
  config.sim_time_s = 450.0;
  config.issue_time_s = 30.0;
  config.seed = 3;
  return config;
}

struct Counted {
  uint64_t allocations = 0;
  RunResult result;
};

Counted CountRun(Method method) {
  const ScenarioConfig config = AllocConfig(method);
  Counted counted;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  counted.result = RunScenario(config);
  counted.allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  return counted;
}

TEST(AllocCountTest, CounterSeesAllocations) {
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  auto block = std::make_unique<int>(7);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 1u);
}

TEST(AllocCountTest, FloodingRun) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposes";
  const Counted counted = CountRun(Method::kFlooding);
  // Same run as the golden flooding_plain row. A relay callback too large
  // for std::function's inline buffer (one capturing a whole Packet)
  // would add one allocation per relay, about 900 here.
  ASSERT_EQ(counted.result.net.messages_sent, 994u);
  EXPECT_EQ(counted.allocations, 2565u)
      << "regenerate: " << counted.allocations;
}

TEST(AllocCountTest, PureGossipRun) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposes";
  const Counted counted = CountRun(Method::kGossip);
  // Same run as the golden gossip_plain row. Copying the Advertisement
  // into a fresh payload per broadcast instead of sharing the entry's
  // snapshot would add about four allocations per broadcast, about 9,700
  // here.
  ASSERT_EQ(counted.result.net.messages_sent, 2413u);
  EXPECT_EQ(counted.allocations, 2904u)
      << "regenerate: " << counted.allocations;
}

TEST(AllocCountTest, ResourceExchangeRun) {
  if (kSanitized) GTEST_SKIP() << "sanitizer allocator interposes";
  const Counted counted = CountRun(Method::kResourceExchange);
  // Same run as the golden exchange_plain row. Every beacon shares its
  // node's one hello payload; a fresh payload per beacon would add one
  // allocation per beacon, about 45,000 here. What remains is per
  // encounter: the batch frame and the Advertisement copies it carries
  // and each receiver stores.
  ASSERT_EQ(counted.result.net.messages_sent, 48339u);
  EXPECT_EQ(counted.allocations, 130311u)
      << "regenerate: " << counted.allocations;
}

}  // namespace
}  // namespace madnet::scenario
