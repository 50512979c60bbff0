// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Scenario-corpus smoke tests: every file under scenarios/ loads through
// the sniffing loader, runs end-to-end, and lands inside the baseline
// ranges documented in EXPERIMENTS.md ("Scenario corpus"). A second,
// table-driven suite pins the exact diagnostic of every negative fixture
// under tests/fixtures/scenarios/ — the fail-fast contract of
// docs/scenario_schema.md, asserted character for character.

#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "scenario/multi_ad.h"
#include "scenario/scenario.h"

#ifndef MADNET_SCENARIO_DIR
#error "build must define MADNET_SCENARIO_DIR (see tests/CMakeLists.txt)"
#endif
#ifndef MADNET_FIXTURE_DIR
#error "build must define MADNET_FIXTURE_DIR (see tests/CMakeLists.txt)"
#endif

namespace madnet::scenario {
namespace {

std::string CorpusPath(const std::string& name) {
  return std::string(MADNET_SCENARIO_DIR) + "/" + name;
}

/// Loads one corpus file through the same sniffing entry point as
/// `madnet_run --validate-only`, asserting the expected kind.
MultiAdConfig LoadCorpus(const std::string& name, bool expect_multi_ad) {
  MultiAdConfig loaded;
  bool is_multi_ad = false;
  Status status = LoadScenarioFileAuto(CorpusPath(name), &loaded,
                                       &is_multi_ad);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(is_multi_ad, expect_multi_ad) << name;
  return loaded;
}

void ExpectNoFaults(const fault::FaultStats& fault) {
  EXPECT_EQ(fault.node_downs, 0u);
  EXPECT_EQ(fault.node_rejoins, 0u);
  EXPECT_EQ(fault.crashes, 0u);
  EXPECT_EQ(fault.loss_episodes, 0u);
  EXPECT_EQ(fault.outages, 0u);
}

// Baseline ranges: the corpus is deterministic in its committed seed, so
// the ranges are wide enough to absorb cross-platform floating-point
// drift but tight enough to catch a regressed protocol or a silently
// re-interpreted key. Update EXPERIMENTS.md when retuning.

TEST(ScenarioCorpusTest, ManhattanRushHour) {
  MultiAdConfig config = LoadCorpus("manhattan_rush_hour.cfg", false);
  EXPECT_EQ(config.base.mobility, Mobility::kManhattanGrid);
  EXPECT_EQ(config.base.num_peers, 400);
  const RunResult result = RunScenario(config.base);
  // Baseline (seed 7): 100% of 259 passing peers, 1135 messages.
  EXPECT_GE(result.DeliveryRatePercent(), 95.0);
  EXPECT_GE(result.report.peers_passed, 150u);
  EXPECT_GE(result.Messages(), 500u);
  EXPECT_LE(result.Messages(), 2500u);
  ExpectNoFaults(result.fault);
}

TEST(ScenarioCorpusTest, StadiumFlashCrowd) {
  MultiAdConfig config = LoadCorpus("stadium_flash_crowd.cfg", false);
  EXPECT_EQ(config.base.mobility, Mobility::kHotspot);
  EXPECT_EQ(config.base.num_peers, 2000);
  ASSERT_TRUE(config.base.fault.OutageEnabled());
  const RunResult result = RunScenario(config.base);
  // Baseline (seed 11): 100% of 1999 passing peers, 1515 messages, one
  // jammer activation over [60, 120] s.
  EXPECT_GE(result.DeliveryRatePercent(), 95.0);
  EXPECT_GE(result.report.peers_passed, 1500u);
  EXPECT_GE(result.Messages(), 800u);
  EXPECT_LE(result.Messages(), 4000u);
  EXPECT_GE(result.fault.outages, 1u);
  EXPECT_EQ(result.fault.node_downs, 0u);  // No churn in this scenario.
}

TEST(ScenarioCorpusTest, HighwayStrip) {
  MultiAdConfig config = LoadCorpus("highway_strip.cfg", false);
  EXPECT_EQ(config.base.mobility, Mobility::kHighway);
  ASSERT_TRUE(config.base.fault.ChurnEnabled());
  // The loader auto-raises max_speed to cover speed + speed_delta.
  EXPECT_GE(config.base.medium.max_speed_mps, 35.0);
  const RunResult result = RunScenario(config.base);
  // Baseline (seed 3): 100% of 130 passing peers, 730 messages, with
  // ignition churn cycling vehicle radios throughout the run.
  EXPECT_GE(result.DeliveryRatePercent(), 85.0);
  EXPECT_GE(result.report.peers_passed, 80u);
  EXPECT_GE(result.Messages(), 300u);
  EXPECT_LE(result.Messages(), 2000u);
  EXPECT_GE(result.fault.node_downs, 1u);
  EXPECT_EQ(result.fault.crashes, 0u);  // churn_crash is off.
  EXPECT_EQ(result.fault.outages, 0u);
}

TEST(ScenarioCorpusTest, RuralSparse) {
  MultiAdConfig config = LoadCorpus("rural_sparse.cfg", false);
  EXPECT_EQ(config.base.num_peers, 100);
  EXPECT_FALSE(config.base.fault.Enabled());
  const RunResult result = RunScenario(config.base);
  // Baseline (seed 5): 98.9% of 90 passing peers, 4636 messages. The
  // sparse regime is the only corpus point where delivery dips below
  // 100%, so the lower bound is the interesting one.
  EXPECT_GE(result.DeliveryRatePercent(), 80.0);
  EXPECT_LE(result.DeliveryRatePercent(), 100.0);
  EXPECT_GE(result.report.peers_passed, 50u);
  EXPECT_GE(result.Messages(), 2000u);
  EXPECT_LE(result.Messages(), 9000u);
  // No fault keys in the file: every counter must be exactly zero
  // (the disabled-plan run is byte-identical to a pre-fault-layer one).
  ExpectNoFaults(result.fault);
}

TEST(ScenarioCorpusTest, MarketplaceZipf) {
  MultiAdConfig config = LoadCorpus("marketplace_zipf.cfg", true);
  EXPECT_EQ(config.num_ads, 12);
  EXPECT_EQ(config.num_stalls, 4);
  EXPECT_DOUBLE_EQ(config.zipf_s, 1.5);
  const MultiAdResult result = RunMultiAdScenario(config);
  ASSERT_EQ(result.ads.size(), 12u);
  // Zipf demand over 4 stalls: at most 4 distinct issue locations, with
  // the modal stall carrying a plurality of the 12 ads.
  std::map<std::pair<double, double>, int> by_location;
  for (const auto& ad : result.ads) {
    ++by_location[{ad.location.x, ad.location.y}];
  }
  EXPECT_LE(by_location.size(), 4u);
  int busiest = 0;
  for (const auto& [loc, count] : by_location) {
    if (count > busiest) busiest = count;
  }
  EXPECT_GE(busiest, 4);
  // Baseline (seed 21, see EXPERIMENTS.md).
  EXPECT_GE(result.MeanDeliveryRatePercent(), 60.0);
  EXPECT_GT(result.net.messages_sent, 1000u);
  EXPECT_LT(result.net.messages_sent, 100000u);
}

// --- Negative fixtures -----------------------------------------------------

struct NegativeFixture {
  const char* file;
  /// The exact diagnostic, excluding the leading fixture path (the path
  /// depends on the checkout location; everything after it must match
  /// character for character).
  const char* diagnostic;
};

TEST(ScenarioCorpusTest, NegativeFixturesFailWithExactDiagnostics) {
  const NegativeFixture fixtures[] = {
      {"bad_trailing_garbage.cfg",
       ":1: key 'range': not a number: '250m'"},
      {"bad_empty_value.cfg", ":1: key 'peers': empty integer"},
      {"bad_overflow.cfg", ":1: key 'radius': number out of range: '1e999'"},
      {"bad_zero_peers.cfg",
       ": key 'peers' = 0: accepted range [1, inf) — the issuer (node 0, "
       "governed by key 'issuer_offline') needs at least one mobile peer "
       "to deliver to"},
      {"bad_offarena_jammer.cfg",
       ": keys 'outage_x0/y0/x1/y1' = (900, 900)..(1400, 1400): the "
       "jammer rectangle must lie inside the arena [0, 1000]^2 (key "
       "'area') — an off-arena jammer jams nothing"},
      {"bad_offarena_issuer.cfg",
       ": keys 'issue_x'/'issue_y' = (9000, 2500): the issuing location "
       "must lie inside the arena [0, 5000]^2 (key 'area')"},
      {"bad_unknown_key.cfg",
       ":1: unknown config key 'rage' (see docs/scenario_schema.md)"},
      {"bad_retired_tiles.cfg",
       ":1: unknown config key 'tiles' (see docs/scenario_schema.md)"},
      {"bad_negative_cache.cfg",
       ":1: key 'cache' = -5: must be a non-negative integer"},
      {"bad_hotspot_sigma.cfg",
       ": key 'hotspot_sigma' = 600: accepted range [0, area/2) = [0, "
       "500) when hotspot_extra > 0 — extra hotspot centres are placed "
       "one sigma inside the arena (key 'area')"},
      {"bad_multi_fault.cfg",
       ": keys 'churn_rate'/'loss_extra'/'outage_*': fault plans are not "
       "supported in multi-ad scenarios (key 'ads') — the multi-ad "
       "harness builds no FaultInjector, so the plan would be silently "
       "ignored"},
      {"bad_max_speed.cfg",
       ": key 'max_speed' = 12: must cover the fastest mobile peer, "
       "speed + speed_delta = 15 (keys 'speed'/'speed_delta') — the "
       "spatial index uses it as staleness slack"},
      {"bad_method.cfg",
       ":1: key 'method' = 'teleport': unknown method (accepted: "
       "flooding|gossip|optimized1|optimized2|optimized|exchange)"},
      {"bad_missing_equals.cfg",
       ":1: expected 'key = value', got 'peers 100'"},
  };
  for (const NegativeFixture& fixture : fixtures) {
    const std::string path =
        std::string(MADNET_FIXTURE_DIR) + "/" + fixture.file;
    MultiAdConfig loaded;
    bool is_multi_ad = false;
    Status status = LoadScenarioFileAuto(path, &loaded, &is_multi_ad);
    ASSERT_FALSE(status.ok()) << fixture.file << " unexpectedly loaded";
    EXPECT_EQ(status.message(), path + fixture.diagnostic) << fixture.file;
  }
}

}  // namespace
}  // namespace madnet::scenario
