// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Behaviour anchor: pins the bit-exact RunResult aggregates of a small
// scenario matrix — every method under plain, CSMA and crash-churn
// conditions, plus one multi-ad gossip run — so a refactor or optimisation
// that claims "same results" is held to it by ctest, not by review.
// Floating-point values are compared through their hexfloat spelling (%a),
// which is exact.
//
// Regenerating (only when a change is *meant* to alter results): run
//   build/tests/scenario_golden_aggregates_test
// and replace each failing case's literal with the "regenerate:" line the
// failure prints. The aggregate literals were produced by the code before
// idle gossip rounds were parked, and parking them changed none of them;
// only the event count pin below moved.
//
// GoldenDigestTest pins FNV-1a digests of the full trace text (every
// category, unsampled) and of the metrics JSON for the same matrix. Trace
// records carry libm-computed positions and times as text, so these
// digests are pinned for the CI toolchain (GCC/libstdc++/glibc on
// x86-64); another toolchain may legitimately print other bytes.
// Regenerate them the same way: a failing case prints its literal. They
// were generated before the receive-path rework (payload kind tags, flat
// per-ad state, shared ad snapshots, sketch merges only when ranking), and
// that rework changed none of them. The one metrics key it added,
// core.sketch_merges, is its witness and so is pinned by value instead.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "obs/manifest.h"
#include "obs/run_context.h"
#include "scenario/multi_ad.h"
#include "scenario/scenario.h"

namespace madnet::scenario {
namespace {

enum class Condition { kPlain, kCsma, kChurn };

/// 200 peers at half the Table II density, so delivery falls short of
/// 100%. The ad expires at t = 330 s of a 450 s run, so unranked gossip
/// peers spend the last two minutes with empty caches. Opt-1 and Optimized
/// runs rank the ad and stop at t = 300 s, while cached copies still carry
/// a final rank and radius to pin.
ScenarioConfig GoldenConfig(Method method, Condition condition) {
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
  if (method == Method::kOptimized1 || method == Method::kOptimized) {
    config.gossip.ranking = true;
    config.assign_interests = true;
    config.interest_options.universe =
        core::InterestGenerator::DefaultUniverse();
    config.sim_time_s = 300.0;
  }
  switch (condition) {
    case Condition::kPlain:
      break;
    case Condition::kCsma:
      config.medium.csma = true;
      break;
    case Condition::kChurn:
      config.fault.churn_rate = 0.3;
      config.fault.churn_up_s = 60.0;
      config.fault.churn_down_s = 30.0;
      config.fault.churn_crash = true;
      break;
  }
  return config;
}

std::string Hex(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

std::string Row(const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "passed=%" PRIu64 " delivered=%" PRIu64 " msgs=%" PRIu64
                " deliveries=%" PRIu64,
                r.report.peers_passed, r.report.peers_delivered,
                r.net.messages_sent, r.net.deliveries);
  return std::string(buf) + " rate=" + Hex(r.DeliveryRatePercent()) +
         " mean=" + Hex(r.MeanDeliveryTime()) + " rank=" +
         Hex(r.final_rank) + " radius=" + Hex(r.final_radius_m);
}

struct GoldenCase {
  const char* name;
  Method method;
  Condition condition;
  const char* expected;
};

// Names the case in test listings instead of dumping its bytes.
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

// clang-format off
const GoldenCase kCases[] = {
    {"flooding_plain", Method::kFlooding, Condition::kPlain,
     "passed=120 delivered=99 msgs=994 deliveries=3766 rate=0x1.4ap+6 mean=0x1.fdd350427222dp+4 rank=0x0p+0 radius=0x0p+0"},
    {"flooding_csma", Method::kFlooding, Condition::kCsma,
     "passed=120 delivered=99 msgs=994 deliveries=3723 rate=0x1.4ap+6 mean=0x1.fdee6ff9550edp+4 rank=0x0p+0 radius=0x0p+0"},
    {"flooding_churn", Method::kFlooding, Condition::kChurn,
     "passed=120 delivered=93 msgs=879 deliveries=3320 rate=0x1.36p+6 mean=0x1.3582a4b86627fp+5 rank=0x0p+0 radius=0x0p+0"},
    {"gossip_plain", Method::kGossip, Condition::kPlain,
     "passed=120 delivered=113 msgs=2413 deliveries=8000 rate=0x1.78aaaaaaaaaabp+6 mean=0x1.956ff59d426fbp+2 rank=0x0p+0 radius=0x0p+0"},
    {"gossip_csma", Method::kGossip, Condition::kCsma,
     "passed=120 delivered=113 msgs=2413 deliveries=7998 rate=0x1.78aaaaaaaaaabp+6 mean=0x1.957a875deb74fp+2 rank=0x0p+0 radius=0x0p+0"},
    {"gossip_churn", Method::kGossip, Condition::kChurn,
     "passed=120 delivered=111 msgs=2242 deliveries=7136 rate=0x1.72p+6 mean=0x1.3bb7d38f581f4p+3 rank=0x0p+0 radius=0x0p+0"},
    {"opt1_plain", Method::kOptimized1, Condition::kPlain,
     "passed=114 delivered=109 msgs=1174 deliveries=3593 rate=0x1.7e74c59d31675p+6 mean=0x1.ab3461d243784p+3 rank=0x1.2f7d99bed564cp+5 radius=0x1.4cbc245e27a6ep+10"},
    {"opt1_csma", Method::kOptimized1, Condition::kCsma,
     "passed=114 delivered=109 msgs=1174 deliveries=3589 rate=0x1.7e74c59d31675p+6 mean=0x1.ab3944b903c4ep+3 rank=0x1.2f7d99bed564cp+5 radius=0x1.4cbc245e27a6ep+10"},
    {"opt1_churn", Method::kOptimized1, Condition::kChurn,
     "passed=114 delivered=103 msgs=935 deliveries=2706 rate=0x1.69674c59d3167p+6 mean=0x1.e22f110f68596p+3 rank=0x1.0a80c6e464629p+5 radius=0x1.52f266f16966ep+10"},
    {"opt2_plain", Method::kOptimized2, Condition::kPlain,
     "passed=120 delivered=108 msgs=964 deliveries=2543 rate=0x1.68p+6 mean=0x1.bf0a7ee92cca8p+3 rank=0x0p+0 radius=0x0p+0"},
    {"opt2_csma", Method::kOptimized2, Condition::kCsma,
     "passed=120 delivered=108 msgs=958 deliveries=2544 rate=0x1.68p+6 mean=0x1.bcd0d624224a7p+3 rank=0x0p+0 radius=0x0p+0"},
    {"opt2_churn", Method::kOptimized2, Condition::kChurn,
     "passed=120 delivered=108 msgs=939 deliveries=2315 rate=0x1.68p+6 mean=0x1.e7bf97c724154p+3 rank=0x0p+0 radius=0x0p+0"},
    {"optimized_plain", Method::kOptimized, Condition::kPlain,
     "passed=114 delivered=103 msgs=511 deliveries=1402 rate=0x1.69674c59d3167p+6 mean=0x1.a55a9eff6aed5p+4 rank=0x1.599c96ddb259dp+4 radius=0x1.49e7cbd4dd9f4p+10"},
    {"optimized_csma", Method::kOptimized, Condition::kCsma,
     "passed=114 delivered=103 msgs=511 deliveries=1401 rate=0x1.69674c59d3167p+6 mean=0x1.a56d7ed877234p+4 rank=0x1.599c96ddb259dp+4 radius=0x1.49e7cbd4dd9f4p+10"},
    {"optimized_churn", Method::kOptimized, Condition::kChurn,
     "passed=114 delivered=97 msgs=432 deliveries=1175 rate=0x1.5459d31674c5ap+6 mean=0x1.f1d481cc516efp+4 rank=0x1.2f7d99bed564cp+4 radius=0x1.429eb5688d3dfp+10"},
    {"exchange_plain", Method::kResourceExchange, Condition::kPlain,
     "passed=120 delivered=118 msgs=48339 deliveries=117036 rate=0x1.8955555555555p+6 mean=0x1.ea9c96a190a2ap+1 rank=0x0p+0 radius=0x0p+0"},
    {"exchange_csma", Method::kResourceExchange, Condition::kCsma,
     "passed=120 delivered=118 msgs=48339 deliveries=116685 rate=0x1.8955555555555p+6 mean=0x1.eaa5766f6327fp+1 rank=0x0p+0 radius=0x0p+0"},
    {"exchange_churn", Method::kResourceExchange, Condition::kChurn,
     "passed=120 delivered=117 msgs=43579 deliveries=98395 rate=0x1.86p+6 mean=0x1.1e1a2f9fed09p+2 rank=0x0p+0 radius=0x0p+0"},
};

// Five ads, all expired by t = 380 s of a 600 s run.
constexpr char kMultiAdGossip[] =
    "msgs=7178 deliveries=47421 rate=0x1.87d85c5e74f49p+6 mean=0x1.432cc1ab8f0d8p+1 84/87 99/99 78/79 69/73 103/103";
// clang-format on

class GoldenMatrixTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenMatrixTest, MatchesPinnedRow) {
  const GoldenCase& c = GetParam();
  const RunResult result = RunScenario(GoldenConfig(c.method, c.condition));
  const std::string actual = Row(result);
  EXPECT_EQ(actual, c.expected)
      << "regenerate: {\"" << c.name << "\", ..., \"" << actual << "\"},";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenMatrixTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

struct DigestCase {
  const char* name;
  Method method;
  Condition condition;
  const char* expected;  ///< "trace=<hex> metrics=<hex>".
  uint64_t sketch_merges;
};

constexpr char kSketchMergesKey[] = "\"core.sketch_merges\":";

/// The metrics JSON without the core.sketch_merges counter: every byte the
/// digests were generated over.
std::string WithoutSketchMerges(std::string json) {
  const size_t begin = json.find(kSketchMergesKey);
  if (begin == std::string::npos) return json;
  size_t end = begin + sizeof(kSketchMergesKey) - 1;
  while (end < json.size() && json[end] >= '0' && json[end] <= '9') ++end;
  if (end < json.size() && json[end] == ',') ++end;
  return json.erase(begin, end - begin);
}

void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.name; }

// clang-format off
const DigestCase kDigestCases[] = {
    {"flooding_plain", Method::kFlooding, Condition::kPlain,
     "trace=c65f73b0d94035e7 metrics=2c20b112378bdd89", 0},
    {"flooding_csma", Method::kFlooding, Condition::kCsma,
     "trace=9766a94428a6c78d metrics=7f122a348666db9d", 0},
    {"flooding_churn", Method::kFlooding, Condition::kChurn,
     "trace=add9e20a97db1b74 metrics=3f33647625d79eb7", 0},
    {"gossip_plain", Method::kGossip, Condition::kPlain,
     "trace=d52b3ebc70712b1b metrics=05c46c374e9028c4", 0},
    {"gossip_csma", Method::kGossip, Condition::kCsma,
     "trace=b48cf732a5a42e29 metrics=5b5b1be77fa076ce", 0},
    {"gossip_churn", Method::kGossip, Condition::kChurn,
     "trace=b092ca187178dd83 metrics=9383c4f8307200c7", 0},
    {"opt1_plain", Method::kOptimized1, Condition::kPlain,
     "trace=665683d0e33ca482 metrics=1e4b9d48c94aa475", 3442},
    {"opt1_csma", Method::kOptimized1, Condition::kCsma,
     "trace=338f74d4ef8062ee metrics=2497576a959ce8fc", 3438},
    {"opt1_churn", Method::kOptimized1, Condition::kChurn,
     "trace=aecb371eb9e02c90 metrics=a72d41a785dbd73d", 2534},
    {"opt2_plain", Method::kOptimized2, Condition::kPlain,
     "trace=00edcedc6956bc9c metrics=ed1f415b60c23e89", 0},
    {"opt2_csma", Method::kOptimized2, Condition::kCsma,
     "trace=162db1f634d2f8d4 metrics=afaa4352e3aa802c", 0},
    {"opt2_churn", Method::kOptimized2, Condition::kChurn,
     "trace=8c8daf9e8d9428dd metrics=b36a32b8c834bd69", 0},
    {"optimized_plain", Method::kOptimized, Condition::kPlain,
     "trace=27af596033d1f6ce metrics=122270ef09bd8287", 1260},
    {"optimized_csma", Method::kOptimized, Condition::kCsma,
     "trace=2725b49f5c72adcf metrics=822b438670647e31", 1259},
    {"optimized_churn", Method::kOptimized, Condition::kChurn,
     "trace=688c4f3a4ac76578 metrics=a3157fb99a4c4a61", 1026},
    {"exchange_plain", Method::kResourceExchange, Condition::kPlain,
     "trace=0d056067efdfcdb6 metrics=005d85575b768e3b", 0},
    {"exchange_csma", Method::kResourceExchange, Condition::kCsma,
     "trace=020afd3d668611b4 metrics=21e20a85c184ea27", 0},
    {"exchange_churn", Method::kResourceExchange, Condition::kChurn,
     "trace=949d43aeb01ff3a5 metrics=02d64821a2dde2b6", 0},
};
// clang-format on

class GoldenDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(GoldenDigestTest, MatchesPinnedDigests) {
  const DigestCase& c = GetParam();
  obs::TraceOptions trace_options;
  trace_options.categories = obs::kTraceAll;
  obs::RunContext context{trace_options};
  const RunResult result =
      RunScenario(GoldenConfig(c.method, c.condition), &context);
  const std::string json = context.metrics.ToJson();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "trace=%016" PRIx64 " metrics=%016" PRIx64,
                obs::Fnv1a64(context.trace.text()),
                obs::Fnv1a64(WithoutSketchMerges(json)));
  const std::string actual = buf;
  EXPECT_EQ(actual, c.expected)
      << "regenerate: {\"" << c.name << "\", ..., \"" << actual << "\", "
      << result.sketch_merges << "},";
  // Sketch merges happen only where ranking reads the sketches.
  EXPECT_EQ(result.sketch_merges, c.sketch_merges);
  EXPECT_NE(json.find(std::string(kSketchMergesKey) +
                      std::to_string(c.sketch_merges)),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenDigestTest, ::testing::ValuesIn(kDigestCases),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.name);
    });

TEST(GoldenAggregatesTest, PureGossipEventCount) {
  // Exact simulator work of gossip_plain. Rounds over an empty cache are
  // parked, not fired; with an always-on round timer this run executed 26091
  // events, so reintroducing idle rounds fails this deterministically.
  // Duplicates a peer Ignores() are booked without an event: 7873 of the
  // 8000 deliveries. Scheduling them again executed 13292 events.
  const RunResult result =
      RunScenario(GoldenConfig(Method::kGossip, Condition::kPlain));
  EXPECT_EQ(result.net.elided, 7873u);
  EXPECT_EQ(result.events_executed, 5419u);
  // Exact spatial-index work of the same run: snapshot rebuilds, and the
  // positions they and the lazy epochs between them evaluated.
  EXPECT_EQ(result.net.index_refreshes, 201u);
  EXPECT_EQ(result.net.index_positions, 41980u);
  // Exact event-queue work: one pop per event, and the near heap's size
  // summed over the pops. With 0.5 s epochs the sum was 106855 (mean
  // depth 8.04) and with every delivery queued 29331 (2.21); the 1/64 s
  // epoch holds only a few frames' deliveries, so widening it again fails
  // this deterministically.
  EXPECT_EQ(result.queue_pops, 5419u);
  EXPECT_EQ(result.queue_depth_sum, 6493u);
}

TEST(GoldenAggregatesTest, SparseArenaIndexWork) {
  // 20k peers at Table II density (300 per 5 km square) around a 3 km ad:
  // gossip lives near the ad, so index work must scale with the queries
  // there, not with epochs x peers as a per-epoch full rebuild would.
  ScenarioConfig config = ScenarioConfig::PaperDefaults();
  config.method = Method::kGossip;
  config.num_peers = 20000;
  config.area_size_m = 5000.0 * std::sqrt(config.num_peers / 300.0);
  config.issue_location = {config.area_size_m / 2.0, config.area_size_m / 2.0};
  config.initial_radius_m = 3000.0;
  config.issue_time_s = 5.0;
  config.sim_time_s = 120.0;
  config.seed = 2;
  const RunResult result = RunScenario(config);
  EXPECT_EQ(result.net.messages_sent, 1718u);
  EXPECT_EQ(result.net.index_epochs, 103u);
  EXPECT_EQ(result.net.index_refreshes, 7u);
  EXPECT_EQ(result.net.index_positions, 152160u);
  EXPECT_LT(result.net.index_positions * 5,
            result.net.index_epochs * static_cast<uint64_t>(config.num_peers));
}

TEST(GoldenAggregatesTest, MultiAdGossip) {
  MultiAdConfig config;
  config.base.method = Method::kGossip;
  config.base.num_peers = 150;
  config.base.area_size_m = 3000.0;
  config.base.sim_time_s = 600.0;
  config.base.seed = 4;
  config.num_ads = 5;
  config.first_issue_s = 30.0;
  config.issue_spacing_s = 25.0;
  config.ad_radius_m = 600.0;
  config.ad_duration_s = 250.0;
  config.border_margin_m = 600.0;
  const MultiAdResult result = RunMultiAdScenario(config);
  char buf[128];
  std::snprintf(buf, sizeof(buf), "msgs=%" PRIu64 " deliveries=%" PRIu64,
                result.net.messages_sent, result.net.deliveries);
  std::string actual = std::string(buf) + " rate=" +
                       Hex(result.MeanDeliveryRatePercent()) + " mean=" +
                       Hex(result.MeanDeliveryTime());
  for (const MultiAdResult::PerAd& ad : result.ads) {
    std::snprintf(buf, sizeof(buf), " %" PRIu64 "/%" PRIu64,
                  ad.report.peers_delivered, ad.report.peers_passed);
    actual += buf;
  }
  EXPECT_EQ(actual, kMultiAdGossip)
      << "regenerate: \"" << actual << "\"";
}

}  // namespace
}  // namespace madnet::scenario
