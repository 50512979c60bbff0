// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Equivalence of the elided delivery path. An untraced run books the
// deliveries its receivers Ignores() without scheduling them; a run with
// the `rx` trace category on schedules every delivery and runs every
// OnReceive. Both must report the same results, counter for counter and
// node for node, for every golden-matrix case, a churn + loss-episode +
// jammer case, and multi-ad runs with and without cache eviction. Only the event
// machinery's own counters (events, queue pops and depth, dispatch gaps)
// may differ. The golden digests run fully traced, so they never reach the
// elided path; this test does.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/run_context.h"
#include "obs/trace.h"
#include "scenario/multi_ad.h"
#include "scenario/scenario.h"

namespace madnet::scenario {
namespace {

enum class Condition { kPlain, kCsma, kChurn, kFaults };

/// The golden matrix's configuration (scenario_golden_aggregates_test.cc),
/// plus a condition with every fault family.
ScenarioConfig CaseConfig(Method method, Condition condition) {
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
    case Condition::kFaults:
      // Churn, loss episodes and a jammer at four times the density, so
      // frames are in flight when peers go down, when episodes start (0.1
      // s into flood rounds, whose relays take up to 0.2 s) and when the
      // jammer switches on between two episodes. Each recall trigger
      // fires with elided deliveries pending.
      config.num_peers = 400;
      config.area_size_m = 3500.0;
      config.issue_location = {1750.0, 1750.0};
      config.fault.loss_extra = 0.3;
      config.fault.loss_episode_s = 1.0;
      config.fault.loss_period_s = 2.5;
      config.fault.loss_start_s = 35.1;
      config.fault.outage_rect = Rect{{1250.0, 1250.0}, {2250.0, 2250.0}};
      config.fault.outage_start_s = 60.05;
      config.fault.outage_end_s = 150.0;
      config.fault.churn_rate = 0.5;
      config.fault.churn_up_s = 10.0;
      config.fault.churn_down_s = 5.0;
      break;
  }
  return config;
}

/// Everything a run reports that elision must not change.
struct Observed {
  RunResult result;
  std::vector<uint64_t> received;
  std::vector<uint64_t> received_bytes;
};

/// `Config` is ScenarioConfig or MultiAdConfig.
template <typename Config>
Observed RunObserved(const Config& config, obs::RunContext* obs) {
  Scenario scenario(config, obs);
  Observed observed;
  observed.result = scenario.Run();
  for (net::NodeId id : scenario.medium()->node_ids()) {
    observed.received.push_back(scenario.medium()->ReceivedBy(id));
    observed.received_bytes.push_back(scenario.medium()->ReceivedBytesBy(id));
  }
  return observed;
}

obs::TraceOptions Categories(uint32_t categories) {
  obs::TraceOptions options;
  options.categories = categories;
  return options;
}

void ExpectSameNet(const net::MediumStats& a, const net::MediumStats& b) {
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.dropped_loss, b.dropped_loss);
  EXPECT_EQ(a.dropped_collision, b.dropped_collision);
  EXPECT_EQ(a.dropped_offline, b.dropped_offline);
  EXPECT_EQ(a.dropped_jammed, b.dropped_jammed);
  EXPECT_EQ(a.dropped_mac_busy, b.dropped_mac_busy);
  EXPECT_EQ(a.mac_defers, b.mac_defers);
  EXPECT_EQ(a.batch_memo_hits, b.batch_memo_hits);
  EXPECT_EQ(a.index_epochs, b.index_epochs);
  EXPECT_EQ(a.index_refreshes, b.index_refreshes);
  EXPECT_EQ(a.index_positions, b.index_positions);
  EXPECT_EQ(a.arena_frames_peak, b.arena_frames_peak);
}

void ExpectSameReport(const stats::DeliveryReport& a,
                      const stats::DeliveryReport& b) {
  EXPECT_EQ(a.peers_passed, b.peers_passed);
  EXPECT_EQ(a.peers_delivered, b.peers_delivered);
  EXPECT_EQ(a.delivery_times.Sum(), b.delivery_times.Sum());
  EXPECT_EQ(a.delivery_times.ToString(), b.delivery_times.ToString());
}

/// Everything a run reports except the event machinery's own counters.
void ExpectSameOutcome(const Observed& a, const Observed& b) {
  ExpectSameNet(a.result.net, b.result.net);
  ASSERT_EQ(a.result.ads.size(), b.result.ads.size());
  for (size_t i = 0; i < a.result.ads.size(); ++i) {
    EXPECT_EQ(a.result.ads[i].key, b.result.ads[i].key);
    ExpectSameReport(a.result.ads[i].report, b.result.ads[i].report);
  }
  EXPECT_EQ(a.result.fault.node_downs, b.result.fault.node_downs);
  EXPECT_EQ(a.result.fault.crashes, b.result.fault.crashes);
  EXPECT_EQ(a.result.fault.loss_episodes, b.result.fault.loss_episodes);
  EXPECT_EQ(a.result.fault.outages, b.result.fault.outages);
  EXPECT_EQ(a.result.sketch_merges, b.result.sketch_merges);
  EXPECT_EQ(a.result.final_rank, b.result.final_rank);
  EXPECT_EQ(a.result.final_radius_m, b.result.final_radius_m);
  EXPECT_EQ(a.result.final_duration_s, b.result.final_duration_s);
  EXPECT_EQ(a.received, b.received);
  EXPECT_EQ(a.received_bytes, b.received_bytes);
}

struct Case {
  const char* name;
  Method method;
  Condition condition;
  bool elides;  ///< Whether the untraced run elides anything.
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

// Ranking (the opt1/optimized rows here), Opt-2, exchange and CSMA never
// elide; flooding and pure gossip do, under churn and faults too.
const Case kCases[] = {
    {"flooding_plain", Method::kFlooding, Condition::kPlain, true},
    {"flooding_csma", Method::kFlooding, Condition::kCsma, false},
    {"flooding_churn", Method::kFlooding, Condition::kChurn, true},
    {"flooding_faults", Method::kFlooding, Condition::kFaults, true},
    {"gossip_plain", Method::kGossip, Condition::kPlain, true},
    {"gossip_csma", Method::kGossip, Condition::kCsma, false},
    {"gossip_churn", Method::kGossip, Condition::kChurn, true},
    {"gossip_faults", Method::kGossip, Condition::kFaults, true},
    {"opt1_plain", Method::kOptimized1, Condition::kPlain, false},
    {"opt1_csma", Method::kOptimized1, Condition::kCsma, false},
    {"opt1_churn", Method::kOptimized1, Condition::kChurn, false},
    {"opt2_plain", Method::kOptimized2, Condition::kPlain, false},
    {"opt2_csma", Method::kOptimized2, Condition::kCsma, false},
    {"opt2_churn", Method::kOptimized2, Condition::kChurn, false},
    {"optimized_plain", Method::kOptimized, Condition::kPlain, false},
    {"optimized_csma", Method::kOptimized, Condition::kCsma, false},
    {"optimized_churn", Method::kOptimized, Condition::kChurn, false},
    {"exchange_plain", Method::kResourceExchange, Condition::kPlain, false},
    {"exchange_csma", Method::kResourceExchange, Condition::kCsma, false},
    {"exchange_churn", Method::kResourceExchange, Condition::kChurn, false},
};

class ElisionEquivalenceTest : public ::testing::TestWithParam<Case> {};

TEST_P(ElisionEquivalenceTest, UntracedMatchesRxTraced) {
  const Case& c = GetParam();
  const ScenarioConfig config = CaseConfig(c.method, c.condition);
  const Observed elided = RunObserved(config, nullptr);
  obs::RunContext rx_context{Categories(obs::kTraceRx)};
  const Observed scheduled = RunObserved(config, &rx_context);

  // With rx traced nothing is elided; untraced, flooding and pure gossip
  // elide most deliveries, and each elided one is an event fewer.
  EXPECT_EQ(scheduled.result.net.elided, 0u);
  if (c.elides) {
    EXPECT_GT(elided.result.net.elided, 0u);
  } else {
    EXPECT_EQ(elided.result.net.elided, 0u);
  }
  EXPECT_EQ(elided.result.events_executed + elided.result.net.elided,
            scheduled.result.events_executed);

  ExpectSameOutcome(elided, scheduled);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ElisionEquivalenceTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

/// A quiet session (every category off, tile load and metrics on) still
/// elides, and books elided deliveries into the tile map at their own time
/// and position: its metrics equal the rx-traced session's, except the
/// event machinery's.
TEST(ElisionQuietSessionTest, MetricsMatchRxTraced) {
  for (Method method : {Method::kFlooding, Method::kGossip}) {
    const ScenarioConfig config = CaseConfig(method, Condition::kPlain);
    obs::RunContext quiet{Categories(0)};
    obs::RunContext rx{Categories(obs::kTraceRx)};
    const Observed elided = RunObserved(config, &quiet);
    const Observed scheduled = RunObserved(config, &rx);
    EXPECT_GT(elided.result.net.elided, 0u);
    EXPECT_EQ(scheduled.result.net.elided, 0u);

    auto counters = [](const obs::MetricsRegistry& metrics) {
      auto all = metrics.counters();
      all.erase("sim.events_executed");
      all.erase("sim.queue_pops");
      all.erase("sim.queue_depth_sum");
      return all;
    };
    EXPECT_EQ(counters(quiet.metrics), counters(rx.metrics));
    EXPECT_EQ(quiet.metrics.gauges(), rx.metrics.gauges());
    EXPECT_GT(quiet.metrics.gauges().count("medium.tile.deliveries_max"), 0u);
    for (const auto& [name, histogram] : rx.metrics.histograms()) {
      if (name == "sim.dispatch_gap_s") continue;
      const auto it = quiet.metrics.histograms().find(name);
      ASSERT_NE(it, quiet.metrics.histograms().end()) << name;
      EXPECT_EQ(it->second.counts(), histogram.counts()) << name;
      EXPECT_EQ(it->second.sum(), histogram.sum()) << name;
    }
  }
}

/// An observed fault run gets a flight recorder, and the recorder keeps no
/// notes of elided deliveries: a quiet session under crash churn still
/// elides, and reports exactly what the unobserved run reports.
TEST(ElisionQuietSessionTest, CrashChurnRunElidesUnderRecorder) {
  for (Method method : {Method::kFlooding, Method::kGossip}) {
    SCOPED_TRACE(MethodName(method));
    const ScenarioConfig config = CaseConfig(method, Condition::kChurn);
    obs::RunContext quiet{Categories(0)};
    const Observed observed = RunObserved(config, &quiet);
    const Observed plain = RunObserved(config, nullptr);
    EXPECT_GT(observed.result.net.elided, 0u);
    EXPECT_EQ(observed.result.net.elided, plain.result.net.elided);
    EXPECT_EQ(observed.result.events_executed, plain.result.events_executed);
    EXPECT_EQ(observed.result.queue_pops, plain.result.queue_pops);
    EXPECT_EQ(observed.result.queue_depth_sum, plain.result.queue_depth_sum);
    ExpectSameOutcome(observed, plain);
  }
}

/// Five overlapping ads; with a two-entry cache peers evict, and every
/// eviction recalls the peer's elided deliveries.
MultiAdConfig MultiAd(size_t cache_capacity) {
  MultiAdConfig config;
  config.base.method = Method::kGossip;
  config.base.num_peers = 150;
  config.base.area_size_m = 3000.0;
  config.base.sim_time_s = 600.0;
  config.base.seed = 4;
  config.base.gossip.cache_capacity = cache_capacity;
  config.num_ads = 5;
  config.first_issue_s = 30.0;
  config.issue_spacing_s = 25.0;
  config.ad_radius_m = 600.0;
  config.ad_duration_s = 250.0;
  config.border_margin_m = 600.0;
  return config;
}

TEST(ElisionMultiAdTest, UntracedMatchesRxTraced) {
  for (size_t capacity : {size_t{10}, size_t{2}}) {
    SCOPED_TRACE(capacity);
    const MultiAdConfig config = MultiAd(capacity);
    const Observed elided = RunObserved(config, nullptr);
    obs::RunContext rx_context{Categories(obs::kTraceRx)};
    const Observed scheduled = RunObserved(config, &rx_context);
    EXPECT_GT(elided.result.net.elided, 0u);
    EXPECT_EQ(scheduled.result.net.elided, 0u);
    ASSERT_EQ(elided.result.ads.size(), 5u);
    ExpectSameOutcome(elided, scheduled);
  }
}

}  // namespace
}  // namespace madnet::scenario
