// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/multi_ad.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/run_context.h"

namespace madnet::scenario {
namespace {

MultiAdConfig FastConfig(Method method = Method::kOptimized) {
  MultiAdConfig config;
  config.base.method = method;
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
  return config;
}

TEST(MultiAdConfigTest, Validation) {
  EXPECT_TRUE(FastConfig().Validate().ok());
  MultiAdConfig config = FastConfig();
  config.num_ads = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.ad_radius_m = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.first_issue_s = 1e9;  // After sim end.
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.border_margin_m = 2000.0;  // 2x margin exceeds the area.
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.base.num_peers = -1;  // Base validation propagates.
  EXPECT_FALSE(config.Validate().ok());
}

TEST(MultiAdTest, RunsAndScoresEveryAd) {
  MultiAdResult result = RunMultiAdScenario(FastConfig());
  ASSERT_EQ(result.ads.size(), 5u);
  std::set<uint64_t> keys;
  for (const auto& ad : result.ads) {
    EXPECT_NE(ad.key, 0u);
    keys.insert(ad.key);
    EXPECT_GT(ad.report.peers_passed, 0u);
  }
  EXPECT_EQ(keys.size(), 5u);  // Distinct ads.
  EXPECT_GT(result.MeanDeliveryRatePercent(), 70.0);
  EXPECT_GT(result.net.messages_sent, 0u);
}

TEST(MultiAdTest, IssueTimesAreStaggered) {
  MultiAdResult result = RunMultiAdScenario(FastConfig());
  for (size_t i = 0; i < result.ads.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.ads[i].issue_time, 30.0 + 25.0 * i);
  }
}

TEST(MultiAdTest, DeterministicInSeed) {
  MultiAdResult a = RunMultiAdScenario(FastConfig());
  MultiAdResult b = RunMultiAdScenario(FastConfig());
  EXPECT_EQ(a.net.messages_sent, b.net.messages_sent);
  for (size_t i = 0; i < a.ads.size(); ++i) {
    EXPECT_EQ(a.ads[i].report.peers_delivered,
              b.ads[i].report.peers_delivered);
  }
}

TEST(MultiAdTest, TinyCacheStillDelivers) {
  MultiAdConfig config = FastConfig();
  config.base.gossip.cache_capacity = 1;  // Five live ads, one slot.
  MultiAdResult result = RunMultiAdScenario(config);
  // Degrades but does not collapse: probability-ordered eviction keeps
  // each peer serving its locally most relevant ad.
  EXPECT_GT(result.MeanDeliveryRatePercent(), 40.0);
}

TEST(MultiAdTest, WorksAcrossMethods) {
  for (Method method : {Method::kFlooding, Method::kGossip,
                        Method::kResourceExchange}) {
    MultiAdResult result = RunMultiAdScenario(FastConfig(method));
    EXPECT_GT(result.MeanDeliveryRatePercent(), 50.0)
        << MethodName(method);
  }
}

TEST(MultiAdTest, MoreAdsMoreMessages) {
  MultiAdConfig small = FastConfig();
  small.num_ads = 2;
  MultiAdConfig large = FastConfig();
  large.num_ads = 8;
  large.issue_spacing_s = 10.0;
  const MultiAdResult a = RunMultiAdScenario(small);
  const MultiAdResult b = RunMultiAdScenario(large);
  EXPECT_GT(b.net.messages_sent, a.net.messages_sent);
}

TEST(MultiAdTest, ZipfStallsReuseFixedLocations) {
  MultiAdConfig config = FastConfig();
  config.num_ads = 12;
  config.issue_spacing_s = 10.0;
  config.num_stalls = 3;
  config.zipf_s = 1.2;
  ASSERT_TRUE(config.Validate().ok());
  MultiAdResult result = RunMultiAdScenario(config);
  std::map<std::pair<double, double>, int> by_location;
  for (const auto& ad : result.ads) {
    ++by_location[{ad.location.x, ad.location.y}];
  }
  // Twelve ads, at most three distinct issue locations.
  EXPECT_LE(by_location.size(), 3u);
  EXPECT_GE(by_location.size(), 1u);
}

TEST(MultiAdTest, HighZipfSkewConcentratesDemand) {
  MultiAdConfig config = FastConfig();
  config.num_ads = 20;
  config.issue_spacing_s = 5.0;
  config.num_stalls = 5;
  config.zipf_s = 4.0;  // Near-degenerate skew: rank-0 stall dominates.
  MultiAdResult result = RunMultiAdScenario(config);
  std::map<std::pair<double, double>, int> by_location;
  for (const auto& ad : result.ads) {
    ++by_location[{ad.location.x, ad.location.y}];
  }
  int busiest = 0;
  for (const auto& [loc, count] : by_location) busiest = std::max(busiest, count);
  // With s = 4 the top stall holds > 90% of the Zipf mass, so the modal
  // stall must carry a clear majority of the 20 ads.
  EXPECT_GE(busiest, 12);
}

TEST(MultiAdTest, StallAssignmentDeterministicInSeed) {
  MultiAdConfig config = FastConfig();
  config.num_stalls = 4;
  MultiAdResult a = RunMultiAdScenario(config);
  MultiAdResult b = RunMultiAdScenario(config);
  for (size_t i = 0; i < a.ads.size(); ++i) {
    EXPECT_EQ(a.ads[i].location, b.ads[i].location);
  }
}

TEST(MultiAdTest, ChurnSkipsEveryIssuer) {
  // Fault plans run in multi-ad scenarios too. Every peer (node ids from
  // num_ads on) churns, and no issuer does.
  MultiAdConfig config = FastConfig(Method::kGossip);
  config.base.fault.churn_rate = 1.0;
  config.base.fault.churn_crash = true;
  obs::RunContext context{obs::TraceOptions{obs::kTraceFault}};
  EXPECT_GT(Scenario(config, &context).Run().fault.crashes, 0u);
  std::istringstream lines(context.trace.text());
  for (std::string line; std::getline(lines, line);) {
    const size_t at = line.find("\"node\":");
    if (at == std::string::npos) continue;  // The run header.
    EXPECT_GE(std::stoi(line.substr(at + 7)), config.num_ads) << line;
  }
}

TEST(MultiAdConfigTest, RejectsNegativeStallsAndZipf) {
  MultiAdConfig config = FastConfig();
  config.num_stalls = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = FastConfig();
  config.zipf_s = -0.5;
  EXPECT_FALSE(config.Validate().ok());
}

class MultiAdIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test file name: ctest -j runs these cases as separate processes
    // concurrently, and a shared path makes them race on each other's data.
    path_ = ::testing::TempDir() + "/madnet_multi_ad_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".cfg";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& content) {
    std::ofstream out(path_, std::ios::trunc);
    out << content;
  }

  /// Loads the file, which must sniff as multi-ad.
  Status Load(MultiAdConfig* config) {
    bool is_multi_ad = false;
    Status status = LoadScenarioFileAuto(path_, config, &is_multi_ad);
    EXPECT_TRUE(is_multi_ad);
    return status;
  }

  std::string path_;
};

TEST_F(MultiAdIoTest, LoadsMultiAdKeysOverDefaults) {
  WriteFile(
      "method = optimized\n"
      "peers = 150\n"
      "area = 3000\n"
      "sim_time = 600\n"
      "ads = 6\n"
      "first_issue = 40\n"
      "issue_spacing = 20\n"
      "ad_radius = 500\n"
      "ad_duration = 200\n"
      "border_margin = 500\n"
      "stalls = 3\n"
      "zipf = 1.5\n");
  MultiAdConfig config;
  ASSERT_TRUE(Load(&config).ok());
  EXPECT_EQ(config.num_ads, 6);
  EXPECT_DOUBLE_EQ(config.first_issue_s, 40.0);
  EXPECT_DOUBLE_EQ(config.issue_spacing_s, 20.0);
  EXPECT_DOUBLE_EQ(config.ad_radius_m, 500.0);
  EXPECT_DOUBLE_EQ(config.ad_duration_s, 200.0);
  EXPECT_DOUBLE_EQ(config.border_margin_m, 500.0);
  EXPECT_EQ(config.num_stalls, 3);
  EXPECT_DOUBLE_EQ(config.zipf_s, 1.5);
  EXPECT_EQ(config.base.num_peers, 150);  // Base keys route to base.
}

TEST_F(MultiAdIoTest, SaveLoadRoundTripsIdentically) {
  MultiAdConfig original = FastConfig();
  original.num_stalls = 4;
  original.zipf_s = 2.0;
  ASSERT_TRUE(original.Validate().ok());
  const std::string first = SaveMultiAdConfigText(original);
  WriteFile(first);
  MultiAdConfig loaded;
  ASSERT_TRUE(Load(&loaded).ok());
  EXPECT_EQ(SaveMultiAdConfigText(loaded), first);
  EXPECT_EQ(loaded.num_ads, original.num_ads);
  EXPECT_EQ(loaded.num_stalls, 4);
  EXPECT_DOUBLE_EQ(loaded.zipf_s, 2.0);
}

TEST_F(MultiAdIoTest, AutoLoaderSniffsKind) {
  WriteFile("peers = 100\n");
  MultiAdConfig loaded;
  bool is_multi_ad = true;
  ASSERT_TRUE(LoadScenarioFileAuto(path_, &loaded, &is_multi_ad).ok());
  EXPECT_FALSE(is_multi_ad);
  EXPECT_EQ(loaded.base.num_peers, 100);

  WriteFile("peers = 150\narea = 3000\nsim_time = 600\nads = 3\n");
  ASSERT_TRUE(LoadScenarioFileAuto(path_, &loaded, &is_multi_ad).ok());
  EXPECT_TRUE(is_multi_ad);
  EXPECT_EQ(loaded.num_ads, 3);
}

TEST_F(MultiAdIoTest, BadMultiAdValueNamesKeyAndLine) {
  WriteFile("ads = 3\nad_radius = wide\n");
  MultiAdConfig config;
  Status status = Load(&config);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(":2:"), std::string::npos)
      << status.message();
  EXPECT_NE(status.message().find("ad_radius"), std::string::npos)
      << status.message();
}

TEST_F(MultiAdIoTest, MultiAdFileWithFaultPlanLoads) {
  WriteFile("ads = 3\nchurn_rate = 0.2\n");
  MultiAdConfig config;
  ASSERT_TRUE(Load(&config).ok());
  EXPECT_EQ(config.num_ads, 3);
  EXPECT_DOUBLE_EQ(config.base.fault.churn_rate, 0.2);
}

}  // namespace
}  // namespace madnet::scenario
