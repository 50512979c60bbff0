// Copyright (c) 2026 madnet authors. All rights reserved.

#include <cmath>

#include <gtest/gtest.h>

#include "mobility/trace.h"
#include "stats/delivery.h"
#include "stats/energy.h"
#include "stats/summary.h"

namespace madnet::stats {
namespace {

using mobility::Leg;
using mobility::Trace;
using mobility::TraceReplay;

TEST(EnergyModelTest, LinearInCounters) {
  EnergyModel model;
  model.tx_per_frame_j = 1.0;
  model.tx_per_byte_j = 0.1;
  model.rx_per_frame_j = 0.5;
  model.rx_per_byte_j = 0.01;
  EXPECT_DOUBLE_EQ(NodeEnergyJoules(0, 0, 0, 0, model), 0.0);
  EXPECT_DOUBLE_EQ(NodeEnergyJoules(2, 30, 4, 100, model),
                   2.0 + 3.0 + 2.0 + 1.0);
  // Transmit costs more than receive per frame with the defaults.
  EnergyModel defaults;
  EXPECT_GT(NodeEnergyJoules(1, 100, 0, 0, defaults),
            NodeEnergyJoules(0, 0, 1, 100, defaults));
}

TEST(SummaryTest, ConfidenceIntervalShrinksWithSamples) {
  Summary small;
  Summary large;
  for (int i = 0; i < 4; ++i) {
    small.Add(i % 2 == 0 ? 10.0 : 20.0);
  }
  for (int i = 0; i < 64; ++i) {
    large.Add(i % 2 == 0 ? 10.0 : 20.0);
  }
  EXPECT_GT(small.ConfidenceInterval95(), large.ConfidenceInterval95());
  Summary single;
  single.Add(5.0);
  EXPECT_DOUBLE_EQ(single.ConfidenceInterval95(), 0.0);
}

TEST(SummaryTest, EmptySummaryIsZero) {
  Summary s;
  EXPECT_EQ(s.Count(), 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.Min(), 0.0);
  EXPECT_DOUBLE_EQ(s.Max(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50.0), 0.0);
}

TEST(SummaryTest, BasicStatistics) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(v);
  EXPECT_EQ(s.Count(), 8u);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.Sum(), 40.0);
  EXPECT_DOUBLE_EQ(s.Min(), 2.0);
  EXPECT_DOUBLE_EQ(s.Max(), 9.0);
  // Sample stddev with n-1: sum sq dev = 32, 32/7.
  EXPECT_NEAR(s.Stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SummaryTest, PercentilesInterpolate) {
  Summary s;
  for (double v : {10.0, 20.0, 30.0, 40.0}) s.Add(v);
  EXPECT_DOUBLE_EQ(s.Percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100.0), 40.0);
  EXPECT_DOUBLE_EQ(s.Percentile(50.0), 25.0);
  EXPECT_DOUBLE_EQ(s.Percentile(25.0), 17.5);
  // Out-of-range p clamps.
  EXPECT_DOUBLE_EQ(s.Percentile(-5.0), 10.0);
  EXPECT_DOUBLE_EQ(s.Percentile(105.0), 40.0);
}

TEST(SummaryTest, AddAfterQueryResorts) {
  Summary s;
  s.Add(5.0);
  EXPECT_DOUBLE_EQ(s.Max(), 5.0);
  s.Add(10.0);
  EXPECT_DOUBLE_EQ(s.Max(), 10.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
}

TEST(SummaryTest, SingleValue) {
  Summary s;
  s.Add(3.3);
  EXPECT_DOUBLE_EQ(s.Stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.Percentile(37.0), 3.3);
}

// --- AreaTracker / DeliveryLog / ComputeDeliveryReport ---

TraceReplay MakePath(std::vector<Leg> legs) {
  auto trace = Trace::FromLegs(std::move(legs));
  EXPECT_TRUE(trace.ok());
  return TraceReplay(*trace);
}

TEST(AreaTrackerTest, DetectsTransit) {
  // A node crossing a circle of radius 100 at (500, 0), moving at 10 m/s
  // along the x axis starting at x=0: inside during [40, 60].
  AreaTracker tracker(Circle{{500.0, 0.0}, 100.0}, 0.0, 200.0);
  auto path = MakePath({Leg{0.0, 100.0, {0.0, 0.0}, {1000.0, 0.0}}});
  tracker.Observe(1, &path);
  ASSERT_EQ(tracker.ObservedCount(), 1u);
  EXPECT_EQ(tracker.PassedCount(), 1u);
  const Transit* transit = tracker.TransitOf(1);
  ASSERT_NE(transit, nullptr);
  ASSERT_TRUE(transit->Passed());
  EXPECT_NEAR(transit->FirstEnter(), 40.0, 1e-9);
  EXPECT_NEAR(transit->LastExit(), 60.0, 1e-9);
}

TEST(AreaTrackerTest, MissesNonTransit) {
  AreaTracker tracker(Circle{{500.0, 500.0}, 50.0}, 0.0, 200.0);
  auto path = MakePath({Leg{0.0, 100.0, {0.0, 0.0}, {1000.0, 0.0}}});
  tracker.Observe(1, &path);
  EXPECT_EQ(tracker.PassedCount(), 0u);
  EXPECT_FALSE(tracker.TransitOf(1)->Passed());
  EXPECT_EQ(tracker.TransitOf(99), nullptr);
}

TEST(AreaTrackerTest, WindowClipsTransit) {
  // Same crossing, but the window starts at t=50: transit is [50, 60].
  AreaTracker tracker(Circle{{500.0, 0.0}, 100.0}, 50.0, 200.0);
  auto path = MakePath({Leg{0.0, 100.0, {0.0, 0.0}, {1000.0, 0.0}}});
  tracker.Observe(1, &path);
  const Transit* transit = tracker.TransitOf(1);
  ASSERT_TRUE(transit->Passed());
  EXPECT_NEAR(transit->FirstEnter(), 50.0, 1e-9);
  EXPECT_NEAR(transit->LastExit(), 60.0, 1e-9);
}

TEST(DeliveryLogTest, KeepsEarliestReceipt) {
  DeliveryLog log;
  EXPECT_LT(log.FirstReceipt(1, 5), 0.0);
  log.RecordReceipt(1, 5, 30.0);
  log.RecordReceipt(1, 5, 20.0);
  log.RecordReceipt(1, 5, 40.0);
  EXPECT_DOUBLE_EQ(log.FirstReceipt(1, 5), 20.0);
  EXPECT_EQ(log.ReceiverCount(1), 1u);
  log.RecordReceipt(1, 6, 10.0);
  EXPECT_EQ(log.ReceiverCount(1), 2u);
  EXPECT_EQ(log.ReceiverCount(2), 0u);
}

class DeliveryReportTest : public ::testing::Test {
 protected:
  DeliveryReportTest()
      : tracker_(Circle{{500.0, 0.0}, 100.0}, 0.0, 200.0) {
    // Three peers crossing [40, 60]; one peer never passing.
    for (NodeId id = 1; id <= 3; ++id) {
      paths_.push_back(std::make_unique<TraceReplay>(
          *Trace::FromLegs({Leg{0.0, 100.0, {0.0, 0.0}, {1000.0, 0.0}}})));
      tracker_.Observe(id, paths_.back().get());
    }
    paths_.push_back(std::make_unique<TraceReplay>(
        *Trace::FromLegs({Leg{0.0, 100.0, {0.0, 500.0}, {1000.0, 500.0}}})));
    tracker_.Observe(4, paths_.back().get());
  }

  AreaTracker tracker_;
  DeliveryLog log_;
  std::vector<std::unique_ptr<TraceReplay>> paths_;
};

TEST_F(DeliveryReportTest, CountsDeliveredWhileInside) {
  log_.RecordReceipt(1, 1, 45.0);  // Inside the area: delivered, time 5.
  log_.RecordReceipt(1, 2, 70.0);  // After its exit: not delivered.
  // Peer 3 never received: not delivered. Peer 4 never passed: excluded.
  log_.RecordReceipt(1, 4, 50.0);
  DeliveryReport report = ComputeDeliveryReport(tracker_, log_, 1);
  EXPECT_EQ(report.peers_passed, 3u);
  EXPECT_EQ(report.peers_delivered, 1u);
  EXPECT_NEAR(report.DeliveryRatePercent(), 100.0 / 3.0, 1e-9);
  EXPECT_NEAR(report.MeanDeliveryTime(), 5.0, 1e-9);
}

TEST_F(DeliveryReportTest, ReceiptBeforeEnteringScoresZeroTime) {
  // Store & forward: the ad was already carried when entering.
  log_.RecordReceipt(1, 1, 10.0);
  DeliveryReport report = ComputeDeliveryReport(tracker_, log_, 1);
  EXPECT_EQ(report.peers_delivered, 1u);
  EXPECT_DOUBLE_EQ(report.MeanDeliveryTime(), 0.0);
}

TEST_F(DeliveryReportTest, EmptyLogZeroDelivered) {
  DeliveryReport report = ComputeDeliveryReport(tracker_, log_, 1);
  EXPECT_EQ(report.peers_passed, 3u);
  EXPECT_EQ(report.peers_delivered, 0u);
  EXPECT_DOUBLE_EQ(report.DeliveryRatePercent(), 0.0);
}

TEST(DeliveryReportTest2, NoPassersGivesZeroRate) {
  AreaTracker tracker(Circle{{0.0, 0.0}, 1.0}, 0.0, 10.0);
  DeliveryLog log;
  DeliveryReport report = ComputeDeliveryReport(tracker, log, 1);
  EXPECT_EQ(report.peers_passed, 0u);
  EXPECT_DOUBLE_EQ(report.DeliveryRatePercent(), 0.0);
}

}  // namespace
}  // namespace madnet::stats
