// Copyright (c) 2026 madnet authors. All rights reserved.

#include "net/medium.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mobility/constant_velocity.h"
#include "mobility/random_waypoint.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "test_receiver.h"
#include "util/random.h"

namespace madnet::net {
namespace {

using mobility::ConstantVelocity;
using mobility::RandomWaypoint;
using mobility::Stationary;
using sim::Simulator;

struct TestPayload : Payload {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

Packet MakePacket(int value, uint32_t size = 100) {
  Packet p;
  p.payload = std::make_shared<TestPayload>(value);
  p.size_bytes = size;
  return p;
}

class MediumTest : public ::testing::Test {
 protected:
  /// Builds a medium with stationary nodes at the given positions.
  void Build(const std::vector<Vec2>& positions,
             Medium::Options options = {}) {
    options_ = options;
    medium_ = std::make_unique<Medium>(options, &sim_, Rng(7));
    received_.assign(positions.size(), {});
    for (size_t i = 0; i < positions.size(); ++i) {
      mobilities_.push_back(std::make_unique<Stationary>(positions[i]));
      ASSERT_TRUE(
          medium_->AddNode(static_cast<NodeId>(i), mobilities_.back().get())
              .ok());
      receivers_.push_back(std::make_unique<CallbackReceiver>(
          [this, i](const Packet& p, NodeId from) {
            const auto* tp = dynamic_cast<const TestPayload*>(p.payload.get());
            received_[i].push_back({from, tp ? tp->value : -1});
          }));
      ASSERT_TRUE(medium_
                      ->SetReceiver(static_cast<NodeId>(i),
                                    receivers_.back().get())
                      .ok());
    }
  }

  Simulator sim_;
  Medium::Options options_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobilities_;
  std::vector<std::unique_ptr<CallbackReceiver>> receivers_;
  std::vector<std::vector<std::pair<NodeId, int>>> received_;
};

TEST_F(MediumTest, BroadcastReachesOnlyNodesInRange) {
  // Node 1 at 200 m (in range), node 2 at 300 m (out of range).
  Build({{0.0, 0.0}, {200.0, 0.0}, {300.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(42)).ok());
  sim_.Run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0], (std::pair<NodeId, int>{0, 42}));
  EXPECT_TRUE(received_[2].empty());
  EXPECT_TRUE(received_[0].empty());  // No self-delivery.
}

TEST_F(MediumTest, RangeBoundaryInclusive) {
  Build({{0.0, 0.0}, {250.0, 0.0}, {250.0001, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_TRUE(received_[2].empty());
}

TEST_F(MediumTest, CountsOneMessagePerBroadcast) {
  Build({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}, {30.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 64)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(2, 36)).ok());
  sim_.Run();
  EXPECT_EQ(medium_->stats().messages_sent, 2u);
  EXPECT_EQ(medium_->stats().bytes_sent, 100u);
  EXPECT_EQ(medium_->stats().deliveries, 6u);  // 3 receivers each.
}

TEST_F(MediumTest, DeliveryLatencyWithinBounds) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  double sent_at = -1.0;
  double received_at = -1.0;
  CallbackReceiver receiver(
      [&](const Packet&, NodeId) { received_at = sim_.Now(); });
  ASSERT_TRUE(medium_->SetReceiver(1, &receiver).ok());
  sim_.Schedule(5.0, [&] {
    sent_at = sim_.Now();
    (void)medium_->Broadcast(0, MakePacket(1));
  });
  sim_.Run();
  ASSERT_GE(received_at, 0.0);
  EXPECT_GE(received_at - sent_at, options_.min_latency_s);
  EXPECT_LE(received_at - sent_at, options_.max_latency_s);
}

TEST_F(MediumTest, OfflineSenderRejected) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  ASSERT_TRUE(medium_->SetOnline(0, false).ok());
  EXPECT_FALSE(medium_->IsOnline(0));
  Status status = medium_->Broadcast(0, MakePacket(1));
  EXPECT_EQ(status.code(), Status::Code::kFailedPrecondition);
  EXPECT_EQ(medium_->stats().messages_sent, 0u);
}

TEST_F(MediumTest, OfflineReceiverSkipped) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  ASSERT_TRUE(medium_->SetOnline(1, false).ok());
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Run();
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(MediumTest, ReceiverGoingOfflineInFlightDropsFrame) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  // Take node 1 offline before the delivery event (latency >= 0.5 ms).
  sim_.Schedule(0.0, [&] { (void)medium_->SetOnline(1, false); });
  sim_.Run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(medium_->stats().dropped_offline, 1u);
}

TEST_F(MediumTest, UnknownNodesRejected) {
  Build({{0.0, 0.0}});
  EXPECT_EQ(medium_->Broadcast(99, MakePacket(1)).code(),
            Status::Code::kNotFound);
  EXPECT_EQ(medium_->SetOnline(99, true).code(), Status::Code::kNotFound);
  EXPECT_EQ(medium_->SetReceiver(99, nullptr).code(),
            Status::Code::kNotFound);
  EXPECT_FALSE(medium_->IsOnline(99));
}

TEST_F(MediumTest, DuplicateNodeIdRejected) {
  Build({{0.0, 0.0}});
  Stationary extra({1.0, 1.0});
  EXPECT_EQ(medium_->AddNode(0, &extra).code(),
            Status::Code::kAlreadyExists);
}

TEST_F(MediumTest, NullMobilityRejected) {
  Build({{0.0, 0.0}});
  EXPECT_EQ(medium_->AddNode(5, nullptr).code(),
            Status::Code::kInvalidArgument);
}

TEST_F(MediumTest, LossProbabilityDropsFraction) {
  Medium::Options options;
  options.loss_probability = 0.3;
  Build({{0.0, 0.0}, {10.0, 0.0}}, options);
  const int sends = 5000;
  for (int i = 0; i < sends; ++i) {
    ASSERT_TRUE(medium_->Broadcast(0, MakePacket(i)).ok());
  }
  sim_.Run();
  const double delivered = static_cast<double>(received_[1].size());
  EXPECT_NEAR(delivered / sends, 0.7, 0.03);
  EXPECT_EQ(medium_->stats().dropped_loss + received_[1].size(),
            static_cast<uint64_t>(sends));
}

TEST_F(MediumTest, CollisionsDropOverlappingFrames) {
  Medium::Options options;
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  options.min_latency_s = 1e-4;
  options.max_latency_s = 2e-4;
  // Nodes 0 and 1 both in range of node 2; simultaneous sends collide.
  Build({{0.0, 0.0}, {100.0, 0.0}, {50.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(2)).ok());
  sim_.Run();
  // Node 2 hears one frame; the second (different sender, within the
  // window) is dropped.
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(medium_->stats().dropped_collision, 1u);
}

TEST_F(MediumTest, NoCollisionAcrossWindow) {
  Medium::Options options;
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  Build({{0.0, 0.0}, {100.0, 0.0}, {50.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(0.5, [&] { (void)medium_->Broadcast(1, MakePacket(2)); });
  sim_.Run();
  EXPECT_EQ(received_[2].size(), 2u);
  EXPECT_EQ(medium_->stats().dropped_collision, 0u);
}

TEST_F(MediumTest, NeighborsOfExactFilter) {
  Build({{0.0, 0.0}, {100.0, 0.0}, {200.0, 0.0}, {400.0, 0.0}});
  auto neighbors = medium_->NeighborsOf({0.0, 0.0}, 250.0);
  std::sort(neighbors.begin(), neighbors.end());
  EXPECT_EQ(neighbors, (std::vector<NodeId>{0, 1, 2}));
}

TEST_F(MediumTest, SentByTracksPerNodeTransmissions) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(3)).ok());
  sim_.Run();
  EXPECT_EQ(medium_->SentBy(0), 2u);
  EXPECT_EQ(medium_->SentBy(1), 1u);
  EXPECT_EQ(medium_->SentBy(99), 0u);  // Unknown id.
  // Offline rejections do not count.
  ASSERT_TRUE(medium_->SetOnline(0, false).ok());
  EXPECT_FALSE(medium_->Broadcast(0, MakePacket(4)).ok());
  EXPECT_EQ(medium_->SentBy(0), 2u);
}

TEST_F(MediumTest, PerNodeByteAndRxCounters) {
  Build({{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 100)).ok());
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2, 50)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(3, 30)).ok());
  sim_.Run();
  EXPECT_EQ(medium_->SentBytesBy(0), 150u);
  EXPECT_EQ(medium_->SentBytesBy(1), 30u);
  // Node 2 received all three frames; node 0 only node 1's frame.
  EXPECT_EQ(medium_->ReceivedBy(2), 3u);
  EXPECT_EQ(medium_->ReceivedBytesBy(2), 180u);
  EXPECT_EQ(medium_->ReceivedBy(0), 1u);
  EXPECT_EQ(medium_->ReceivedBytesBy(0), 30u);
  EXPECT_EQ(medium_->ReceivedBy(99), 0u);
}

TEST_F(MediumTest, BroadcastObserverSeesEveryTransmission) {
  Build({{0.0, 0.0}, {10.0, 0.0}});
  std::vector<std::pair<NodeId, Vec2>> observed;
  medium_->SetBroadcastObserver(
      [&](NodeId from, const Packet&, const Vec2& origin) {
        observed.emplace_back(from, origin);
      });
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  ASSERT_TRUE(medium_->Broadcast(1, MakePacket(2)).ok());
  sim_.Run();
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0].first, 0u);
  EXPECT_EQ(observed[0].second, (Vec2{0.0, 0.0}));
  EXPECT_EQ(observed[1].first, 1u);
  EXPECT_EQ(observed[1].second, (Vec2{10.0, 0.0}));
  // Clearing the observer stops the callbacks.
  medium_->SetBroadcastObserver(nullptr);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(3)).ok());
  sim_.Run();
  EXPECT_EQ(observed.size(), 2u);
}

// ------------------------------------------------ loss/collision semantics
//
// Regression pins for the delivery-time loss model and the garbled-window
// collision bookkeeping. Latency is pinned (min == max) so frame arrival
// order and spacing are exact.

TEST_F(MediumTest, LostFrameStillOccupiesTheCollisionWindow) {
  // Loss is decided at DELIVERY time, and a frame destroyed by loss still
  // put RF energy on the air: a second frame from a different sender
  // arriving inside the window is a collision, not another loss.
  Medium::Options options;
  options.loss_probability = 1.0;  // Every surviving frame is lost.
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  options.min_latency_s = 1e-4;
  options.max_latency_s = 1e-4;
  // Senders 0 and 1 are out of range of each other (300 m); both reach
  // the receiver at 150 m, so every counter below is exact.
  Build({{0.0, 0.0}, {300.0, 0.0}, {150.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(2e-4, [&] { (void)medium_->Broadcast(1, MakePacket(2)); });
  sim_.Run();
  EXPECT_TRUE(received_[2].empty());
  EXPECT_EQ(medium_->stats().dropped_loss, 1u);       // First frame only.
  EXPECT_EQ(medium_->stats().dropped_collision, 1u);  // Second frame.
}

TEST_F(MediumTest, OfflineReceiverIsNotChargedAsLoss) {
  // A receiver that is offline when the frame arrives drops it as
  // dropped_offline — never as dropped_loss, even at loss probability 1.
  Medium::Options options;
  options.loss_probability = 1.0;
  Build({{0.0, 0.0}, {100.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(0.0, [&] { (void)medium_->SetOnline(1, false); });
  sim_.Run();
  EXPECT_EQ(medium_->stats().dropped_offline, 1u);
  EXPECT_EQ(medium_->stats().dropped_loss, 0u);
}

TEST_F(MediumTest, SameSenderBackToBackFramesDoNotCollide) {
  // Two frames from ONE sender inside the window are serialized by that
  // sender's MAC, not colliding transmissions: both must deliver.
  Medium::Options options;
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  options.min_latency_s = 1e-4;
  options.max_latency_s = 1e-4;
  Build({{0.0, 0.0}, {100.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(2e-4, [&] { (void)medium_->Broadcast(0, MakePacket(2)); });
  sim_.Run();
  EXPECT_EQ(received_[1].size(), 2u);
  EXPECT_EQ(medium_->stats().dropped_collision, 0u);
}

TEST_F(MediumTest, GarbledWindowDropsTheOriginalSendersNextFrame) {
  // Once a collision garbles the window, EVERY frame inside it is lost —
  // including a third frame from the sender that delivered first. (The old
  // bookkeeping overwrote last_rx_from on the dropped frame, letting the
  // original sender "sail through" its own garbled window.)
  Medium::Options options;
  options.enable_collisions = true;
  options.collision_window_s = 1e-3;
  options.min_latency_s = 1e-4;
  options.max_latency_s = 1e-4;
  Build({{0.0, 0.0}, {300.0, 0.0}, {150.0, 0.0}}, options);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());  // Delivers.
  sim_.Schedule(2e-4, [&] { (void)medium_->Broadcast(1, MakePacket(2)); });
  sim_.Schedule(4e-4, [&] { (void)medium_->Broadcast(0, MakePacket(3)); });
  sim_.Run();
  ASSERT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[2][0], (std::pair<NodeId, int>{0, 1}));
  EXPECT_EQ(medium_->stats().dropped_collision, 2u);
}

TEST_F(MediumTest, ExtraLossAppliesAtDeliveryTime) {
  // SetExtraLoss between transmit and delivery must affect the in-flight
  // frame: the draw happens when the frame arrives, not when it is sent.
  Build({{0.0, 0.0}, {100.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Schedule(0.0, [&] { medium_->SetExtraLoss(1.0); });
  sim_.Run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(medium_->stats().dropped_loss, 1u);
  // Clearing the episode restores delivery.
  medium_->SetExtraLoss(0.0);
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2)).ok());
  sim_.Run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0], (std::pair<NodeId, int>{0, 2}));
}

TEST_F(MediumTest, JamZoneSilencesOnlyReceiversInside) {
  Build({{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}});
  medium_->SetJamZones({Rect{{50.0, -50.0}, {150.0, 50.0}}});  // Node 1.
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1)).ok());
  sim_.Run();
  EXPECT_TRUE(received_[1].empty());
  ASSERT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(medium_->stats().dropped_jammed, 1u);
  // Lifting the jam restores the inside receiver.
  medium_->SetJamZones({});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2)).ok());
  sim_.Run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(medium_->stats().dropped_jammed, 1u);
}

TEST(MediumMovingTest, StaleIndexStillFindsMovingNodes) {
  // Nodes move quickly; the spatial index refreshes only every second, so
  // the slack logic must keep delivery exact. Compare against brute force
  // on live positions at many instants.
  Simulator sim;
  Medium::Options options;
  options.range_m = 250.0;
  options.max_speed_mps = 30.0;
  options.reindex_interval_s = 1.0;
  Medium medium(options, &sim, Rng(3));

  RandomWaypoint::Options waypoint;
  waypoint.area = Rect{{0.0, 0.0}, {1500.0, 1500.0}};
  waypoint.min_speed_mps = 20.0;
  waypoint.max_speed_mps = 30.0;
  waypoint.max_pause_s = 0.0;

  std::vector<std::unique_ptr<RandomWaypoint>> models;
  const int n = 60;
  for (int i = 0; i < n; ++i) {
    models.push_back(
        std::make_unique<RandomWaypoint>(waypoint, Rng(100 + i)));
    ASSERT_TRUE(medium.AddNode(static_cast<NodeId>(i), models[i].get()).ok());
  }

  int checks = 0;
  for (double t = 0.1; t < 30.0; t += 0.37) {
    sim.ScheduleAt(t, [&, t] {
      for (NodeId center : {NodeId{0}, NodeId{7}, NodeId{23}}) {
        const Vec2 origin = medium.PositionOf(center);
        auto got = medium.NeighborsOf(origin, options.range_m);
        std::vector<NodeId> expected;
        for (int i = 0; i < n; ++i) {
          if (DistanceSquared(models[i]->PositionAt(t), origin) <=
              options.range_m * options.range_m) {
            expected.push_back(static_cast<NodeId>(i));
          }
        }
        std::sort(got.begin(), got.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(got, expected) << "t=" << t;
        ++checks;
      }
    });
  }
  sim.Run();
  EXPECT_GT(checks, 200);
}

TEST(MediumMovingTest, VelocityMatchesModelInsideAndAtLegBoundaries) {
  // VelocityOf answers times strictly inside the mirrored leg from the
  // medium's own arrays. That must be bit-identical to the model's
  // VelocityAt, and at exact leg boundaries (the model's later-leg rule)
  // the answer must still be the model's. The twin is queried at the same
  // times only, so it has generated exactly as many legs as the medium's
  // model; pauses of at least 1 s keep every leg non-degenerate, so its
  // answer at a boundary does not depend on where its cursor sits.
  Simulator sim;
  Medium::Options options;
  options.max_speed_mps = 30.0;
  Medium medium(options, &sim, Rng(5));
  RandomWaypoint::Options waypoint;
  waypoint.area = Rect{{0.0, 0.0}, {500.0, 500.0}};
  waypoint.min_speed_mps = 20.0;
  waypoint.max_speed_mps = 30.0;
  waypoint.min_pause_s = 1.0;
  waypoint.max_pause_s = 3.0;
  RandomWaypoint model(waypoint, Rng(77));
  RandomWaypoint twin(waypoint, Rng(77));
  RandomWaypoint schedule(waypoint, Rng(77));  // Source of the leg times.
  ASSERT_TRUE(medium.AddNode(0, &model).ok());

  const Time horizon = 120.0;
  schedule.EnsureHorizon(horizon);
  std::vector<Time> times;
  int boundaries = 0;
  for (const mobility::Leg& leg : schedule.legs()) {
    if (leg.end > horizon) break;
    ASSERT_GT(leg.Duration(), 0.0);
    times.push_back(leg.start);  // Exact boundary (t = 0 for the first).
    ++boundaries;
    for (double f : {0.25, 0.5, 0.999}) {
      times.push_back(leg.start + f * leg.Duration());
    }
  }
  ASSERT_GT(boundaries, 20);

  size_t checked = 0;
  for (size_t i = 0; i < times.size(); ++i) {
    const Time t = times[i];
    // Every other query first refreshes the mirror through PositionOf;
    // the rest meet whatever mirror the previous queries left.
    const bool position_first = i % 2 == 0;
    sim.ScheduleAt(t, [&, t, position_first] {
      if (position_first) (void)medium.PositionOf(0);
      const Vec2 got = medium.VelocityOf(0);
      const Vec2 want = twin.VelocityAt(t);
      EXPECT_EQ(got.x, want.x) << "t=" << t;
      EXPECT_EQ(got.y, want.y) << "t=" << t;
      ++checked;
    });
  }
  sim.Run();
  EXPECT_EQ(checked, times.size());
}

// --- Elided deliveries ---------------------------------------------------
//
// Each test runs a scenario twice: in an eliding bed whose receivers may
// Ignores() frames, and in a twin whose receivers never do. Same options,
// positions and seeds, so both draw the same latencies; the twin schedules
// every delivery. Every medium counter must agree, and the eliding bed
// must run one event fewer per elided delivery.

/// Records each OnReceive; ignores every frame while `ignoring`.
class ToggleReceiver : public Receiver {
 public:
  ToggleReceiver(const Simulator* sim, bool ignoring)
      : sim_(sim), ignoring(ignoring) {}

  void OnReceive(const Packet& packet, NodeId from) override {
    const auto* payload = dynamic_cast<const TestPayload*>(packet.payload.get());
    log.push_back({sim_->Now(), from, payload != nullptr ? payload->value : -1});
  }
  bool Ignores(const Packet& /*packet*/) const override { return ignoring; }
  bool MayIgnore() const override { return true; }

  struct Reception {
    Time when;
    NodeId from;
    int value;
    bool operator==(const Reception&) const = default;
  };

 private:
  const Simulator* sim_;

 public:
  bool ignoring;
  std::vector<Reception> log;
};

/// Node 0 sends from the origin; nodes 1..4 sit in range, along the x axis.
struct ElisionBed {
  explicit ElisionBed(bool ignoring, Medium::Options options = {}) {
    medium = std::make_unique<Medium>(options, &sim, Rng(7));
    for (int i = 0; i < 5; ++i) {
      mobilities.push_back(std::make_unique<Stationary>(Vec2{i * 40.0, 0.0}));
      receivers.push_back(std::make_unique<ToggleReceiver>(&sim, ignoring));
      const NodeId id = static_cast<NodeId>(i);
      EXPECT_TRUE(medium->AddNode(id, mobilities.back().get()).ok());
      EXPECT_TRUE(medium->SetReceiver(id, receivers.back().get()).ok());
    }
  }

  /// Broadcasts from node 0 at each time in `times`.
  void SendAt(const std::vector<Time>& times) {
    for (size_t i = 0; i < times.size(); ++i) {
      sim.ScheduleAt(times[i], [this, i] {
        (void)medium->Broadcast(0, MakePacket(static_cast<int>(i), 50));
      });
    }
  }

  Simulator sim;
  std::vector<std::unique_ptr<Stationary>> mobilities;
  std::vector<std::unique_ptr<ToggleReceiver>> receivers;
  std::unique_ptr<Medium> medium;
};

/// Every counter of `a` equals `b`'s, and `a` ran one event fewer per
/// delivery it elided.
void ExpectTwins(const ElisionBed& a, const ElisionBed& b) {
  const MediumStats& x = a.medium->stats();
  const MediumStats& y = b.medium->stats();
  EXPECT_EQ(x.messages_sent, y.messages_sent);
  EXPECT_EQ(x.deliveries, y.deliveries);
  EXPECT_EQ(x.dropped_loss, y.dropped_loss);
  EXPECT_EQ(x.dropped_offline, y.dropped_offline);
  EXPECT_EQ(x.dropped_jammed, y.dropped_jammed);
  EXPECT_EQ(x.arena_frames_peak, y.arena_frames_peak);
  EXPECT_EQ(y.elided, 0u);
  for (NodeId id = 0; id < 5; ++id) {
    EXPECT_EQ(a.medium->ReceivedBy(id), b.medium->ReceivedBy(id)) << id;
    EXPECT_EQ(a.medium->ReceivedBytesBy(id), b.medium->ReceivedBytesBy(id))
        << id;
  }
  EXPECT_EQ(a.sim.ExecutedEvents() + x.elided, b.sim.ExecutedEvents());
  EXPECT_EQ(a.sim.Now(), b.sim.Now());
}

/// The twin's receptions at node `id` from time `from` on.
std::vector<ToggleReceiver::Reception> LogFrom(const ElisionBed& bed,
                                               NodeId id, Time from) {
  std::vector<ToggleReceiver::Reception> out;
  for (const auto& r : bed.receivers[id]->log) {
    if (r.when >= from) out.push_back(r);
  }
  return out;
}

TEST(MediumElisionTest, IgnoredDeliveriesAreBookedWithoutAnUpcall) {
  ElisionBed eliding(true);
  ElisionBed twin(false);
  for (ElisionBed* bed : {&eliding, &twin}) {
    bed->SendAt({1.0, 1.0005, 2.0});
    bed->sim.Run();
  }
  EXPECT_EQ(eliding.medium->stats().elided, 12u);  // 3 frames x 4 nodes.
  EXPECT_EQ(eliding.medium->stats().deliveries, 12u);
  for (const auto& receiver : eliding.receivers) {
    EXPECT_TRUE(receiver->log.empty());
  }
  ExpectTwins(eliding, twin);
  // An unbounded run ends at the last delivery, elided or not.
  EXPECT_GT(eliding.sim.Now(), 2.0);
}

TEST(MediumElisionTest, GoingOfflineRecallsPendingDeliveries) {
  // Node 1 goes offline while frames are in flight and stays off: they
  // drop as offline. Node 2 bounces back before they are due: they arrive,
  // and its receiver sees them.
  ElisionBed eliding(true);
  ElisionBed twin(false);
  for (ElisionBed* bed : {&eliding, &twin}) {
    bed->SendAt({1.0, 1.0001});
    bed->sim.ScheduleAt(1.0002, [bed] {
      (void)bed->medium->SetOnline(1, false);
      (void)bed->medium->SetOnline(2, false);
      (void)bed->medium->SetOnline(2, true);
    });
    bed->sim.Run();
  }
  EXPECT_EQ(eliding.medium->stats().dropped_offline, 2u);
  EXPECT_EQ(eliding.receivers[2]->log, twin.receivers[2]->log);
  EXPECT_EQ(eliding.receivers[2]->log.size(), 2u);
  EXPECT_EQ(eliding.medium->stats().elided, 4u);  // Nodes 3 and 4.
  ExpectTwins(eliding, twin);
}

TEST(MediumElisionTest, LossEpisodeRecallsPendingDeliveries) {
  // A loss episode decides at delivery time, drawing from the medium's
  // stream, so frames in flight when it starts must meet it; the draws
  // then shift every later latency alike in both beds.
  ElisionBed eliding(true);
  ElisionBed twin(false);
  for (ElisionBed* bed : {&eliding, &twin}) {
    bed->SendAt({1.0, 1.0001, 3.0, 3.0001});
    bed->sim.ScheduleAt(1.0002, [bed] { bed->medium->SetExtraLoss(0.5); });
    bed->sim.ScheduleAt(2.0, [bed] { bed->medium->SetExtraLoss(0.0); });
    bed->sim.Run();
  }
  EXPECT_GT(eliding.medium->stats().dropped_loss, 0u);
  EXPECT_EQ(eliding.medium->stats().elided, 8u);  // The frames at 3 s.
  ExpectTwins(eliding, twin);
}

TEST(MediumElisionTest, JammerRecallsPendingDeliveries) {
  ElisionBed eliding(true);
  ElisionBed twin(false);
  for (ElisionBed* bed : {&eliding, &twin}) {
    bed->SendAt({1.0, 3.0});
    bed->sim.ScheduleAt(1.0001, [bed] {
      bed->medium->SetJamZones({Rect{{70.0, -10.0}, {130.0, 10.0}}});
    });
    bed->sim.ScheduleAt(2.0, [bed] { bed->medium->SetJamZones({}); });
    bed->sim.Run();
  }
  EXPECT_EQ(eliding.medium->stats().dropped_jammed, 2u);  // Nodes 2, 3.
  EXPECT_EQ(eliding.medium->stats().elided, 4u);  // The frame at 3 s.
  ExpectTwins(eliding, twin);
}

TEST(MediumElisionTest, ReceiverRecallGetsItsPendingDeliveries) {
  // A receiver about to stop ignoring frames (a gossip peer evicting an
  // ad) recalls its elided deliveries: they run at their own times, in
  // their own order, as the twin's do.
  ElisionBed eliding(true);
  ElisionBed twin(false);
  const Time flip = 1.0002;
  for (ElisionBed* bed : {&eliding, &twin}) {
    bed->SendAt({1.0, 1.0001, 1.00015, 2.0});
    bed->sim.ScheduleAt(flip, [bed] {
      bed->receivers[3]->ignoring = false;
      bed->medium->Recall(3);
    });
    bed->sim.Run();
  }
  EXPECT_EQ(eliding.receivers[3]->log, LogFrom(twin, 3, flip));
  EXPECT_EQ(eliding.receivers[3]->log.size(), 4u);
  EXPECT_TRUE(eliding.receivers[4]->log.empty());
  ExpectTwins(eliding, twin);
}

TEST(MediumElisionTest, DeliveriesDueAfterTheHorizonDoNotCount) {
  // One frame is in flight at the horizon: whatever part of it is due by
  // then counts, the rest only once a later run passes its time.
  ElisionBed eliding(true);
  ElisionBed twin(false);
  for (ElisionBed* bed : {&eliding, &twin}) {
    bed->SendAt({1.0, 4.999});
    bed->sim.RunUntil(5.0);
  }
  EXPECT_LT(twin.medium->stats().deliveries, 8u);
  EXPECT_GT(twin.medium->stats().deliveries, 4u);
  ExpectTwins(eliding, twin);
  for (ElisionBed* bed : {&eliding, &twin}) bed->sim.RunUntil(6.0);
  EXPECT_EQ(twin.medium->stats().deliveries, 8u);
  ExpectTwins(eliding, twin);
}

TEST(MediumElisionTest, RxTraceMeansNothingIsElided) {
  for (uint32_t categories : {obs::kTraceRx, obs::kTraceTx}) {
    obs::TraceOptions options;
    options.categories = categories;
    obs::Trace trace(options);
    ElisionBed eliding(true);
    ElisionBed twin(false);
    eliding.medium->SetTrace(&trace);
    for (ElisionBed* bed : {&eliding, &twin}) {
      bed->SendAt({1.0, 2.0});
      bed->sim.Run();
    }
    ExpectTwins(eliding, twin);
    // Only rx records would be lost by eliding; tx records are not.
    EXPECT_EQ(eliding.medium->stats().elided,
              categories == obs::kTraceRx ? 0u : 8u);
    if (categories == obs::kTraceRx) {
      EXPECT_EQ(eliding.receivers[1]->log, twin.receivers[1]->log);
    }
  }
}

TEST(MediumElisionTest, LossyMediaNeverElide) {
  Medium::Options lossy;
  lossy.loss_probability = 0.2;
  Medium::Options collisions;
  collisions.enable_collisions = true;
  Medium::Options fading;
  fading.fading_exponent = 2.0;
  for (const Medium::Options& options : {lossy, collisions, fading}) {
    ElisionBed eliding(true, options);
    ElisionBed twin(false, options);
    for (ElisionBed* bed : {&eliding, &twin}) {
      bed->SendAt({1.0, 1.0001, 2.0});
      bed->sim.Run();
    }
    EXPECT_EQ(eliding.medium->stats().elided, 0u);
    ExpectTwins(eliding, twin);
  }
}

/// Would ignore every frame, but does not say it MayIgnore(); counts the
/// Ignores() calls it gets.
class UnannouncedReceiver : public Receiver {
 public:
  void OnReceive(const Packet& /*packet*/, NodeId /*from*/) override {
    ++received;
  }
  bool Ignores(const Packet& /*packet*/) const override {
    ++asked;
    return true;
  }

  mutable int asked = 0;
  int received = 0;
};

TEST(MediumElisionTest, ReceiversThatMayNotIgnoreAreNeverAsked) {
  // Until a receiver that MayIgnore() is set, a broadcast asks no one
  // and schedules every delivery; from then on every receiver is asked.
  Simulator sim;
  Medium medium({}, &sim, Rng(7));
  std::vector<std::unique_ptr<Stationary>> mobilities;
  std::vector<UnannouncedReceiver> receivers(5);
  for (int i = 0; i < 5; ++i) {
    mobilities.push_back(std::make_unique<Stationary>(Vec2{i * 40.0, 0.0}));
    const NodeId id = static_cast<NodeId>(i);
    ASSERT_TRUE(medium.AddNode(id, mobilities.back().get()).ok());
    ASSERT_TRUE(medium.SetReceiver(id, &receivers[i]).ok());
  }
  const auto send_at = [&](Time t) {
    sim.ScheduleAt(t, [&] { (void)medium.Broadcast(0, MakePacket(1, 50)); });
  };
  send_at(1.0);
  sim.Run();
  EXPECT_EQ(medium.stats().deliveries, 4u);
  EXPECT_EQ(medium.stats().elided, 0u);
  for (const UnannouncedReceiver& receiver : receivers) {
    EXPECT_EQ(receiver.asked, 0);
  }
  EXPECT_EQ(receivers[1].received, 1);

  ToggleReceiver announced(&sim, true);
  ASSERT_TRUE(medium.SetReceiver(0, &announced).ok());
  send_at(2.0);
  sim.Run();
  EXPECT_EQ(medium.stats().deliveries, 8u);
  EXPECT_EQ(medium.stats().elided, 4u);
  EXPECT_EQ(receivers[1].asked, 1);
  EXPECT_EQ(receivers[1].received, 1);
}

}  // namespace
}  // namespace madnet::net
