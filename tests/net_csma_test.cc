// Copyright (c) 2026 madnet authors. All rights reserved.
//
// CSMA/CA medium mode: airtime-based delivery, carrier sensing with
// backoff, deferral, capture-effect collisions, and the hidden-terminal
// phenomenon.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "mobility/constant_velocity.h"
#include "net/medium.h"
#include "sim/simulator.h"
#include "test_receiver.h"
#include "util/random.h"

namespace madnet::net {
namespace {

using mobility::Stationary;
using sim::Simulator;

struct TestPayload : Payload {
  explicit TestPayload(int v) : value(v) {}
  int value;
};

Packet MakePacket(int value, uint32_t size_bytes) {
  Packet p;
  p.payload = std::make_shared<TestPayload>(value);
  p.size_bytes = size_bytes;
  return p;
}

class CsmaTest : public ::testing::Test {
 protected:
  void Build(const std::vector<Vec2>& positions,
             Medium::Options options = {}) {
    options.csma = true;
    options_ = options;
    medium_ = std::make_unique<Medium>(options, &sim_, Rng(5));
    received_.assign(positions.size(), {});
    receive_times_.assign(positions.size(), {});
    for (size_t i = 0; i < positions.size(); ++i) {
      mobilities_.push_back(std::make_unique<Stationary>(positions[i]));
      ASSERT_TRUE(
          medium_->AddNode(static_cast<NodeId>(i), mobilities_.back().get())
              .ok());
      receivers_.push_back(std::make_unique<CallbackReceiver>(
          [this, i](const Packet& p, NodeId) {
            const auto* tp = dynamic_cast<const TestPayload*>(p.payload.get());
            received_[i].push_back(tp ? tp->value : -1);
            receive_times_[i].push_back(sim_.Now());
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
  std::vector<std::unique_ptr<Stationary>> mobilities_;
  std::vector<std::unique_ptr<CallbackReceiver>> receivers_;
  std::vector<std::vector<int>> received_;
  std::vector<std::vector<double>> receive_times_;
};

TEST_F(CsmaTest, DeliveryTakesAirtime) {
  Build({{0.0, 0.0}, {100.0, 0.0}});
  // 1250 bytes at 1 Mb/s = 10 ms + 0.5 ms overhead.
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 1250)).ok());
  sim_.Run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_NEAR(receive_times_[1][0], 0.0105, 1e-9);
  EXPECT_EQ(medium_->stats().messages_sent, 1u);
}

TEST_F(CsmaTest, SenderDefersWhileOwnChannelBusy) {
  Build({{0.0, 0.0}, {100.0, 0.0}});
  // Two back-to-back frames from the same node: the second must wait for
  // the first frame's airtime (the sender hears its own carrier).
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 1250)).ok());
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2, 1250)).ok());
  sim_.Run();
  ASSERT_EQ(received_[1].size(), 2u);
  EXPECT_EQ(received_[1][0], 1);
  EXPECT_EQ(received_[1][1], 2);
  // Second delivery at least one full airtime after the first.
  EXPECT_GE(receive_times_[1][1] - receive_times_[1][0], 0.0105 - 1e-9);
  EXPECT_GE(medium_->stats().mac_defers, 1u);
  EXPECT_EQ(medium_->stats().dropped_collision, 0u);
}

TEST_F(CsmaTest, NeighbourDefersToOngoingTransmission) {
  Build({{0.0, 0.0}, {100.0, 0.0}, {200.0, 0.0}});
  // Node 0 starts a long frame; node 1 (in range of 0) tries to send
  // moments later and must defer, so node 2 receives both cleanly.
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 2500)).ok());  // 20.5 ms.
  sim_.Schedule(0.005, [&] {
    ASSERT_TRUE(medium_->Broadcast(1, MakePacket(2, 1250)).ok());
  });
  sim_.Run();
  // Node 1 heard frame 1's carrier mid-air and deferred.
  EXPECT_GE(medium_->stats().mac_defers, 1u);
  ASSERT_EQ(received_[2].size(), 2u);
  EXPECT_EQ(received_[2][0], 1);
  EXPECT_EQ(received_[2][1], 2);
}

TEST_F(CsmaTest, HiddenTerminalCollides) {
  // A (0) and B (400 m) cannot hear each other (range 250 m); C (200 m)
  // hears both. Simultaneous sends both sense idle and collide at C; the
  // capture effect keeps the earlier frame.
  Build({{0.0, 0.0}, {400.0, 0.0}, {200.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 1250)).ok());
  sim_.Schedule(0.001, [&] {  // Mid-air of frame 1.
    ASSERT_TRUE(medium_->Broadcast(1, MakePacket(2, 1250)).ok());
  });
  sim_.Run();
  EXPECT_EQ(medium_->stats().mac_defers, 0u);  // Neither heard the other.
  ASSERT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[2][0], 1);  // Earlier frame captured.
  EXPECT_EQ(medium_->stats().dropped_collision, 1u);
}

TEST_F(CsmaTest, RetryExhaustionDropsFrame) {
  // With zero retries allowed, the first busy carrier sense drops the
  // frame. (With retries, a defer waits out the busy period, so frames
  // only die under sustained contention.)
  Medium::Options options;
  options.max_mac_retries = 0;
  Build({{0.0, 0.0}, {100.0, 0.0}}, options);
  // A long frame occupies the channel...
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 125000)).ok());  // ~1 s.
  // ...node 1 senses it mid-air and gives up immediately.
  sim_.Schedule(0.01, [&] {
    ASSERT_TRUE(medium_->Broadcast(1, MakePacket(2, 100)).ok());
  });
  sim_.Run();
  EXPECT_EQ(medium_->stats().dropped_mac_busy, 1u);
  // Node 1 received the long frame; node 0 never got frame 2.
  EXPECT_TRUE(received_[0].empty());
  ASSERT_EQ(received_[1].size(), 1u);
}

TEST_F(CsmaTest, SenderGoingOfflineAbortsDeferredFrame) {
  Build({{0.0, 0.0}, {100.0, 0.0}});
  ASSERT_TRUE(medium_->Broadcast(0, MakePacket(1, 12500)).ok());  // 100 ms.
  sim_.Schedule(0.01, [&] {
    ASSERT_TRUE(medium_->Broadcast(0, MakePacket(2, 100)).ok());  // Defers.
    ASSERT_TRUE(medium_->SetOnline(0, false).ok());
  });
  sim_.Run();
  // Only the first frame made it out.
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(medium_->stats().messages_sent, 1u);
}

TEST_F(CsmaTest, ThroughputBoundedByAirtime) {
  // Saturating one sender: deliveries are spaced by at least the airtime.
  Medium::Options options;
  options.max_mac_retries = 1000;
  Build({{0.0, 0.0}, {100.0, 0.0}}, options);
  const int frames = 20;
  for (int i = 0; i < frames; ++i) {
    ASSERT_TRUE(medium_->Broadcast(0, MakePacket(i, 1250)).ok());
  }
  sim_.Run();
  ASSERT_EQ(received_[1].size(), static_cast<size_t>(frames));
  for (size_t i = 1; i < receive_times_[1].size(); ++i) {
    EXPECT_GE(receive_times_[1][i] - receive_times_[1][i - 1],
              0.0105 - 1e-9);
  }
}

}  // namespace
}  // namespace madnet::net
