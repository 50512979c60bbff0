// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Edge cases and failure-injection tests for the advertising protocols:
// timer/eviction races in the Optimization-2 path, expired frames in
// flight, ranking idempotence across evictions, and null-sink operation.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/opportunistic_gossip.h"
#include "core/restricted_flooding.h"
#include "mobility/constant_velocity.h"
#include "net/medium.h"
#include "sim/simulator.h"
#include "test_receiver.h"
#include "stats/delivery.h"

namespace madnet::core {
namespace {

using mobility::MobilityModel;
using mobility::Stationary;
using net::Medium;
using net::NodeId;
using sim::Simulator;

AdContent PetrolAd() { return {"petrol", {"discount"}, "cheap fuel"}; }

class EdgeTestBed {
 public:
  explicit EdgeTestBed(Medium::Options medium_options = {}) {
    medium_options.max_speed_mps = 50.0;
    medium_ = std::make_unique<Medium>(medium_options, &sim_, Rng(21));
  }

  NodeId AddStationary(Vec2 at) {
    const NodeId id = static_cast<NodeId>(mobilities_.size());
    mobilities_.push_back(std::make_unique<Stationary>(at));
    EXPECT_TRUE(medium_->AddNode(id, mobilities_.back().get()).ok());
    return id;
  }

  OpportunisticGossip* AddGossip(NodeId id, const GossipOptions& options,
                                 bool with_log = true) {
    ProtocolContext context;
    context.simulator = &sim_;
    context.medium = medium_.get();
    context.self = id;
    context.delivery_log = with_log ? &log_ : nullptr;
    context.rng = Rng(5000 + id);
    gossips_.push_back(std::make_unique<OpportunisticGossip>(
        std::move(context), options));
    gossips_.back()->Start();
    return gossips_.back().get();
  }

  Simulator sim_;
  std::unique_ptr<Medium> medium_;
  stats::DeliveryLog log_;
  std::vector<std::unique_ptr<MobilityModel>> mobilities_;
  std::vector<std::unique_ptr<OpportunisticGossip>> gossips_;
};

TEST(GossipEdgeTest, EvictionCancelsPendingEntryTimer) {
  // Optimization-2 path with a capacity-1 cache: inserting a better ad
  // evicts the first and must cancel its per-entry timer without leaving a
  // dangling callback.
  EdgeTestBed bed;
  const NodeId listener = bed.AddStationary({0.0, 0.0});
  const NodeId near_issuer = bed.AddStationary({10.0, 0.0});
  const NodeId far_issuer = bed.AddStationary({60.0, 0.0});
  GossipOptions options = GossipOptions::Optimized2();
  options.cache_capacity = 1;
  auto* listener_peer = bed.AddGossip(listener, options);
  auto* near_peer = bed.AddGossip(near_issuer, options);
  auto* far_peer = bed.AddGossip(far_issuer, options);

  // A low-probability ad first (small radius => low P at the listener).
  auto weak = far_peer->Issue(PetrolAd(), 120.0, 800.0);
  ASSERT_TRUE(weak.ok());
  bed.sim_.RunUntil(0.5);
  ASSERT_NE(listener_peer->cache().Find(weak->Key()), nullptr);

  // A high-probability ad evicts it.
  auto strong = near_peer->Issue(PetrolAd(), 1000.0, 800.0);
  ASSERT_TRUE(strong.ok());
  bed.sim_.RunUntil(1.0);
  EXPECT_EQ(listener_peer->cache().Find(weak->Key()), nullptr);
  ASSERT_NE(listener_peer->cache().Find(strong->Key()), nullptr);

  // Run across many rounds: the evicted entry's timer must not fire into
  // a stale key (would assert/crash in debug builds), and the survivor
  // keeps gossiping.
  bed.sim_.RunUntil(120.0);
  EXPECT_GT(bed.medium_->stats().messages_sent, 10u);
}

TEST(GossipEdgeTest, PostponementAccumulatesAcrossDuplicates) {
  // Three peers in a tight cluster, Opt-2 on: duplicates from two
  // neighbours push the third's timer repeatedly.
  EdgeTestBed bed;
  for (int i = 0; i < 3; ++i) bed.AddStationary({i * 10.0, 0.0});
  GossipOptions options = GossipOptions::Optimized2();
  std::vector<OpportunisticGossip*> peers;
  for (NodeId id = 0; id < 3; ++id) {
    peers.push_back(bed.AddGossip(id, options));
  }
  ASSERT_TRUE(peers[0]->Issue(PetrolAd(), 1000.0, 800.0).ok());
  bed.sim_.RunUntil(300.0);
  uint64_t total_postpones = 0;
  for (auto* peer : peers) total_postpones += peer->postpone_count();
  EXPECT_GT(total_postpones, 20u);
  // Messages far below the three-per-round a pure cluster would emit.
  EXPECT_LT(bed.medium_->stats().messages_sent, 100u);
}

TEST(GossipEdgeTest, DuplicateMergeAdoptsEnlargedParameters) {
  EdgeTestBed bed;
  bed.AddStationary({0.0, 0.0});
  bed.AddStationary({50.0, 0.0});
  GossipOptions options = GossipOptions::Pure();
  auto* a = bed.AddGossip(0, options);
  auto* b = bed.AddGossip(1, options);
  auto issued = a->Issue(PetrolAd(), 1000.0, 800.0);
  ASSERT_TRUE(issued.ok());
  bed.sim_.RunUntil(1.0);
  ASSERT_NE(b->cache().Find(issued->Key()), nullptr);

  // Simulate an enlarged copy arriving from elsewhere.
  Advertisement enlarged = b->cache().Find(issued->Key())->ad;
  enlarged.radius_m = 1500.0;
  enlarged.duration_s = 1200.0;
  ASSERT_TRUE(bed.medium_->Broadcast(0, MakeGossipPacket(enlarged)).ok());
  bed.sim_.RunUntil(2.0);
  const CacheEntry* entry = b->cache().Find(issued->Key());
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(entry->ad.radius_m, 1500.0);
  EXPECT_DOUBLE_EQ(entry->ad.duration_s, 1200.0);
}

TEST(GossipEdgeTest, ExpiredFrameInFlightIsDropped) {
  EdgeTestBed bed;
  bed.AddStationary({0.0, 0.0});
  bed.AddStationary({50.0, 0.0});
  auto* b = bed.AddGossip(1, GossipOptions::Pure());
  bed.AddGossip(0, GossipOptions::Pure());

  Advertisement stale;
  stale.id = {0, 77};
  stale.issue_time = 0.0;
  stale.issue_location = {0.0, 0.0};
  stale.radius_m = 1000.0;
  stale.duration_s = 10.0;
  // Broadcast it at t=50, long past its expiry.
  bed.sim_.ScheduleAt(50.0, [&]() {
    (void)bed.medium_->Broadcast(0, MakeGossipPacket(stale));
  });
  bed.sim_.RunUntil(60.0);
  EXPECT_EQ(b->cache().Find(stale.id.Key()), nullptr);
}

TEST(GossipEdgeTest, RankingNotReappliedAfterEviction) {
  // A peer whose cache churns must hash its user id into a given ad's
  // sketches at most once, or the rank would inflate. Drive the churn with
  // hand-crafted frames so the sequence is deterministic.
  EdgeTestBed bed;
  const NodeId sender = bed.AddStationary({10.0, 0.0});
  const NodeId listener = bed.AddStationary({0.0, 0.0});
  GossipOptions options = GossipOptions::Pure();
  options.cache_capacity = 1;
  options.ranking = true;
  ProtocolContext context;
  context.simulator = &bed.sim_;
  context.medium = bed.medium_.get();
  context.self = listener;
  context.delivery_log = &bed.log_;
  context.rng = Rng(1);
  OpportunisticGossip listener_peer(std::move(context), options,
                                    InterestProfile({"petrol"}));
  listener_peer.Start();

  auto make_ad = [&](uint32_t seq, double radius) {
    Advertisement ad;
    ad.id = {sender, seq};
    ad.issue_time = 0.0;
    ad.issue_location = {10.0, 0.0};
    ad.initial_radius_m = ad.radius_m = radius;
    ad.initial_duration_s = ad.duration_s = 800.0;
    ad.content = PetrolAd();
    return ad;
  };

  // First receipt of ad 1: the listener hashes its id (rank becomes the
  // one-user estimate > 0).
  ASSERT_TRUE(
      bed.medium_->Broadcast(sender, MakeGossipPacket(make_ad(1, 500.0)))
          .ok());
  bed.sim_.RunUntil(0.5);
  const CacheEntry* first = listener_peer.cache().Find(AdId{sender, 1}.Key());
  ASSERT_NE(first, nullptr);
  const double rank_first = EstimatedRank(first->ad);
  EXPECT_GT(rank_first, 0.0);
  EXPECT_LT(rank_first, 4.0);  // One distinct user.

  // A stronger ad evicts it from the one-slot cache.
  ASSERT_TRUE(
      bed.medium_->Broadcast(sender, MakeGossipPacket(make_ad(2, 2000.0)))
          .ok());
  bed.sim_.RunUntil(1.0);
  ASSERT_EQ(listener_peer.cache().Find(AdId{sender, 1}.Key()), nullptr);

  // Evict ad 2 again with a fresh (sketch-free) copy of ad 1 at a better
  // probability (radii kept moderate so probabilities stay strictly below
  // 1.0 and comparable). The listener re-caches ad 1 but must NOT hash
  // again: the cached copy's sketches stay empty (rank 0), proving no
  // re-count.
  ASSERT_TRUE(
      bed.medium_->Broadcast(sender, MakeGossipPacket(make_ad(1, 3000.0)))
          .ok());
  bed.sim_.RunUntil(1.5);
  const CacheEntry* second =
      listener_peer.cache().Find(AdId{sender, 1}.Key());
  ASSERT_NE(second, nullptr);
  EXPECT_DOUBLE_EQ(EstimatedRank(second->ad), 0.0);
}

TEST(GossipEdgeTest, WorksWithoutDeliveryLog) {
  EdgeTestBed bed;
  bed.AddStationary({0.0, 0.0});
  bed.AddStationary({50.0, 0.0});
  auto* a = bed.AddGossip(0, GossipOptions::Pure(), /*with_log=*/false);
  auto* b = bed.AddGossip(1, GossipOptions::Pure(), /*with_log=*/false);
  auto issued = a->Issue(PetrolAd(), 1000.0, 800.0);
  ASSERT_TRUE(issued.ok());
  bed.sim_.RunUntil(10.0);
  EXPECT_NE(b->cache().Find(issued->Key()), nullptr);
}

TEST(GossipEdgeTest, IssueWithFullCacheStillBroadcasts) {
  // Even if the issuer's own cache rejects the new ad (full of better
  // entries), the initial seed broadcast must still go out.
  EdgeTestBed bed;
  const NodeId issuer = bed.AddStationary({0.0, 0.0});
  const NodeId nearby = bed.AddStationary({50.0, 0.0});
  GossipOptions options = GossipOptions::Pure();
  options.cache_capacity = 1;
  auto* issuer_peer = bed.AddGossip(issuer, options);
  auto* nearby_peer = bed.AddGossip(nearby, options);
  // Fill the issuer's cache with a maximal-probability ad.
  ASSERT_TRUE(issuer_peer->Issue(PetrolAd(), 5000.0, 800.0).ok());
  bed.sim_.RunUntil(0.5);
  // Now issue a weaker ad: it loses the cache slot at the issuer...
  auto weak = issuer_peer->Issue(PetrolAd(), 200.0, 800.0);
  ASSERT_TRUE(weak.ok());
  bed.sim_.RunUntil(1.0);
  // ...but the neighbour still received the seed broadcast (whether it
  // caches it depends on its own eviction contest).
  EXPECT_GE(bed.log_.FirstReceipt(weak->Key(), nearby), 0.0);
  (void)nearby_peer;
}

TEST(GossipEdgeTest, DisplayFilterShowsOnlyMatchingAds) {
  // Uninterested users still relay but do not display (Section I).
  EdgeTestBed bed;
  const NodeId sender = bed.AddStationary({10.0, 0.0});
  const NodeId picky = bed.AddStationary({0.0, 0.0});
  const NodeId open = bed.AddStationary({0.0, 10.0});
  GossipOptions options = GossipOptions::Pure();
  auto make_peer = [&](NodeId id, InterestProfile interests) {
    ProtocolContext context;
    context.simulator = &bed.sim_;
    context.medium = bed.medium_.get();
    context.self = id;
    context.delivery_log = &bed.log_;
    context.rng = Rng(100 + id);
    auto peer = std::make_unique<OpportunisticGossip>(
        std::move(context), options, std::move(interests));
    peer->Start();
    return peer;
  };
  auto picky_peer = make_peer(picky, InterestProfile({"books"}));
  auto open_peer = make_peer(open, InterestProfile{});

  auto make_ad = [&](uint32_t seq, const std::string& category) {
    Advertisement ad;
    ad.id = {sender, seq};
    ad.issue_time = 0.0;
    ad.issue_location = {10.0, 0.0};
    ad.initial_radius_m = ad.radius_m = 1000.0;
    ad.initial_duration_s = ad.duration_s = 800.0;
    ad.content = {category, {category}, "x"};
    return ad;
  };
  ASSERT_TRUE(bed.medium_
                  ->Broadcast(sender, MakeGossipPacket(make_ad(1, "petrol")))
                  .ok());
  ASSERT_TRUE(bed.medium_
                  ->Broadcast(sender, MakeGossipPacket(make_ad(2, "books")))
                  .ok());
  bed.sim_.RunUntil(0.5);

  // Picky user saw both ads but displays only the matching one...
  EXPECT_EQ(picky_peer->displayed_count(), 1u);
  // ...yet caches (and will relay) both — participation is mandatory.
  EXPECT_EQ(picky_peer->cache().Size(), 2u);
  // The unfiltered user displays everything.
  EXPECT_EQ(open_peer->displayed_count(), 2u);
  // Duplicates do not re-display.
  ASSERT_TRUE(bed.medium_
                  ->Broadcast(sender, MakeGossipPacket(make_ad(1, "petrol")))
                  .ok());
  bed.sim_.RunUntil(1.0);
  EXPECT_EQ(open_peer->displayed_count(), 2u);
}

TEST(FloodingEdgeTest, IssuerAloneStopsCleanly) {
  EdgeTestBed bed;
  bed.AddStationary({0.0, 0.0});
  ProtocolContext context;
  context.simulator = &bed.sim_;
  context.medium = bed.medium_.get();
  context.self = 0;
  context.delivery_log = &bed.log_;
  context.rng = Rng(2);
  RestrictedFlooding flood(std::move(context), {});
  flood.Start();
  ASSERT_TRUE(flood.Issue(PetrolAd(), 500.0, 30.0).ok());
  bed.sim_.RunUntil(1000.0);
  // ~7 issuer frames (rounds at 0,5,...,30 while R_t > 0), then silence.
  EXPECT_LE(bed.medium_->stats().messages_sent, 8u);
  EXPECT_EQ(bed.sim_.PendingEvents(), 0u);
}

TEST(GossipEdgeTest, FullRunIsDeterministic) {
  auto run = []() {
    EdgeTestBed bed;
    for (int i = 0; i < 10; ++i) {
      bed.AddStationary({i * 40.0, (i % 3) * 30.0});
    }
    std::vector<OpportunisticGossip*> peers;
    for (NodeId id = 0; id < 10; ++id) {
      peers.push_back(bed.AddGossip(id, GossipOptions::Optimized()));
    }
    EXPECT_TRUE(peers[0]->Issue(PetrolAd(), 1000.0, 300.0).ok());
    bed.sim_.RunUntil(400.0);
    return std::pair(bed.medium_->stats().messages_sent,
                     bed.sim_.ExecutedEvents());
  };
  EXPECT_EQ(run(), run());
}

TEST(MediumEdgeTest, FadingDropsEdgeReceivers) {
  Medium::Options options;
  options.fading_exponent = 4.0;
  options.max_speed_mps = 50.0;
  EdgeTestBed bed(options);
  bed.AddStationary({0.0, 0.0});
  const NodeId close_node = bed.AddStationary({25.0, 0.0});   // d/r = 0.1.
  const NodeId edge_node = bed.AddStationary({245.0, 0.0});   // d/r = 0.98.
  int close_received = 0;
  int edge_received = 0;
  net::CallbackReceiver close_receiver(
      [&](const net::Packet&, NodeId) { ++close_received; });
  net::CallbackReceiver edge_receiver(
      [&](const net::Packet&, NodeId) { ++edge_received; });
  ASSERT_TRUE(bed.medium_->SetReceiver(close_node, &close_receiver).ok());
  ASSERT_TRUE(bed.medium_->SetReceiver(edge_node, &edge_receiver).ok());
  const int sends = 2000;
  for (int i = 0; i < sends; ++i) {
    net::Packet packet;
    packet.payload = std::make_shared<net::Payload>();
    packet.size_bytes = 10;
    ASSERT_TRUE(bed.medium_->Broadcast(0, packet).ok());
  }
  bed.sim_.Run();
  // Close receiver: drop probability 0.1^4 = 1e-4 -> nearly all arrive.
  EXPECT_GT(close_received, sends * 95 / 100);
  // Edge receiver: drop probability 0.98^4 ~ 0.92 -> few arrive.
  EXPECT_LT(edge_received, sends * 20 / 100);
  EXPECT_GT(edge_received, 0);
}

// --- Idle quiescence of the global round chain (pure gossip, Opt-1) ---
//
// A round over an empty cache draws nothing and sends nothing, so the
// chain parks instead of firing it; the first insert re-arms it on the
// same timestamps an always-on timer would have used.

/// The bed seeds node `id`'s stream with 5000 + id, and Start() draws the
/// round phase before anything else.
double StartPhase(NodeId id, double round_time_s) {
  Rng rng(5000 + id);
  return rng.Uniform(0.0, round_time_s);
}

/// First chain time strictly after `t`, by repeated addition from the
/// phase (Start ran at t = 0) — the same doubles a periodic timer yields.
double ChainTimeAfter(double phase, double round_time_s, double t) {
  double chain = phase;
  while (chain <= t) chain += round_time_s;
  return chain;
}

/// An ad as a bystander node would have issued it, for injecting receipts
/// with Medium::Broadcast.
Advertisement InjectedAd(NodeId issuer, Time now, Vec2 where,
                         double duration_s) {
  Advertisement ad;
  ad.id = AdId{issuer, 1};
  ad.issue_time = now;
  ad.issue_location = where;
  ad.initial_radius_m = ad.radius_m = 1000.0;
  ad.initial_duration_s = ad.duration_s = duration_s;
  ad.content = PetrolAd();
  return ad;
}

TEST(GossipQuiescenceTest, LonePeerHasNothingPendingAfterStart) {
  for (const GossipOptions& options :
       {GossipOptions::Pure(), GossipOptions::Optimized1()}) {
    EdgeTestBed bed;
    bed.AddGossip(bed.AddStationary({0.0, 0.0}), options);
    EXPECT_EQ(bed.sim_.PendingEvents(), 0u);
    bed.sim_.RunUntil(100.0);
    EXPECT_EQ(bed.sim_.ExecutedEvents(), 0u);
  }
}

TEST(GossipQuiescenceTest, FirstRoundAfterReceiptLandsOnStartPhaseChain) {
  EdgeTestBed bed;
  const NodeId listener = bed.AddStationary({0.0, 0.0});
  const NodeId bystander = bed.AddStationary({10.0, 0.0});  // No protocol.
  const GossipOptions options = GossipOptions::Pure();
  auto* peer = bed.AddGossip(listener, options);
  const double phase = StartPhase(listener, options.round_time_s);

  // Several chain times pass while the cache is empty.
  bed.sim_.RunUntil(23.4);
  const Advertisement ad = InjectedAd(bystander, bed.sim_.Now(),
                                      {10.0, 0.0}, 300.0);
  ASSERT_TRUE(bed.medium_->Broadcast(bystander, MakeGossipPacket(ad)).ok());
  bed.sim_.RunUntil(23.41);  // Delivery latency is at most 2 ms.
  ASSERT_NE(peer->cache().Find(ad.id.Key()), nullptr);
  const double expected = ChainTimeAfter(phase, options.round_time_s, 23.4);
  ASSERT_GT(expected, 23.41) << "a chain time fell in the receipt window";

  ASSERT_EQ(bed.sim_.PendingEvents(), 1u);  // The armed round only.
  ASSERT_TRUE(bed.sim_.Step());
  EXPECT_EQ(bed.sim_.Now(), expected);  // Bit-equal, not approximately.
}

TEST(GossipQuiescenceTest, UnboundedRunDrainsAfterExpiry) {
  // An always-on round timer would make Simulator::Run() loop forever here.
  for (const GossipOptions& options :
       {GossipOptions::Pure(), GossipOptions::Optimized1()}) {
    EdgeTestBed bed;
    bed.AddStationary({0.0, 0.0});
    bed.AddStationary({50.0, 0.0});
    auto* issuer = bed.AddGossip(0, options);
    auto* listener = bed.AddGossip(1, options);
    auto issued = issuer->Issue(PetrolAd(), 1000.0, 60.0);
    ASSERT_TRUE(issued.ok());
    // Fail fast rather than hang if idle rounds ever come back.
    bed.sim_.RunUntil(1000.0);
    ASSERT_EQ(bed.sim_.PendingEvents(), 0u);
    EXPECT_EQ(bed.sim_.Run(), 0u);
    EXPECT_EQ(bed.sim_.PendingEvents(), 0u);
    EXPECT_EQ(issuer->cache().Size(), 0u);
    EXPECT_EQ(listener->cache().Size(), 0u);
    EXPECT_GT(bed.medium_->stats().messages_sent, 5u);  // Rounds were live.
  }
}

TEST(GossipQuiescenceTest, CrashParksChainAfterAtMostOneRound) {
  EdgeTestBed bed;
  auto* peer = bed.AddGossip(bed.AddStationary({0.0, 0.0}),
                             GossipOptions::Pure());
  ASSERT_TRUE(peer->Issue(PetrolAd(), 1000.0, 800.0).ok());
  bed.sim_.RunUntil(12.0);
  ASSERT_EQ(bed.sim_.PendingEvents(), 1u);  // The live round chain.

  peer->OnCrash();
  EXPECT_EQ(peer->cache().Size(), 0u);
  const uint64_t before = bed.sim_.ExecutedEvents();
  bed.sim_.RunUntil(12.0 + peer->options().round_time_s);
  EXPECT_EQ(bed.sim_.ExecutedEvents(), before + 1);  // One empty round.
  EXPECT_EQ(bed.sim_.PendingEvents(), 0u);
}

TEST(GossipQuiescenceTest, InsertAtChainTimeArmsOnePeriodLater) {
  // Tie rule: the chain re-arms at the first chain time *strictly* after
  // the insert. An always-on timer's round at that instant was scheduled a
  // period earlier, so it ran before the insert and found the cache empty;
  // the first round that can see the ad is one period later.
  EdgeTestBed bed;
  const NodeId id = bed.AddStationary({0.0, 0.0});
  const GossipOptions options = GossipOptions::Pure();
  auto* peer = bed.AddGossip(id, options);
  const double phase = StartPhase(id, options.round_time_s);
  const double chain_time = phase + options.round_time_s +
                            options.round_time_s;  // Repeated addition.
  bed.sim_.RunUntil(chain_time);
  ASSERT_EQ(bed.sim_.Now(), chain_time);

  ASSERT_TRUE(peer->Issue(PetrolAd(), 1000.0, 800.0).ok());
  ASSERT_EQ(bed.sim_.PendingEvents(), 1u);
  ASSERT_TRUE(bed.sim_.Step());
  EXPECT_EQ(bed.sim_.Now(), chain_time + options.round_time_s);
}

}  // namespace
}  // namespace madnet::core
