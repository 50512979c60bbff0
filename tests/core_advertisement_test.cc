// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/advertisement.h"

#include <gtest/gtest.h>

namespace madnet::core {
namespace {

Advertisement MakeAd(net::NodeId issuer = 3, uint32_t seq = 7) {
  Advertisement ad;
  ad.id = AdId{issuer, seq};
  ad.issue_time = 100.0;
  ad.issue_location = {2500.0, 2500.0};
  ad.initial_radius_m = 1000.0;
  ad.initial_duration_s = 800.0;
  ad.radius_m = 1000.0;
  ad.duration_s = 800.0;
  ad.content = {"petrol", {"discount"}, "cheap fuel"};
  return ad;
}

TEST(AdIdTest, KeyPacksIssuerAndSequence) {
  AdId id{0x1234, 0x5678};
  EXPECT_EQ(id.Key(), 0x0000123400005678ULL);
  EXPECT_EQ(AdId({1, 2}), AdId({1, 2}));
  EXPECT_FALSE(AdId({1, 2}) == AdId({1, 3}));
  EXPECT_FALSE(AdId({1, 2}) == AdId({2, 2}));
}

TEST(AdContentTest, SizeCountsAllParts) {
  AdContent content{"petrol", {"a", "bb"}, "hello"};
  // 6 + 5 + (1+1) + (2+1) = 16.
  EXPECT_EQ(content.SizeBytes(), 16u);
  EXPECT_EQ(AdContent{}.SizeBytes(), 0u);
}

TEST(AdvertisementTest, AgeAndExpiry) {
  Advertisement ad = MakeAd();
  EXPECT_DOUBLE_EQ(ad.AgeAt(150.0), 50.0);
  EXPECT_FALSE(ad.ExpiredAt(900.0));   // Age 800 == D: not yet expired.
  EXPECT_TRUE(ad.ExpiredAt(900.001));  // Age > D.
}

TEST(AdvertisementTest, WireSizeIncludesSketches) {
  Advertisement ad = MakeAd();
  const uint32_t base = ad.WireSizeBytes();
  // 16 sketches x 32 bits = 64 bytes of sketch payload plus header+content.
  EXPECT_GE(base, 64u);
  sketch::FmSketchArray::Options small;
  small.num_sketches = 1;
  small.length_bits = 8;
  ad.sketches = sketch::FmSketchArray(small);
  EXPECT_LT(ad.WireSizeBytes(), base);
}

TEST(AdvertisementTest, MergeTakesMaxAndUnions) {
  Advertisement a = MakeAd();
  Advertisement b = MakeAd();
  b.radius_m = 1200.0;
  b.duration_s = 700.0;  // Smaller: must not shrink a.
  a.duration_s = 900.0;
  a.sketches.AddUser(1);
  b.sketches.AddUser(2);

  Advertisement expected_sketches = MakeAd();
  expected_sketches.sketches.AddUser(1);
  expected_sketches.sketches.AddUser(2);

  EXPECT_TRUE(a.MergeFrom(b, /*merge_sketches=*/true));
  EXPECT_DOUBLE_EQ(a.radius_m, 1200.0);
  EXPECT_DOUBLE_EQ(a.duration_s, 900.0);
  EXPECT_TRUE(a.sketches == expected_sketches.sketches);
  // Merging the same copy again changes nothing.
  EXPECT_FALSE(a.MergeFrom(b, /*merge_sketches=*/true));
}

TEST(AdvertisementTest, MergeReportsEachKindOfChange) {
  Advertisement base = MakeAd();
  Advertisement larger_radius = base;
  larger_radius.radius_m = 1100.0;
  Advertisement longer = base;
  longer.duration_s = 900.0;
  Advertisement with_user = base;
  with_user.sketches.AddUser(42);

  Advertisement a = base;
  EXPECT_FALSE(a.MergeFrom(base, /*merge_sketches=*/true));
  EXPECT_TRUE(a.MergeFrom(larger_radius, /*merge_sketches=*/true));
  EXPECT_TRUE(a.MergeFrom(longer, /*merge_sketches=*/true));
  EXPECT_TRUE(a.MergeFrom(with_user, /*merge_sketches=*/true));
  EXPECT_FALSE(a.MergeFrom(with_user, /*merge_sketches=*/true));
}

TEST(AdvertisementTest, MergeWithoutSketchesKeepsThemAndTakesRadius) {
  Advertisement a = MakeAd();
  Advertisement b = MakeAd();
  b.radius_m = 1300.0;
  b.sketches.AddUser(5);
  EXPECT_TRUE(a.MergeFrom(b, /*merge_sketches=*/false));
  EXPECT_DOUBLE_EQ(a.radius_m, 1300.0);
  EXPECT_TRUE(a.sketches.Empty());
  // Only the sketches differ now, and they are not merged: no change.
  EXPECT_FALSE(a.MergeFrom(b, /*merge_sketches=*/false));
}

TEST(AdvertisementTest, MergeIgnoresDifferentAd) {
  Advertisement a = MakeAd(3, 7);
  Advertisement other = MakeAd(3, 8);
  other.radius_m = 9999.0;
  EXPECT_FALSE(a.MergeFrom(other, /*merge_sketches=*/true));
  EXPECT_DOUBLE_EQ(a.radius_m, 1000.0);
}

TEST(PacketTest, GossipPacketCarriesAd) {
  Advertisement ad = MakeAd();
  net::Packet packet = MakeGossipPacket(ad);
  EXPECT_EQ(packet.size_bytes, ad.WireSizeBytes());
  EXPECT_EQ(packet.payload->kind, kGossipPacket);
  const GossipMessage* message = PayloadAs<GossipMessage>(packet);
  ASSERT_NE(message, nullptr);
  EXPECT_EQ(message, dynamic_cast<const GossipMessage*>(packet.payload.get()));
  EXPECT_EQ(message->ad.id, ad.id);
}

TEST(PacketTest, FloodPacketCarriesRoundAndLimit) {
  Advertisement ad = MakeAd();
  net::Packet packet = MakeFloodPacket(ad, 12, 800.0);
  EXPECT_GT(packet.size_bytes, ad.WireSizeBytes());
  EXPECT_EQ(packet.payload->kind, kFloodPacket);
  const FloodMessage* message = PayloadAs<FloodMessage>(packet);
  ASSERT_NE(message, nullptr);
  EXPECT_EQ(message, dynamic_cast<const FloodMessage*>(packet.payload.get()));
  EXPECT_EQ(message->round, 12u);
  EXPECT_DOUBLE_EQ(message->radius_limit, 800.0);
}

TEST(PacketTest, PayloadTypesAreDistinct) {
  Advertisement ad = MakeAd();
  net::Packet gossip = MakeGossipPacket(ad);
  net::Packet flood = MakeFloodPacket(ad, 1, 100.0);
  EXPECT_EQ(dynamic_cast<const FloodMessage*>(gossip.payload.get()), nullptr);
  EXPECT_EQ(dynamic_cast<const GossipMessage*>(flood.payload.get()), nullptr);
  EXPECT_EQ(PayloadAs<FloodMessage>(gossip), nullptr);
  EXPECT_EQ(PayloadAs<GossipMessage>(flood), nullptr);
}

TEST(PacketTest, UntaggedPayloadIsNoProtocolMessage) {
  net::Packet packet;
  packet.payload = std::make_shared<net::Payload>();
  EXPECT_EQ(packet.payload->kind, net::kUntaggedPacket);
  EXPECT_EQ(PayloadAs<GossipMessage>(packet), nullptr);
  EXPECT_EQ(PayloadAs<FloodMessage>(packet), nullptr);
}

TEST(PacketTest, EmptyPacketIsNoProtocolMessage) {
  const net::Packet packet;
  EXPECT_EQ(PayloadAs<GossipMessage>(packet), nullptr);
  EXPECT_EQ(PayloadAs<FloodMessage>(packet), nullptr);
}

}  // namespace
}  // namespace madnet::core
