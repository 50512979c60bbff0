// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/restricted_flooding.h"

#include "util/random.h"

namespace madnet::core {

namespace {
/// Dedup key for (advertisement, flood round).
uint64_t RelayKey(uint64_t ad_key, uint32_t round) {
  return Mix64(ad_key ^ (static_cast<uint64_t>(round) * 0x9E3779B97F4A7C15ULL));
}
}  // namespace

RestrictedFlooding::RestrictedFlooding(ProtocolContext context,
                                       const Options& options)
    : Protocol(std::move(context)), options_(options) {}

StatusOr<AdId> RestrictedFlooding::Issue(const AdContent& content,
                                         double radius_m, double duration_s) {
  Advertisement ad = MakeAdvertisement(content, radius_m, duration_s, {});
  const AdId id = ad.id;
  const uint64_t key = id.Key();
  first_hop_.emplace(key, 0);  // The issuer's own copy is hop 0.
  IssuingState& state = issuing_[key];
  state.ad = std::move(ad);
  // First broadcast immediately, then every round until expiry. The issuer
  // must stay online throughout (the structural weakness the gossip model
  // removes).
  state.timer = context_.simulator->SchedulePeriodic(
      0.0, options_.round_time_s,
      [this, key]() { return IssuerRound(key); });
  return id;
}

bool RestrictedFlooding::IssuerRound(uint64_t key) {
  auto it = issuing_.find(key);
  if (it == issuing_.end()) return false;
  IssuingState& state = it->second;
  const Time age = state.ad.AgeAt(Now());
  const double radius_limit = RadiusAtAge(state.ad.radius_m,
                                          state.ad.duration_s, age,
                                          options_.propagation);
  if (radius_limit <= 0.0) {
    // Expired: stop the series and forget the ad.
    issuing_.erase(it);
    return false;
  }
  ++state.round;
  // The issuer implicitly "relays" its own frame this round.
  relayed_.insert(RelayKey(key, state.round));
  net::Packet packet = MakeFloodPacket(state.ad, state.round, radius_limit);
  packet.hop = 1;  // Issuer frames deliver direct neighbours at hop 1.
  Broadcast(packet);
  return true;
}

void RestrictedFlooding::OnReceive(const net::Packet& packet,
                                   net::NodeId from) {
  const auto* message = dynamic_cast<const FloodMessage*>(packet.payload.get());
  if (message == nullptr) return;  // Not a flooding frame.

  const uint64_t ad_key = message->ad.id.Key();
  RecordReceipt(ad_key);
  const auto [hop_it, first_sight] = first_hop_.try_emplace(ad_key, packet.hop);
  if (first_sight) TraceDeliver(ad_key, packet.hop, from);

  const uint64_t relay_key = RelayKey(ad_key, message->round);
  if (!relayed_.insert(relay_key).second) return;  // Already relayed.

  // Relay only while inside the issuer-declared radius limit.
  const double distance = Distance(Position(), message->ad.issue_location);
  if (distance > message->radius_limit) return;

  const double jitter =
      context_.rng.Uniform(0.0, options_.relay_jitter_max_s);
  // Copy the packet by value; the payload is shared and immutable. The
  // relayed frame's hop count derives from *this* node's first receipt,
  // so every deliver record satisfies hop == parent's hop + 1 even when
  // a later round reaches us over a shorter path.
  net::Packet copy = packet;
  copy.hop = hop_it->second + 1;
  context_.simulator->Schedule(jitter,
                               [this, copy]() { Broadcast(copy); });
}

}  // namespace madnet::core
