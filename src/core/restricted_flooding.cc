// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/restricted_flooding.h"

namespace madnet::core {

void RestrictedFlooding::AdState::MarkRelayed(uint32_t round) {
  const size_t word = round / 64;
  if (word >= relayed_rounds.size()) relayed_rounds.resize(word + 1, 0);
  relayed_rounds[word] |= uint64_t{1} << (round % 64);
}

RestrictedFlooding::RestrictedFlooding(ProtocolContext context,
                                       const Options& options)
    : Protocol(std::move(context)), options_(options) {}

StatusOr<AdId> RestrictedFlooding::Issue(const AdContent& content,
                                         double radius_m, double duration_s) {
  Advertisement ad = MakeAdvertisement(content, radius_m, duration_s, {});
  const AdId id = ad.id;
  const uint64_t key = id.Key();
  ads_.push_back(AdState{key, 0, {}});  // The issuer's own copy is hop 0.
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
  ads_[IndexOfAd(key)].MarkRelayed(state.round);
  net::Packet packet = MakeFloodPacket(state.ad, state.round, radius_limit);
  packet.hop = 1;  // Issuer frames deliver direct neighbours at hop 1.
  Broadcast(packet);
  return true;
}

RestrictedFlooding::AdState* RestrictedFlooding::FirstSight(
    uint64_t key, uint32_t hop, net::NodeId from) {
  // Only the first receipt counts (time is monotone), as in gossip; the
  // issuer holds its ad from Issue() on and records no receipt of it.
  RecordReceipt(key);
  TraceDeliver(key, hop, from);
  // NOLINTNEXTLINE(madnet-hot-transitive-alloc): cold, once per (ad, peer).
  ads_.push_back(AdState{key, hop, {}});
  return &ads_.back();
}

// MADNET_HOT
bool RestrictedFlooding::Ignores(const net::Packet& packet) const {
  const FloodMessage* message = PayloadAs<FloodMessage>(packet);
  if (message == nullptr) return true;
  const size_t i = IndexOfAd(message->ad.id.Key());
  return i < ads_.size() && ads_[i].Relayed(message->round);
}

// MADNET_HOT
void RestrictedFlooding::OnReceive(const net::Packet& packet,
                                   net::NodeId from) {
  const FloodMessage* message = PayloadAs<FloodMessage>(packet);
  if (message == nullptr) return;  // Not a flooding frame.
  const uint64_t ad_key = message->ad.id.Key();
  const size_t i = IndexOfAd(ad_key);
  AdState* state =
      i < ads_.size() ? &ads_[i] : FirstSight(ad_key, packet.hop, from);
  // Duplicate of a round already relayed: by far the most common delivery
  // in a broadcast storm, and it changes nothing.
  if (state->Relayed(message->round)) return;
  RelayRound(state, packet, *message);
}

void RestrictedFlooding::RelayRound(AdState* state, const net::Packet& packet,
                                    const FloodMessage& message) {
  state->MarkRelayed(message.round);

  // Relay only while inside the issuer-declared radius limit.
  const double distance = Distance(Position(), message.ad.issue_location);
  if (distance > message.radius_limit) return;

  const double jitter =
      context_.rng.Uniform(0.0, options_.relay_jitter_max_s);
  uint32_t slot;
  if (free_relay_slots_.empty()) {
    slot = static_cast<uint32_t>(relay_slots_.size());
    relay_slots_.emplace_back();
  } else {
    slot = free_relay_slots_.back();
    free_relay_slots_.pop_back();
  }
  // Park a copy of the packet; the payload is shared and immutable. The
  // relayed frame's hop count derives from *this* node's first receipt,
  // so every deliver record satisfies hop == parent's hop + 1 even when
  // a later round reaches us over a shorter path.
  relay_slots_[slot] = packet;
  relay_slots_[slot].hop = state->hop + 1;
  context_.simulator->Schedule(jitter, [this, slot]() { FireRelay(slot); });
}

void RestrictedFlooding::FireRelay(uint32_t slot) {
  const net::Packet packet = std::move(relay_slots_[slot]);
  free_relay_slots_.push_back(slot);
  Broadcast(packet);
}

}  // namespace madnet::core
