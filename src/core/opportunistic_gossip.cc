// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/opportunistic_gossip.h"

#include <algorithm>
#include <cassert>

#include "util/geometry.h"

namespace madnet::core {

OpportunisticGossip::OpportunisticGossip(ProtocolContext context,
                                         const GossipOptions& options,
                                         InterestProfile interests)
    : Protocol(std::move(context)),
      options_(options),
      interests_(std::move(interests)),
      cache_(options.cache_capacity) {
  assert(options.propagation.Valid());
  assert(options.round_time_s > 0.0);
}

void OpportunisticGossip::Start() {
  Protocol::Start();
  if (options_.dis_m <= 0.0) {
    // Auto: the velocity constraint's minimum annulus width.
    options_.dis_m = std::max(
        VelocityConstrainedDis(context_.medium->options().max_speed_mps,
                               options_.round_time_s),
        1.0);
  }
  if (!options_.postpone) {
    // One global round chain, randomly phased: "all peers work
    // asynchronously". A round over an empty cache draws nothing and sends
    // nothing, so the chain stays parked until InsertAd arms it.
    next_round_s_ = Now() + context_.rng.Uniform(0.0, options_.round_time_s);
  }
}

StatusOr<AdId> OpportunisticGossip::Issue(const AdContent& content,
                                          double radius_m,
                                          double duration_s) {
  Advertisement ad = MakeAdvertisement(content, radius_m, duration_s,
                                       options_.sketch_options);
  const AdId id = ad.id;
  seen_hop_.emplace(id.Key(), 0);  // The issuer's own copy is hop 0.
  net::Packet packet = MakeGossipPacket(ad);
  packet.hop = RebroadcastHop(id.Key());
  InsertAd(std::move(ad), 1.0);
  // Seed the neighbourhood once; from here the network maintains the ad
  // and this issuer may go offline.
  Broadcast(packet);
  return id;
}

void OpportunisticGossip::OnCrash() {
  for (uint64_t key : cache_.Keys()) {
    const sim::EventId timer = cache_.Erase(key);
    if (timer != sim::kInvalidEventId) context_.simulator->Cancel(timer);
  }
}

void OpportunisticGossip::OnRejoin() {
  // Expired entries are pruned rather than re-announced; survivors go out
  // immediately. ForEach iterates the cache in its (deterministic)
  // internal order, same as GossipRound.
  RefreshCache();
  cache_.ForEach([this](uint64_t key, CacheEntry& entry) {
    net::Packet packet = MakeGossipPacket(entry.ad);
    packet.hop = RebroadcastHop(key);
    Broadcast(packet);
  });
}

double OpportunisticGossip::ProbabilityFor(const Advertisement& ad) const {
  const Time age = ad.AgeAt(context_.simulator->Now());
  const double radius_t =
      RadiusAtAge(ad.radius_m, ad.duration_s, age, options_.propagation);
  const double distance =
      Distance(context_.medium->PositionOf(context_.self), ad.issue_location);
  if (options_.annulus && age > options_.bootstrap_age_s) {
    return AnnulusForwardingProbability(distance, radius_t, options_.dis_m,
                                        options_.propagation);
  }
  return ForwardingProbability(distance, radius_t, options_.propagation);
}

void OpportunisticGossip::RefreshCache() {
  const Time now = Now();
  for (uint64_t key : cache_.Keys()) {
    CacheEntry* entry = cache_.Find(key);
    if (entry->ad.ExpiredAt(now)) {
      const sim::EventId timer = cache_.Erase(key);
      if (timer != sim::kInvalidEventId) context_.simulator->Cancel(timer);
      continue;
    }
    entry->probability = ProbabilityFor(entry->ad);
  }
}

void OpportunisticGossip::GossipRound() {
  round_event_ = sim::kInvalidEventId;
  // Algorithm 2: refresh all entries' probabilities, then broadcast each
  // entry with its probability.
  RefreshCache();
  if (cache_.Size() == 0) return;  // Parked until the next insert.
  cache_.ForEach([this](uint64_t key, CacheEntry& entry) {
    if (context_.rng.Bernoulli(entry.probability)) {
      net::Packet packet = MakeGossipPacket(entry.ad);
      packet.hop = RebroadcastHop(key);
      Broadcast(packet);
    } else if (context_.trace != nullptr &&
               context_.trace->Enabled(obs::kTraceSuppress)) {
      context_.trace->Suppress(Now(), context_.self, key, "bernoulli",
                               entry.probability);
    }
  });
  // Rescheduled after the round's broadcasts, so the next round's event
  // sequence number follows theirs.
  ArmRound();
}

void OpportunisticGossip::ArmRound() {
  const Time now = Now();
  while (next_round_s_ <= now) next_round_s_ += options_.round_time_s;
  round_event_ = context_.simulator->ScheduleAt(
      next_round_s_, [this]() { GossipRound(); });
}

void OpportunisticGossip::ScheduleEntry(uint64_t key, CacheEntry* entry) {
  if (entry->timer != sim::kInvalidEventId) {
    context_.simulator->Cancel(entry->timer);
  }
  entry->timer = context_.simulator->ScheduleAt(
      entry->next_gossip_time, [this, key]() { EntryTimerFired(key); });
}

void OpportunisticGossip::EntryTimerFired(uint64_t key) {
  CacheEntry* entry = cache_.Find(key);
  if (entry == nullptr) return;  // Raced with eviction; timer was stale.
  entry->timer = sim::kInvalidEventId;
  const Time now = Now();
  if (entry->ad.ExpiredAt(now)) {
    cache_.Erase(key);
    return;
  }
  // Algorithm 4: refresh this entry's probability, broadcast with it, and
  // schedule the next round for this entry.
  entry->probability = ProbabilityFor(entry->ad);
  if (context_.rng.Bernoulli(entry->probability)) {
    net::Packet packet = MakeGossipPacket(entry->ad);
    packet.hop = RebroadcastHop(key);
    Broadcast(packet);
  } else if (context_.trace != nullptr &&
             context_.trace->Enabled(obs::kTraceSuppress)) {
    context_.trace->Suppress(now, context_.self, key, "bernoulli",
                             entry->probability);
  }
  entry->next_gossip_time = now + options_.round_time_s;
  ScheduleEntry(key, entry);
}

uint32_t OpportunisticGossip::RebroadcastHop(uint64_t key) const {
  const auto it = seen_hop_.find(key);
  // Every cached ad was either issued or received, so the key is always
  // present; the fallback keeps a (hypothetical) miss at hop 1.
  return it != seen_hop_.end() ? it->second + 1 : 1;
}

CacheEntry* OpportunisticGossip::InsertAd(Advertisement ad,
                                          double initial_probability) {
  // Algorithm 1: when the cache is full, refresh all probabilities before
  // choosing the drop victim.
  if (cache_.Full()) RefreshCache();
  CacheEntry entry;
  entry.ad = std::move(ad);
  entry.probability = initial_probability;
  // First gossip of a fresh entry happens within one round, randomly
  // phased (Opt-2 path; without Opt-2 the global round chain covers it).
  entry.next_gossip_time =
      Now() + context_.rng.Uniform(0.0, options_.round_time_s);

  sim::EventId evicted_timer = sim::kInvalidEventId;
  CacheEntry* inserted = cache_.Insert(std::move(entry), &evicted_timer);
  if (evicted_timer != sim::kInvalidEventId) {
    context_.simulator->Cancel(evicted_timer);
  }
  if (inserted != nullptr) {
    if (options_.postpone) {
      ScheduleEntry(inserted->ad.id.Key(), inserted);
    } else if (round_event_ == sim::kInvalidEventId) {
      ArmRound();
    }
  }
  return inserted;
}

void OpportunisticGossip::OnReceive(const net::Packet& packet,
                                    net::NodeId from) {
  const auto* message =
      dynamic_cast<const GossipMessage*>(packet.payload.get());
  if (message == nullptr) return;  // Not a gossip frame.

  const uint64_t key = message->ad.id.Key();
  const bool first_sight = seen_hop_.try_emplace(key, packet.hop).second;
  if (first_sight) {
    RecordReceipt(key);
    TraceDeliver(key, packet.hop, from);
    // Display filter (UI-level, Section I): show the ad if the user has no
    // interest filter, or if it matches. Relaying below is unconditional.
    if (interests_.Size() == 0 || interests_.Matches(message->ad.content)) {
      ++displayed_count_;
    }
  }

  CacheEntry* entry = cache_.Find(key);
  if (entry != nullptr) {
    // Duplicate: merge any enlargement/sketch updates, then (Opt-2)
    // postpone our own scheduled gossip of this ad.
    entry->ad.MergeFrom(message->ad);
    if (context_.trace != nullptr &&
        context_.trace->Enabled(obs::kTraceSketch)) {
      context_.trace->SketchMerge(Now(), context_.self, key);
    }
    if (options_.postpone) {
      const Vec2 self_position = Position();
      const Vec2 sender_position = context_.medium->PositionOf(from);
      const double overlap = TransmissionOverlapFraction(
          context_.medium->options().range_m,
          Distance(self_position, sender_position));
      const double angle =
          ApproachAngle(Velocity(), self_position, sender_position);
      const double interval =
          PostponeInterval(options_.round_time_s, overlap, angle);
      if (interval > 0.0) {
        entry->next_gossip_time += interval;
        ++postpone_count_;
        if (context_.trace != nullptr &&
            context_.trace->Enabled(obs::kTraceSuppress)) {
          context_.trace->Suppress(Now(), context_.self, key, "postpone",
                                   interval);
        }
        ScheduleEntry(key, entry);
      }
    }
    return;
  }

  Advertisement ad = message->ad;
  if (ad.ExpiredAt(Now())) return;  // Stale frame still in flight.
  if (options_.ranking && first_sight) {
    // Algorithm 5: count this user's interest and enlarge R/D if the rank
    // rose. Guarded by first_sight so an evicted-then-re-received ad is
    // not enlarged twice by the same peer.
    RankAndEnlarge(&ad, interests_, context_.self, options_.ranking_options);
  }
  const double probability = ProbabilityFor(ad);
  InsertAd(std::move(ad), probability);
}

}  // namespace madnet::core
