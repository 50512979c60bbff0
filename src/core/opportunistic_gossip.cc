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
  seen_.push_back(SeenAd{id.Key(), 0});  // The issuer's own copy is hop 0.
  net::Packet packet = MakeGossipPacket(ad);
  packet.hop = RebroadcastHop(id.Key());
  CacheEntry* entry = InsertAd(std::move(ad), 1.0);
  if (entry != nullptr) {
    // The seed frame carries exactly the cached version: share it.
    entry->snapshot = std::static_pointer_cast<const GossipMessage>(
        packet.payload);
    entry->snapshot_bytes = packet.size_bytes;
  }
  // Seed the neighbourhood once; from here the network maintains the ad
  // and this issuer may go offline.
  Broadcast(packet);
  return id;
}

void OpportunisticGossip::OnCrash() {
  cache_.EraseIf([this](uint64_t /*key*/, CacheEntry& entry) {
    if (entry.timer != sim::kInvalidEventId) {
      context_.simulator->Cancel(entry.timer);
    }
    return true;
  });
  RecallIgnored();  // Every cached ad is gone: see RecallIgnored.
}

void OpportunisticGossip::OnRejoin() {
  // Expired entries are pruned rather than re-announced; survivors go out
  // immediately. ForEach iterates the cache in its (deterministic)
  // internal order, same as GossipRound.
  RefreshCache();
  cache_.ForEach([this](uint64_t key, CacheEntry& entry) {
    BroadcastEntry(key, &entry);
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
  cache_.EraseIf([this, now](uint64_t /*key*/, CacheEntry& entry) {
    if (entry.ad.ExpiredAt(now)) {
      if (entry.timer != sim::kInvalidEventId) {
        context_.simulator->Cancel(entry.timer);
      }
      return true;
    }
    entry.probability = ProbabilityFor(entry.ad);
    return false;
  });
}

void OpportunisticGossip::GossipRound() {
  round_event_ = sim::kInvalidEventId;
  // Algorithm 2: refresh all entries' probabilities, then broadcast each
  // entry with its probability.
  RefreshCache();
  if (cache_.Size() == 0) return;  // Parked until the next insert.
  cache_.ForEach([this](uint64_t key, CacheEntry& entry) {
    if (context_.rng.Bernoulli(entry.probability)) {
      BroadcastEntry(key, &entry);
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
    BroadcastEntry(key, entry);
  } else if (context_.trace != nullptr &&
             context_.trace->Enabled(obs::kTraceSuppress)) {
    context_.trace->Suppress(now, context_.self, key, "bernoulli",
                             entry->probability);
  }
  entry->next_gossip_time = now + options_.round_time_s;
  ScheduleEntry(key, entry);
}

uint32_t OpportunisticGossip::RebroadcastHop(uint64_t key) const {
  const SeenAd* seen = FindSeen(key);
  // Every cached ad was either issued or received, so the key is always
  // present; the fallback keeps a (hypothetical) miss at hop 1.
  return seen != nullptr ? seen->hop + 1 : 1;
}

void OpportunisticGossip::BroadcastEntry(uint64_t key, CacheEntry* entry) {
  if (entry->snapshot == nullptr) {
    // First broadcast of this version of the ad: copy it once; every
    // later broadcast shares the copy until a merge changes the ad.
    // NOLINTNEXTLINE(madnet-hot-transitive-alloc): once per ad version.
    entry->snapshot = std::make_shared<const GossipMessage>(entry->ad);
    entry->snapshot_bytes = entry->ad.WireSizeBytes();
  }
  net::Packet packet;
  packet.payload = entry->snapshot;
  packet.size_bytes = entry->snapshot_bytes;
  packet.ad_key = key;
  packet.hop = RebroadcastHop(key);
  Broadcast(packet);
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

  const bool full = cache_.Full();
  sim::EventId evicted_timer = sim::kInvalidEventId;
  CacheEntry* inserted = cache_.Insert(std::move(entry), &evicted_timer);
  if (evicted_timer != sim::kInvalidEventId) {
    context_.simulator->Cancel(evicted_timer);
  }
  // An evicted ad's duplicates would be inserted again: recall them.
  if (inserted != nullptr && full) RecallIgnored();
  if (inserted != nullptr) {
    if (options_.postpone) {
      ScheduleEntry(inserted->ad.id.Key(), inserted);
    } else if (round_event_ == sim::kInvalidEventId) {
      ArmRound();
    }
  }
  return inserted;
}

void OpportunisticGossip::FirstSight(const Advertisement& ad, uint32_t hop,
                                     net::NodeId from) {
  const uint64_t key = ad.id.Key();
  // NOLINTNEXTLINE(madnet-hot-transitive-alloc): cold, once per (ad, peer).
  seen_.push_back(SeenAd{key, hop});
  RecordReceipt(key);
  TraceDeliver(key, hop, from);
  // Display filter (UI-level, Section I): show the ad if the user has no
  // interest filter, or if it matches. Relaying is unconditional.
  if (interests_.Size() == 0 || interests_.Matches(ad.content)) {
    ++displayed_count_;
  }
}

void OpportunisticGossip::InsertReceived(const net::Packet& packet,
                                         const Advertisement& received,
                                         bool first_sight) {
  if (received.ExpiredAt(Now())) return;  // Stale frame still in flight.
  Advertisement ad = received;
  const bool rank = options_.ranking && first_sight;
  if (rank) {
    // Algorithm 5: count this user's interest and enlarge R/D if the rank
    // rose. Guarded by first_sight so an evicted-then-re-received ad is
    // not enlarged twice by the same peer.
    RankAndEnlarge(&ad, interests_, context_.self, options_.ranking_options);
  }
  const double probability = ProbabilityFor(ad);
  CacheEntry* entry = InsertAd(std::move(ad), probability);
  if (entry != nullptr && !rank) {
    // Cached unchanged: the received frame already is this version's
    // snapshot (its kind tag was checked in OnReceive).
    entry->snapshot = std::static_pointer_cast<const GossipMessage>(
        packet.payload);
    entry->snapshot_bytes = packet.size_bytes;
  }
}

bool OpportunisticGossip::MayIgnore() const {
  // Every duplicate writes a sketch record while that category's text is
  // on.
  return !options_.ranking && !options_.postpone &&
         (context_.trace == nullptr ||
          !context_.trace->TextEnabled(obs::kTraceSketch));
}

// MADNET_HOT
bool OpportunisticGossip::Ignores(const net::Packet& packet) const {
  if (!MayIgnore()) return false;
  const GossipMessage* message = PayloadAs<GossipMessage>(packet);
  if (message == nullptr) return true;  // Not a gossip frame.
  // A cached ad has been seen: it was issued or received here.
  const CacheEntry* entry = cache_.Find(message->ad.id.Key());
  return entry != nullptr && entry->ad.radius_m >= message->ad.radius_m &&
         entry->ad.duration_s >= message->ad.duration_s;
}

// MADNET_HOT
void OpportunisticGossip::OnReceive(const net::Packet& packet,
                                    net::NodeId from) {
  const GossipMessage* message = PayloadAs<GossipMessage>(packet);
  if (message == nullptr) return;  // Not a gossip frame.

  const uint64_t key = message->ad.id.Key();
  const bool first_sight = FindSeen(key) == nullptr;
  if (first_sight) FirstSight(message->ad, packet.hop, from);

  CacheEntry* entry = cache_.Find(key);
  if (entry == nullptr) {
    InsertReceived(packet, message->ad, first_sight);
    return;
  }
  // Duplicate: merge any enlargement/sketch updates, then (Opt-2) postpone
  // our own scheduled gossip of this ad. Sketches are merged only when
  // ranking reads them; without ranking every sketch in flight is empty.
  if (entry->ad.MergeFrom(message->ad, options_.ranking)) {
    entry->snapshot.reset();  // The next broadcast carries the new version.
  }
  if (options_.ranking) ++sketch_merges_;
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
}

}  // namespace madnet::core
