// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The paper's contribution: the Opportunistic Gossiping protocol
// (Section III-C) with its two message-reduction optimizations
// (Section III-D) and the FM-sketch popularity ranking (Section III-E),
// each independently switchable:
//
//   * Pure gossip — every Gossiping Round each peer broadcasts every cached
//     ad with probability P(d, t) (Formulas 1+2). The issuer seeds the ad
//     once and may go offline; peers maintain it cooperatively, and the
//     cache gives store-&-forward behaviour in sparse networks.
//   * Optimization 1 (`annulus`) — peers in the central disc of radius
//     R - DIS gossip with sharply reduced probability (Formula 3); only the
//     boundary annulus, where newcomers necessarily pass, stays active.
//     During an initial bootstrap phase the plain probability is used so
//     the first wave can spread outwards from the issuing location.
//   * Optimization 2 (`postpone`) — per-ad independent gossip timers;
//     overhearing a neighbour broadcast an ad you cache pushes your own
//     scheduled gossip back by Formula 4 (more for closer neighbours and
//     head-on approach).
//   * Ranking (`ranking`) — on first receipt of a matching ad, the peer
//     hashes its user id into the piggy-backed FM sketches and, if the
//     estimated rank rose, enlarges the ad's R and D (Formula 7).
//
// "Optimized Gossiping" in the paper = annulus + postpone.

#ifndef MADNET_CORE_OPPORTUNISTIC_GOSSIP_H_
#define MADNET_CORE_OPPORTUNISTIC_GOSSIP_H_

#include <vector>

#include "core/ad_cache.h"
#include "core/interest.h"
#include "core/propagation.h"
#include "core/protocol.h"
#include "core/ranking.h"
#include "sketch/fm_sketch.h"

namespace madnet::core {

/// Configuration of a gossip peer. All peers of a scenario share one
/// GossipOptions value.
struct GossipOptions {
  PropagationParams propagation;

  double round_time_s = 5.0;   ///< Gossiping Round Time (paper: t).
  size_t cache_capacity = 10;  ///< Top-k cache size (paper: k).

  bool annulus = false;        ///< Optimization 1 on/off.
  /// Annulus width DIS (Table II: R/4). Setting 0 selects the velocity
  /// constraint's minimum automatically at Start(): DIS = V_max * round
  /// (paper Section III-D: a peer cannot cross more than that per round).
  double dis_m = 250.0;
  /// Age below which Optimization 1 still uses the plain probability, so
  /// the initial wave can cross the central disc ("except for the first
  /// time that an advertisement spreads from the issuing location
  /// outwards"). Default: the time a hop-per-round wave needs to cover
  /// R = 1000 m at 250 m per 5 s round.
  double bootstrap_age_s = 20.0;

  bool postpone = false;       ///< Optimization 2 on/off.

  bool ranking = false;        ///< FM popularity ranking on/off.
  RankingOptions ranking_options;
  sketch::FmSketchArray::Options sketch_options;  ///< For issued ads.

  /// Convenience constructors for the paper's five configurations.
  static GossipOptions Pure() { return {}; }
  static GossipOptions Optimized1() {
    GossipOptions o;
    o.annulus = true;
    return o;
  }
  static GossipOptions Optimized2() {
    GossipOptions o;
    o.postpone = true;
    return o;
  }
  static GossipOptions Optimized() {
    GossipOptions o;
    o.annulus = true;
    o.postpone = true;
    return o;
  }
};

/// One gossip peer. Any peer may issue advertisements.
class OpportunisticGossip : public Protocol {
 public:
  /// `interests` drives Match() when ranking is enabled.
  OpportunisticGossip(ProtocolContext context, const GossipOptions& options,
                      InterestProfile interests = {});

  /// Registers with the medium; without Optimization 2, also draws the
  /// phase of the node's global gossip round chain, uniform in
  /// [0, round_time) ("all peers work asynchronously"). The chain starts
  /// parked — nothing is scheduled until the first ad enters the cache.
  void Start() override;

  /// Issues a new ad: inserts it into the local cache and broadcasts it
  /// once. The issuer may go offline afterwards; the network maintains the
  /// ad from here on.
  StatusOr<AdId> Issue(const AdContent& content, double radius_m,
                       double duration_s) override;

  /// Crash-with-cache-loss: drops every cached ad and cancels its timer;
  /// the global round chain parks at its next round.
  /// `seen_` survives on purpose — first-receipt metrics and the ranking
  /// step fire once per (ad, peer) even across a crash, matching
  /// DeliveryLog's semantics.
  void OnCrash() override;

  /// Graceful degradation on rejoin: re-announces every live cached ad
  /// once, so the neighbourhood recovers the state this peer carried
  /// without waiting for the next gossip round.
  void OnRejoin() override;

  /// Read access for tests and examples.
  const AdCache& cache() const { return cache_; }
  const GossipOptions& options() const { return options_; }
  const InterestProfile& interests() const { return interests_; }

  /// Number of times this peer postponed a scheduled gossip (Opt-2).
  uint64_t postpone_count() const { return postpone_count_; }

  /// FM sketch-array merges into cached ads. Only ranking reads the
  /// sketches, so without it duplicates merge R and D alone and this
  /// stays 0.
  uint64_t sketch_merges() const { return sketch_merges_; }

  /// Number of distinct ads *displayed* to this user. Section I: "users
  /// may choose not to display an advertisement of no interest ... but
  /// they have to take part in relaying and maintaining" — so display is a
  /// UI filter, not a protocol one: a peer with an interest profile shows
  /// only matching ads (and relays everything); a peer with an empty
  /// profile shows everything.
  uint64_t displayed_count() const { return displayed_count_; }

  /// True for a duplicate of a cached ad whose R and D are at least the
  /// frame's, in pure gossip or Opt-1 with no sketch trace: OnReceive
  /// would merge nothing. Seen ads stay seen and cached R and D only grow;
  /// eviction and crash recall the node's elided deliveries (see
  /// RecallIgnored). Ranking merges sketches and Opt-2 postpones, so
  /// neither ignores.
  bool Ignores(const net::Packet& packet) const override;
  bool MayIgnore() const override;

 protected:
  void OnReceive(const net::Packet& packet, net::NodeId from) override;

 private:
  /// Forwarding probability for `ad` at this peer's current position and
  /// the current time (Formula 1, or Formula 3 when Optimization 1 is
  /// active and the ad is past its bootstrap phase).
  double ProbabilityFor(const Advertisement& ad) const;

  /// Recomputes every cache entry's probability and drops expired ads
  /// (cancelling their timers).
  void RefreshCache();

  /// After an eviction or a crash: duplicates of a removed ad would be
  /// inserted again, so they are no longer Ignores()d. Expiry needs no
  /// recall: an ignored frame's ad has the cached issue time and at most
  /// its duration, so it has expired too when it arrives, and
  /// InsertReceived drops it.
  void RecallIgnored() {
    if (MayIgnore()) context_.medium->Recall(context_.self);
  }

  /// Global round (no Optimization 2): broadcast each entry w.p. P, then
  /// schedule the next round — or park the chain if the cache is empty.
  void GossipRound();

  /// Schedules the next round at the first chain time strictly after
  /// Now(). Tie rule: an insert at exactly a chain time arms the round one
  /// period later, as an always-on timer's round at that instant would
  /// already have run (scheduled a period earlier) and found the cache
  /// empty.
  void ArmRound();

  /// Per-entry timer fired (Optimization 2 path).
  void EntryTimerFired(uint64_t key);

  /// (Re)schedules an entry's timer at entry->next_gossip_time.
  void ScheduleEntry(uint64_t key, CacheEntry* entry);

  /// Inserts a received/issued ad into the cache, handling eviction and
  /// timer bookkeeping. Returns the entry or nullptr if it lost eviction.
  CacheEntry* InsertAd(Advertisement ad, double initial_probability);

  /// First receipt of an ad: records it in seen_, the delivery log, the
  /// deliver trace and the display count.
  void FirstSight(const Advertisement& ad, uint32_t hop, net::NodeId from);

  /// Receipt of an ad this peer does not cache: copies it, ranks it on
  /// first sight (ranking on) and offers it to the cache. An ad cached
  /// unchanged keeps the received frame's payload as its snapshot.
  void InsertReceived(const net::Packet& packet, const Advertisement& received,
                      bool first_sight);

  /// Broadcasts the entry's current version, building its shared snapshot
  /// first if there is none.
  void BroadcastEntry(uint64_t key, CacheEntry* entry);

  /// Hop count to stamp on an outgoing broadcast of `key`: this peer's
  /// first-receipt hop + 1 (the issuer's own copy is hop 0, so its seed
  /// broadcast carries hop 1). See Packet::hop / the deliver trace.
  uint32_t RebroadcastHop(uint64_t key) const;

  /// One ad this peer has seen (received or issued).
  struct SeenAd {
    uint64_t key;
    uint32_t hop;  ///< Hop count at first receipt (0 if issued here).
  };

  /// The seen_ record of `key`, or nullptr before first receipt.
  const SeenAd* FindSeen(uint64_t key) const {
    for (const SeenAd& seen : seen_) {
      if (seen.key == key) return &seen;
    }
    return nullptr;
  }

  GossipOptions options_;
  InterestProfile interests_;
  AdCache cache_;
  /// Global round chain (no Optimization 2). Chain times are the Start
  /// phase plus repeated additions of round_time — never phase + k * round
  /// — so every round lands on the same double as an always-on periodic
  /// timer would. next_round_s_ is the latest chain time reached (the
  /// first one, before any round ran). A round that finds the cache empty
  /// parks the chain: round_event_ stays invalid, so an idle peer keeps no
  /// event pending (docs/architecture.md §2).
  sim::Time next_round_s_ = 0.0;
  sim::EventId round_event_ = sim::kInvalidEventId;
  uint64_t postpone_count_ = 0;
  uint64_t displayed_count_ = 0;
  uint64_t sketch_merges_ = 0;
  /// Every ad ever seen, in first-sight order, with its first-receipt hop;
  /// found by a linear key scan (a Figure 7 run has one ad). Receipt
  /// metrics, the deliver trace, and the ranking step fire once per ad
  /// even if it was evicted and re-received; the hop value also stamps
  /// every rebroadcast.
  std::vector<SeenAd> seen_;
};

}  // namespace madnet::core

#endif  // MADNET_CORE_OPPORTUNISTIC_GOSSIP_H_
