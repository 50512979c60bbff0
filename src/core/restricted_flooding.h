// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Restricted Flooding — the paper's baseline (Section III-B). The issuer
// re-broadcasts the advertisement every round with the current radius limit
// R_t embedded; every receiver inside the limit relays the frame once per
// round. The issuer must stay online for the whole advertising period, and
// the per-round message count is O(rho * pi * R^2).

#ifndef MADNET_CORE_RESTRICTED_FLOODING_H_
#define MADNET_CORE_RESTRICTED_FLOODING_H_

#include <unordered_map>
#include <vector>

#include "core/propagation.h"
#include "core/protocol.h"

namespace madnet::core {

/// Baseline flooding protocol, one instance per node. Any node may issue;
/// all nodes relay.
class RestrictedFlooding : public Protocol {
 public:
  struct Options {
    PropagationParams propagation;   ///< beta drives the R_t decay.
    double round_time_s = 5.0;       ///< Issuer broadcast cycle (paper: t).
    double relay_jitter_max_s = 0.2; ///< Relay delay U(0, max), desyncs
                                     ///< neighbouring rebroadcasts.
  };

  RestrictedFlooding(ProtocolContext context, const Options& options);

  /// Starts periodic flooding of a new ad from this node (the issuer
  /// role). A node may issue any number of concurrent ads; each floods on
  /// its own cycle until it expires.
  StatusOr<AdId> Issue(const AdContent& content, double radius_m,
                       double duration_s) override;

  /// Number of ads this node is currently flooding.
  size_t ActiveIssues() const { return issuing_.size(); }

  /// True for a frame of a round this node has already relayed (or that
  /// is not a flooding frame): OnReceive would change nothing, and relay
  /// state only grows.
  bool Ignores(const net::Packet& packet) const override;
  bool MayIgnore() const override { return true; }

 protected:
  void OnReceive(const net::Packet& packet, net::NodeId from) override;

 private:
  struct IssuingState {
    Advertisement ad;
    uint32_t round = 0;
    sim::PeriodicHandle timer;
  };

  /// Relay state of one ad this node has seen or issued.
  struct AdState {
    uint64_t key = 0;
    /// Hop count at first receipt (0 for an ad this node issued); drives
    /// the deliver trace and the hop stamped on relayed frames.
    uint32_t hop = 0;
    /// Bit r is set once flood round r has been relayed (or, at the
    /// issuer, broadcast).
    std::vector<uint64_t> relayed_rounds;

    bool Relayed(uint32_t round) const {
      const size_t word = round / 64;
      return word < relayed_rounds.size() &&
             ((relayed_rounds[word] >> (round % 64)) & 1u) != 0;
    }
    void MarkRelayed(uint32_t round);
  };

  /// One issuer broadcast cycle for one ad; returns false once expired.
  bool IssuerRound(uint64_t key);

  /// Index of `key`'s relay state in ads_, or ads_.size() before this
  /// node first saw it.
  size_t IndexOfAd(uint64_t key) const {
    size_t i = 0;
    while (i < ads_.size() && ads_[i].key != key) ++i;
    return i;
  }

  /// First receipt of an ad: records the receipt and the deliver trace,
  /// and appends the ad's relay state.
  AdState* FirstSight(uint64_t key, uint32_t hop, net::NodeId from);

  /// First receipt of one flood round: marks it relayed and, inside the
  /// frame's radius limit, schedules the jittered rebroadcast.
  void RelayRound(AdState* state, const net::Packet& packet,
                  const FloodMessage& message);

  /// Rebroadcasts the frame parked in relay slot `slot` and frees the slot.
  void FireRelay(uint32_t slot);

  Options options_;
  std::unordered_map<uint64_t, IssuingState> issuing_;
  /// Per-ad relay state in first-sight order, found by a linear key scan:
  /// a Figure 7 run has one ad, a multi-ad run a handful.
  std::vector<AdState> ads_;
  /// Frames waiting out their relay jitter. The scheduled callback
  /// captures only `this` and a slot index, so it fits std::function's
  /// inline buffer and a relay allocates nothing once the pool is warm.
  std::vector<net::Packet> relay_slots_;
  std::vector<uint32_t> free_relay_slots_;
};

}  // namespace madnet::core

#endif  // MADNET_CORE_RESTRICTED_FLOODING_H_
