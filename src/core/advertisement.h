// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The advertisement data model (paper, Section III-A). An advertisement is
// identified by its issuer plus a per-issuer sequence number ("identified by
// the issuer's MAC address plus ID"). The message carries the issuing time
// and location (from which age and distance derive), the evolving
// propagation parameters R and D, the content used for interest matching,
// and the piggy-backed FM sketches used for popularity ranking.

#ifndef MADNET_CORE_ADVERTISEMENT_H_
#define MADNET_CORE_ADVERTISEMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/event_queue.h"
#include "sketch/fm_sketch.h"
#include "util/geometry.h"

namespace madnet::core {

using net::NodeId;
using sim::Time;

/// Unique advertisement identity: issuer node + issuer-local sequence.
struct AdId {
  NodeId issuer = net::kInvalidNodeId;
  uint32_t sequence = 0;

  /// Packed 64-bit key for maps and the metrics pipeline.
  uint64_t Key() const {
    return (static_cast<uint64_t>(issuer) << 32) | sequence;
  }

  bool operator==(const AdId& o) const {
    return issuer == o.issuer && sequence == o.sequence;
  }
};

/// What the advertisement says: a type/category ("petrol", "grocery"...)
/// plus free keywords. Interest matching (Formula 5) compares these against
/// a user's interest keywords.
struct AdContent {
  std::string category;
  std::vector<std::string> keywords;
  std::string text;  ///< Human-readable body; only its size matters here.

  /// Modelled wire size of the content in bytes.
  uint32_t SizeBytes() const;
};

/// A complete advertisement as it travels the network. `radius_m` and
/// `duration_s` start at the issuer's R and D and may be *enlarged* by the
/// popularity scheme (Formula 7); `initial_radius_m` / `initial_duration_s`
/// never change and parameterize the enlargement increments.
struct Advertisement {
  AdId id;
  Time issue_time = 0.0;
  Vec2 issue_location;
  double initial_radius_m = 1000.0;   ///< R0 at issue.
  double initial_duration_s = 800.0;  ///< D0 at issue.
  double radius_m = 1000.0;           ///< Current R (>= R0).
  double duration_s = 800.0;          ///< Current D (>= D0).
  AdContent content;
  sketch::FmSketchArray sketches;     ///< Distinct-interested-user counter.

  /// Age of the advertisement at virtual time `now`.
  Time AgeAt(Time now) const { return now - issue_time; }

  /// True once the (possibly enlarged) duration has fully elapsed.
  bool ExpiredAt(Time now) const { return AgeAt(now) > duration_s; }

  /// Exact wire size: what the binary codec (core/ad_codec.h) emits —
  /// header + content + sketch bitmaps.
  uint32_t WireSizeBytes() const;

  /// Merges a second copy of the *same* advertisement received from the
  /// network: R and D take the maximum (enlargements propagate) and, with
  /// `merge_sketches`, the FM sketches take the bitwise-OR union (callers
  /// that never read the sketches skip it). Returns true iff R, D or a
  /// sketch bit changed. No-op (false) on id mismatch.
  bool MergeFrom(const Advertisement& other, bool merge_sketches);
};

/// net::Payload::kind values of the core protocols' payloads, one per
/// payload type.
enum CorePacketKind : net::PacketKind {
  kGossipPacket = 1,
  kFloodPacket = 2,
  kBeaconPacket = 3,
  kExchangePacket = 4,
};

/// The payload of `packet` as `Message`, or nullptr when there is none or
/// its kind tag names another payload type. Each message type's
/// constructor sets the tag, so the static_cast is exact without RTTI.
template <typename Message>
const Message* PayloadAs(const net::Packet& packet) {
  const net::Payload* payload = packet.payload.get();
  if (payload == nullptr || payload->kind != Message::kKind) return nullptr;
  return static_cast<const Message*>(payload);
}

/// Payload of a gossip broadcast: one advertisement.
struct GossipMessage : net::Payload {
  static constexpr net::PacketKind kKind = kGossipPacket;
  explicit GossipMessage(Advertisement ad_in)
      : Payload(kKind), ad(std::move(ad_in)) {}
  Advertisement ad;
};

/// Payload of a restricted-flooding broadcast: the advertisement plus the
/// flood round and the issuer-decided current radius limit.
struct FloodMessage : net::Payload {
  static constexpr net::PacketKind kKind = kFloodPacket;
  FloodMessage(Advertisement ad_in, uint32_t round_in, double radius_limit_in)
      : Payload(kKind),
        ad(std::move(ad_in)),
        round(round_in),
        radius_limit(radius_limit_in) {}
  Advertisement ad;
  uint32_t round;       ///< Issuer broadcast cycle this frame belongs to.
  double radius_limit;  ///< Relay only while inside this radius.
};

/// Builds an on-air packet from an advertisement payload.
net::Packet MakeGossipPacket(const Advertisement& ad);
net::Packet MakeFloodPacket(const Advertisement& ad, uint32_t round,
                            double radius_limit);

}  // namespace madnet::core

#endif  // MADNET_CORE_ADVERTISEMENT_H_
