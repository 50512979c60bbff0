// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Wire-level types of the wireless substrate. The medium is payload-
// agnostic: protocols attach any Payload subclass, each of which carries
// its kind tag, and read the tag back instead of probing the payload's
// dynamic type; size accounting uses the declared wire size.

#ifndef MADNET_NET_PACKET_H_
#define MADNET_NET_PACKET_H_

#include <cstdint>
#include <memory>

namespace madnet::net {

/// Identifier of a network node (stable for the lifetime of a scenario).
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNodeId = 0xFFFFFFFFu;

/// Payload type tag. The medium never reads it; the protocol layer assigns
/// the values (core/advertisement.h) and downcasts a payload only after
/// checking its tag. 0 marks an untagged payload no protocol reads.
using PacketKind = uint16_t;
inline constexpr PacketKind kUntaggedPacket = 0;

/// Base class for anything a packet can carry. Payloads are immutable once
/// broadcast (shared by every receiver), mirroring real radio broadcast.
struct Payload {
  explicit Payload(PacketKind kind_in = kUntaggedPacket) : kind(kind_in) {}
  virtual ~Payload() = default;
  const PacketKind kind;  ///< Type tag, fixed by the subclass constructor.
};

/// One over-the-air frame. All madnet transmissions are local broadcasts
/// ("the broadcast nature of wireless transmission is exploited to transfer
/// an advertisement to all neighbour peers by one single message" — paper,
/// Section III-A).
struct Packet {
  std::shared_ptr<const Payload> payload;  ///< Immutable shared body.
  uint32_t size_bytes = 0;                 ///< Modelled wire size.

  // --- Provenance metadata (not wire bytes; size_bytes is unaffected) ---
  // Protocols stamp these so the observability layer can attribute each
  // frame to the advertisement it carries and reconstruct dissemination
  // trees from the trace. Frames that carry no single ad (e.g. batched
  // exchange messages) leave ad_key at 0.
  uint64_t ad_key = 0;  ///< AdId::Key() of the carried ad, or 0.
  uint32_t hop = 0;     ///< Hop count of this transmission (issuer = 0).
};

}  // namespace madnet::net

#endif  // MADNET_NET_PACKET_H_
