// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/advertisement.h"

#include <algorithm>
#include <memory>

#include "core/ad_codec.h"

namespace madnet::core {

uint32_t AdContent::SizeBytes() const {
  uint32_t size = static_cast<uint32_t>(category.size() + text.size());
  for (const auto& keyword : keywords) {
    size += static_cast<uint32_t>(keyword.size()) + 1;
  }
  return size;
}

uint32_t Advertisement::WireSizeBytes() const {
  // Exact: the size the binary codec (core/ad_codec.h) would produce.
  return static_cast<uint32_t>(EncodedSize(*this));
}

bool Advertisement::MergeFrom(const Advertisement& other,
                              bool merge_sketches) {
  if (!(other.id == id)) return false;
  bool changed = other.radius_m > radius_m || other.duration_s > duration_s;
  radius_m = std::max(radius_m, other.radius_m);
  duration_s = std::max(duration_s, other.duration_s);
  if (merge_sketches) {
    bool sketches_changed = false;
    // Arrays always share options within one scenario; a mismatch is a
    // programming error upstream and is ignored here.
    (void)sketches.Merge(other.sketches, &sketches_changed);
    changed = changed || sketches_changed;
  }
  return changed;
}

net::Packet MakeGossipPacket(const Advertisement& ad) {
  net::Packet packet;
  packet.size_bytes = ad.WireSizeBytes();
  packet.payload = std::make_shared<const GossipMessage>(ad);
  packet.ad_key = ad.id.Key();
  return packet;
}

net::Packet MakeFloodPacket(const Advertisement& ad, uint32_t round,
                            double radius_limit) {
  net::Packet packet;
  packet.size_bytes = ad.WireSizeBytes() + 12;  // Round + radius fields.
  packet.payload =
      std::make_shared<const FloodMessage>(ad, round, radius_limit);
  packet.ad_key = ad.id.Key();
  return packet;
}

}  // namespace madnet::core
