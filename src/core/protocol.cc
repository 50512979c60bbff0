// Copyright (c) 2026 madnet authors. All rights reserved.

#include "core/protocol.h"

#include <cassert>

namespace madnet::core {

Protocol::Protocol(ProtocolContext context) : context_(std::move(context)) {
  assert(context_.simulator != nullptr);
  assert(context_.medium != nullptr);
  assert(context_.self != net::kInvalidNodeId);
}

void Protocol::Start() {
  Status status = context_.medium->SetReceiver(
      context_.self, [this](const net::Packet& packet, net::NodeId from,
                            net::NodeId /*to*/) { OnReceive(packet, from); });
  assert(status.ok() && "node must be registered with the medium first");
  (void)status;
}

StatusOr<AdId> Protocol::Issue(const AdContent& /*content*/,
                               double /*radius_m*/, double /*duration_s*/) {
  return Status::FailedPrecondition("this protocol cannot issue ads");
}

void Protocol::Broadcast(const net::Packet& packet) {
  (void)context_.medium->Broadcast(context_.self, packet);
}

void Protocol::RecordReceipt(uint64_t ad_key) {
  if (context_.delivery_log == nullptr) return;
  context_.delivery_log->RecordReceipt(ad_key, context_.self, Now());
}

void Protocol::TraceDeliver(uint64_t ad_key, uint32_t hop,
                            net::NodeId parent) {
  if (context_.trace == nullptr ||
      !context_.trace->Enabled(obs::kTraceDeliver)) {
    return;
  }
  context_.trace->Deliver(Now(), context_.self, ad_key, hop,
                          context_.medium->delivering_tx_seq(), parent);
}

Advertisement Protocol::MakeAdvertisement(
    const AdContent& content, double radius_m, double duration_s,
    const sketch::FmSketchArray::Options& sketch_options) {
  Advertisement ad;
  ad.id = AdId{context_.self, next_sequence_++};
  ad.issue_time = Now();
  ad.issue_location = Position();
  ad.initial_radius_m = radius_m;
  ad.initial_duration_s = duration_s;
  ad.radius_m = radius_m;
  ad.duration_s = duration_s;
  ad.content = content;
  ad.sketches = sketch::FmSketchArray(sketch_options);
  return ad;
}

}  // namespace madnet::core
