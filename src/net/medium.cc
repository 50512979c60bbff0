// Copyright (c) 2026 madnet authors. All rights reserved.

#include "net/medium.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/logging.h"

namespace madnet::net {

Medium::Medium(const Options& options, Simulator* simulator, Rng rng)
    : options_(options),
      simulator_(simulator),
      rng_(rng),
      index_(options.range_m > 0.0 ? options.range_m : 1.0),
      plain_medium_(!options.csma && options.loss_probability == 0.0 &&
                    options.fading_exponent == 0.0 &&
                    !options.enable_collisions),
      elided_frames_due_(std::numeric_limits<Time>::infinity()) {
  MADNET_DCHECK(simulator != nullptr);
  MADNET_DCHECK(options.range_m > 0.0 && std::isfinite(options.range_m));
  MADNET_DCHECK(options.max_latency_s >= options.min_latency_s &&
                options.min_latency_s >= 0.0);
  MADNET_DCHECK(options.loss_probability >= 0.0 &&
                options.loss_probability <= 1.0);
  MADNET_DCHECK(options.fading_exponent >= 0.0);
  simulator_->AddSettler(this);
}

Medium::~Medium() { simulator_->RemoveSettler(this); }

Status Medium::AddNode(NodeId id, MobilityModel* mobility) {
  if (mobility == nullptr) {
    return Status::InvalidArgument("mobility model must not be null");
  }
  const uint32_t index = static_cast<uint32_t>(ids_.size());
  auto [it, inserted] = index_of_.try_emplace(id, index);
  if (!inserted) return Status::AlreadyExists("node id already registered");
  ids_.push_back(id);
  mobility_.push_back(mobility);
  receivers_.push_back(nullptr);
  online_.push_back(1);
  last_rx_time_.push_back(-1.0);
  last_rx_from_.push_back(kInvalidNodeId);
  rx_garbled_.push_back(0);
  channel_busy_until_.push_back(-1.0);
  sent_.push_back(0);
  sent_bytes_.push_back(0);
  received_.push_back(0);
  received_bytes_.push_back(0);
  pos_x_.push_back(0.0);
  pos_y_.push_back(0.0);
  pos_time_.push_back(-1.0);
  leg_start_.push_back(0.0);  // start == end: mirror starts invalid.
  leg_end_.push_back(0.0);
  leg_from_x_.push_back(0.0);
  leg_from_y_.push_back(0.0);
  leg_to_x_.push_back(0.0);
  leg_to_y_.push_back(0.0);
  ++online_count_;
  // Force a new epoch from a fresh snapshot: the node set changed.
  index_time_ = -1.0;
  snapshot_time_ = -1.0;
  ++mutation_epoch_;
  return Status::Ok();
}

Status Medium::SetReceiver(NodeId id, Receiver* receiver) {
  const uint32_t index = IndexOf(id);
  if (index == kNotFound) return Status::NotFound("unknown node id");
  receivers_[index] = receiver;
  if (receiver != nullptr && receiver->MayIgnore()) asks_receivers_ = true;
  return Status::Ok();
}

Status Medium::SetOnline(NodeId id, bool online) {
  const uint32_t index = IndexOf(id);
  if (index == kNotFound) return Status::NotFound("unknown node id");
  // Snapshot rebuilds skip offline nodes, so a node coming back must
  // become queryable immediately: force a fresh snapshot at the next
  // query. Going offline needs none — queries filter on the live flag
  // anyway.
  if (online && !online_[index]) {
    index_time_ = -1.0;
    snapshot_time_ = -1.0;
  }
  if (!online && online_[index]) SettleInert(index);
  if (online != (online_[index] != 0)) {
    online_count_ = online ? online_count_ + 1 : online_count_ - 1;
  }
  online_[index] = online ? 1 : 0;
  ++mutation_epoch_;  // Invalidate the same-tick neighbour memo.
  return Status::Ok();
}

void Medium::SetExtraLoss(double probability) {
  MADNET_DCHECK(probability >= 0.0 && probability <= 1.0 &&
                std::isfinite(probability));
  extra_loss_ = probability;
  if (probability > 0.0) SettleInert(kEveryNode);
}

void Medium::SetJamZones(std::vector<Rect> zones) {
  jam_zones_ = std::move(zones);
  if (!jam_zones_.empty()) SettleInert(kEveryNode);
}

void Medium::Recall(NodeId id) {
  const uint32_t index = IndexOf(id);
  if (index != kNotFound) SettleInert(index);
}

uint64_t Medium::SentBy(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index == kNotFound ? 0 : sent_[index];
}

uint64_t Medium::SentBytesBy(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index == kNotFound ? 0 : sent_bytes_[index];
}

uint64_t Medium::ReceivedBy(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index == kNotFound ? 0 : received_[index];
}

uint64_t Medium::ReceivedBytesBy(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index == kNotFound ? 0 : received_bytes_[index];
}

bool Medium::IsOnline(NodeId id) const {
  const uint32_t index = IndexOf(id);
  return index != kNotFound && online_[index] != 0;
}

// MADNET_HOT
bool Medium::MirrorPositionAt(uint32_t index, Time t, Vec2* position) const {
  const Time start = leg_start_[index];
  const Time end = leg_end_[index];
  if (!(start < t && t < end)) return false;
  // Strictly inside the mirrored leg: that leg is the unique one containing
  // `t` in its interior, and the expression below is the one
  // Leg::PositionAt uses (interior times make its clamp a no-op), so this
  // is bit-identical to asking the model.
  const double s = (t - start) / (end - start);
  position->x =
      leg_from_x_[index] + (leg_to_x_[index] - leg_from_x_[index]) * s;
  position->y =
      leg_from_y_[index] + (leg_to_y_[index] - leg_from_y_[index]) * s;
  return true;
}

// MADNET_HOT
Vec2 Medium::CachedPositionAt(uint32_t index, Time now) const {
  if (pos_time_[index] == now) return Vec2{pos_x_[index], pos_y_[index]};
  Vec2 position;
  if (!MirrorPositionAt(index, now, &position)) {
    position = mobility_[index]->PositionAt(now);
    if (const mobility::Leg* leg = mobility_[index]->CursorLeg()) {
      leg_start_[index] = leg->start;
      leg_end_[index] = leg->end;
      leg_from_x_[index] = leg->from.x;
      leg_from_y_[index] = leg->from.y;
      leg_to_x_[index] = leg->to.x;
      leg_to_y_[index] = leg->to.y;
    }
  }
  pos_time_[index] = now;
  pos_x_[index] = position.x;
  pos_y_[index] = position.y;
  return position;
}

Vec2 Medium::PositionOf(NodeId id) const {
  const uint32_t index = IndexOf(id);
  MADNET_DCHECK(index != kNotFound);  // PositionOf on unknown node.
  return CachedPositionAt(index, simulator_->Now());
}

Vec2 Medium::VelocityOf(NodeId id) const {
  const uint32_t index = IndexOf(id);
  MADNET_DCHECK(index != kNotFound);  // VelocityOf on unknown node.
  const Time now = simulator_->Now();
  const Time start = leg_start_[index];
  const Time end = leg_end_[index];
  if (start < now && now < end) {
    // Strictly inside the mirrored leg, the one leg containing `now`:
    // Leg::Velocity's arithmetic on the mirrored fields. The model's
    // cursor already sits on this leg (the mirror is refreshed from it,
    // and time only moves forward), so skipping VelocityAt leaves it
    // where the model call would. Boundaries take the model path and its
    // later-leg rule.
    const Time d = end - start;
    return Vec2{(leg_to_x_[index] - leg_from_x_[index]) / d,
                (leg_to_y_[index] - leg_from_y_[index]) / d};
  }
  return mobility_[index]->VelocityAt(now);
}

// MADNET_HOT
double Medium::RefreshIndex() const {
  const Time now = simulator_->Now();
  if (index_time_ < 0.0 || now - index_time_ > options_.reindex_interval_s) {
    if (!SnapshotServes(now)) RebuildSnapshot(now);
    index_time_ = now;
    epoch_walked_ = 0;
    stats_.index_epochs += 1;
  }
  // Epoch positions are up to (now - index_time_) old; both endpoints of a
  // distance check may each have moved max_speed * staleness, so a query
  // enlarged by twice that is a guaranteed superset.
  MADNET_DCHECK_GE(now, index_time_);  // Slack must be >= 0.
  return 2.0 * options_.max_speed_mps * (now - index_time_);
}

bool Medium::SnapshotServes(Time epoch) const {
  if (snapshot_time_ < 0.0) return false;
  // After a dense epoch (flooding, CSMA storms) lazy queries would walk
  // more candidates than a rebuild evaluates positions: rebuild instead.
  if (epoch_walked_ > online_count_ / 8) return false;
  const double drift = options_.max_speed_mps * (epoch - snapshot_time_);
  if (drift > options_.range_m) return false;
  // Online nodes only went offline since the snapshot (coming online
  // invalidates it), so each sits within `drift` of a snapshot point. If
  // that region fits the configured grid for the current online count, the
  // epoch's own rebuild would not have coarsened, and lazy queries may
  // order candidates by configured-size cells.
  return index_.BaseGridFitsWithin(drift, online_count_);
}

// MADNET_HOT
void Medium::RebuildSnapshot(Time now) const {
  // The index stores dense node indices (cast through NodeId), so query
  // results feed straight into the state arrays without a hash lookup per
  // hit.
  const size_t n = ids_.size();
  rebuild_id_scratch_.clear();
  rebuild_x_scratch_.clear();
  rebuild_y_scratch_.clear();
  rebuild_id_scratch_.reserve(n);
  rebuild_x_scratch_.reserve(n);
  rebuild_y_scratch_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    // Offline nodes are excluded: under heavy churn they would bloat every
    // query's candidate set just to be filtered out one by one.
    // SetOnline(…, true) invalidates the snapshot, so exclusion never hides
    // a node that has come back.
    if (!online_[i]) continue;
    const Vec2 position = CachedPositionAt(i, now);
    rebuild_id_scratch_.push_back(i);
    rebuild_x_scratch_.push_back(position.x);
    rebuild_y_scratch_.push_back(position.y);
  }
  index_.Rebuild(rebuild_id_scratch_, rebuild_x_scratch_, rebuild_y_scratch_);
  snapshot_time_ = now;
  stats_.index_refreshes += 1;
  stats_.index_positions += rebuild_id_scratch_.size();
}

// MADNET_HOT
Vec2 Medium::PastPositionOf(uint32_t index, Time t) const {
  Vec2 position;
  if (MirrorPositionAt(index, t, &position)) return position;
  return mobility_[index]->PositionOnFirstLegAt(t);
}

// MADNET_HOT
void Medium::CollectEpochCandidates(const Vec2& center,
                                    double index_radius) const {
  // Every node passing the epoch prefilter was within index_radius of
  // `center` at the epoch and has moved at most `drift` since the
  // snapshot. The pad only widens the walk, so rounding in the positions
  // or the distance test can add candidates but never lose one.
  const double drift = options_.max_speed_mps * (index_time_ - snapshot_time_);
  const double reach = index_radius + drift;
  const double pad =
      1e-9 * (1.0 + std::abs(center.x) + std::abs(center.y) + reach);
  snapshot_scratch_.clear();
  index_.QueryRange(center, reach + pad, &snapshot_scratch_);
  epoch_walked_ += snapshot_scratch_.size();

  // The epoch index's QueryRange(center, index_radius): the cells of its
  // box (unclamped — the epoch grid spans every epoch position), then the
  // same squared-distance prefilter on epoch positions.
  const int64_t lo_cx = index_.BaseCellCoord(center.x - index_radius);
  const int64_t hi_cx = index_.BaseCellCoord(center.x + index_radius);
  const int64_t lo_cy = index_.BaseCellCoord(center.y - index_radius);
  const int64_t hi_cy = index_.BaseCellCoord(center.y + index_radius);
  const double r2 = index_radius * index_radius;
  epoch_scratch_.clear();
  for (NodeId candidate : snapshot_scratch_) {
    const uint32_t index = static_cast<uint32_t>(candidate);
    if (!online_[index]) continue;
    const Vec2 position = PastPositionOf(index, index_time_);
    stats_.index_positions += 1;
    const double dx = position.x - center.x;
    const double dy = position.y - center.y;
    if (dx * dx + dy * dy > r2) continue;
    const int64_t cx = index_.BaseCellCoord(position.x);
    const int64_t cy = index_.BaseCellCoord(position.y);
    if (cx < lo_cx || cx > hi_cx || cy < lo_cy || cy > hi_cy) continue;
    epoch_scratch_.push_back({cx, cy, index});
  }
  // The epoch rebuild's walk order: cells in (x, y) order, and within a
  // cell the stable insertion order of ascending dense index.
  std::sort(epoch_scratch_.begin(), epoch_scratch_.end(),
            [](const EpochCandidate& a, const EpochCandidate& b) {
              if (a.cx != b.cx) return a.cx < b.cx;
              if (a.cy != b.cy) return a.cy < b.cy;
              return a.index < b.index;
            });
  candidate_scratch_.clear();
  for (const EpochCandidate& c : epoch_scratch_) {
    candidate_scratch_.push_back(c.index);
  }
}

// MADNET_HOT
const std::vector<uint32_t>& Medium::NeighborIndicesOf(const Vec2& center,
                                                       double radius) const {
  MADNET_DCHECK(radius >= 0.0 && std::isfinite(radius));
  MADNET_DCHECK(std::isfinite(center.x) && std::isfinite(center.y));
  const Time now = simulator_->Now();
  // Same-tick memo: one gossip round broadcasts every cached ad from the
  // same node, position, and instant — identical queries whose answer
  // cannot have changed (positions are functions of time; membership
  // changes bump mutation_epoch_).
  if (memo_valid_ && memo_time_ == now && memo_center_ == center &&
      memo_radius_ == radius && memo_epoch_ == mutation_epoch_) {
    stats_.batch_memo_hits += 1;
    return neighbor_scratch_;
  }
  const double slack = RefreshIndex();
  if (snapshot_time_ == index_time_) {
    // The snapshot was taken at the epoch time: it is the epoch index.
    candidate_scratch_.clear();
    index_.QueryRange(center, radius + slack, &candidate_scratch_);
    epoch_walked_ += candidate_scratch_.size();
  } else {
    CollectEpochCandidates(center, radius + slack);
  }

  const double r2 = radius * radius;
  neighbor_scratch_.clear();
  for (NodeId candidate : candidate_scratch_) {
    const uint32_t index = static_cast<uint32_t>(candidate);
    MADNET_DCHECK_LT(index, ids_.size());  // Index stores dense indices.
    if (!online_[index]) continue;
    if (DistanceSquared(CachedPositionAt(index, now), center) <= r2) {
      neighbor_scratch_.push_back(index);
    }
  }
  memo_valid_ = true;
  memo_time_ = now;
  memo_center_ = center;
  memo_radius_ = radius;
  memo_epoch_ = mutation_epoch_;
  return neighbor_scratch_;
}

std::vector<NodeId> Medium::NeighborsOf(const Vec2& center,
                                        double radius) const {
  const std::vector<uint32_t>& indices = NeighborIndicesOf(center, radius);
  std::vector<NodeId> result;
  result.reserve(indices.size());
  for (uint32_t index : indices) result.push_back(ids_[index]);
  return result;
}

uint32_t Medium::AcquireFrame(const Packet& packet, NodeId from,
                              uint32_t from_index) {
  uint32_t slot;
  if (free_frame_ != kNotFound) {
    slot = free_frame_;
    free_frame_ = frame_pool_[slot].next_free;
  } else {
    slot = static_cast<uint32_t>(frame_pool_.size());
    frame_pool_.emplace_back();
  }
  Frame& frame = frame_pool_[slot];
  frame.packet = packet;
  frame.from = from;
  frame.from_index = from_index;
  frame.origin = Vec2{};
  frame.refs = 0;
  frame.next_free = kNotFound;
  ++live_frames_;
  if (live_frames_ > stats_.arena_frames_peak) {
    stats_.arena_frames_peak = live_frames_;
  }
  return slot;
}

// MADNET_HOT
void Medium::ReleaseFrame(uint32_t slot) {
  Frame& frame = frame_pool_[slot];
  MADNET_DCHECK_GT(frame.refs, 0u);
  if (--frame.refs != 0) return;
  frame.packet = Packet{};  // Drop the payload reference now, not at reuse.
  frame.next_free = free_frame_;
  free_frame_ = slot;
  --live_frames_;
}

// MADNET_HOT
Status Medium::Broadcast(NodeId from, const Packet& packet) {
  const uint32_t from_index = IndexOf(from);
  if (from_index == kNotFound) return Status::NotFound("unknown sender");
  if (!online_[from_index]) {
    return Status::FailedPrecondition("sender is offline");
  }
  if (options_.csma) {
    // The frame enters the arena once and stays in its slot through the
    // whole carrier-sense/backoff chain.
    const uint32_t slot = AcquireFrame(packet, from, from_index);
    ++frame_pool_[slot].refs;  // Carry ref held by the retry chain.
    CsmaTryTransmit(slot, 0);
    return Status::Ok();
  }

  stats_.messages_sent += 1;
  stats_.bytes_sent += packet.size_bytes;
  sent_[from_index] += 1;
  sent_bytes_[from_index] += packet.size_bytes;
  // Frames whose elided deliveries are all past leave the arena first, so
  // the in-flight count below is the one scheduled deliveries would give.
  if (asks_receivers_) SettleFront();

  // Reception set is fixed at transmission time (propagation is effectively
  // instantaneous relative to node motion); the jittered delay models MAC
  // access plus processing.
  const Time now = simulator_->Now();
  const Vec2 origin = CachedPositionAt(from_index, now);
  const uint64_t tx_seq = next_tx_seq_++;
  if (observer_) observer_(from, packet, origin);
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceTx)) {
    trace_->Tx(now, from, origin.x, origin.y, packet.size_bytes, tx_seq);
  }
  if (tile_load_ != nullptr) {
    // Queue depth counts this frame too (it is in flight from now on).
    tile_load_->RecordBroadcast(origin.x, origin.y, live_frames_ + 1);
  }
  // All deliveries of this broadcast share one arena frame (acquired on
  // the first scheduled delivery). Each delivery callback captures
  // {medium, slot, receiver} — 16 bytes, within std::function's inline
  // buffer — so the loop performs no per-receiver heap allocation.
  // Loss, fading, and collisions are all decided in DeliverTo, at delivery
  // time: a frame that will be lost still arrives at the receiver's radio
  // and must contend in its collision window, and a receiver that churns
  // offline mid-flight is charged dropped_offline, not dropped_loss.
  // A receiver that Ignores the frame gets no event at all (Elides): the
  // delivery keeps its latency draw and event id, its frame stays in
  // flight until its time, and it is booked once that has passed or
  // recalled into the queue (SettleInert).
  const bool elides = Elides();
  uint32_t slot = kNotFound;
  InertDelivery last_elided{0.0, 0, kNotFound, kNotFound, 0};
  for (uint32_t to : NeighborIndicesOf(origin, options_.range_m)) {
    if (to == from_index) continue;
    const double latency =
        rng_.Uniform(options_.min_latency_s, options_.max_latency_s);
    MADNET_DCHECK(latency >= options_.min_latency_s &&
                  latency <= options_.max_latency_s);
    if (slot == kNotFound) {
      slot = AcquireFrame(packet, from, from_index);
      frame_pool_[slot].origin = origin;
      frame_pool_[slot].tx_seq = tx_seq;
    }
    if (elides &&
        (receivers_[to] == nullptr || receivers_[to]->Ignores(packet))) {
      const Time due = now + latency;
      const InertDelivery delivery{
          due, static_cast<uint32_t>(simulator_->ReserveAt(due)), to, slot,
          packet.size_bytes};
      // Ids only grow, so a tie on time goes to this later delivery.
      if (last_elided.slot == kNotFound || due >= last_elided.due) {
        last_elided = delivery;
      }
      // NOLINTNEXTLINE(madnet-hot-alloc): amortized, deliveries in flight.
      inert_.push_back(delivery);
      continue;
    }
    ++frame_pool_[slot].refs;
    simulator_->Schedule(latency,
                         [this, slot, to]() { DeliverFrame(slot, to); });
  }
  if (last_elided.slot != kNotFound) {
    ++frame_pool_[slot].refs;  // One ref for all of its elided deliveries.
    // NOLINTNEXTLINE(madnet-hot-alloc): amortized, frames in flight.
    elided_frames_.push_back(last_elided);
    elided_frames_due_ = std::min(elided_frames_due_, last_elided.due);
  }
  return Status::Ok();
}

bool Medium::Elides() const {
  return asks_receivers_ && plain_medium_ && extra_loss_ <= 0.0 &&
         jam_zones_.empty() &&
         (trace_ == nullptr || !trace_->TextEnabled(obs::kTraceRx)) &&
         !simulator_->TracesEvents();
}

// MADNET_HOT
void Medium::BookInert(const InertDelivery& delivery) {
  // DeliverTo's success path at the delivery's own time: the plain medium
  // (Elides) decides nothing there but the receiver's online bit, and a
  // receiver going offline recalls its elided deliveries first.
  stats_.deliveries += 1;
  stats_.elided += 1;
  received_[delivery.to] += 1;
  received_bytes_[delivery.to] += delivery.bytes;
  if (tile_load_ != nullptr) {
    const Vec2 at = PastPositionOf(delivery.to, delivery.due);
    tile_load_->RecordDelivery(at.x, at.y);
  }
}

// MADNET_HOT
void Medium::SettleFront() {
  // Deliveries lie in transmit order, so their times are ordered to within
  // the latency spread: the front is due first, and one still pending
  // holds back the few behind it only until a later broadcast or Settle.
  while (inert_head_ < inert_.size() && Due(inert_[inert_head_])) {
    BookInert(inert_[inert_head_++]);
  }
  if (inert_head_ == inert_.size()) {
    inert_.clear();
    inert_head_ = 0;
  } else if (inert_head_ >= 1024 && 2 * inert_head_ >= inert_.size()) {
    inert_.erase(inert_.begin(),
                 inert_.begin() + static_cast<std::ptrdiff_t>(inert_head_));
    inert_head_ = 0;
  }
  if (elided_frames_due_ <= simulator_->Now()) ReleaseElidedFrames();
}

void Medium::ReleaseElidedFrames() {
  Time next_due = std::numeric_limits<Time>::infinity();
  size_t kept = 0;
  for (const InertDelivery& last : elided_frames_) {
    if (Due(last)) {
      ReleaseFrame(last.slot);
    } else {
      elided_frames_[kept++] = last;
      next_due = std::min(next_due, last.due);
    }
  }
  elided_frames_.resize(kept);
  elided_frames_due_ = next_due;
}

void Medium::SettleInert(uint32_t recall) {
  size_t kept = 0;
  for (size_t i = inert_head_; i < inert_.size(); ++i) {
    const InertDelivery& delivery = inert_[i];
    if (Due(delivery)) {
      BookInert(delivery);
    } else if (recall == kEveryNode || delivery.to == recall) {
      // Pending, so its frame is still held by the frame's elided ref.
      ++frame_pool_[delivery.slot].refs;
      simulator_->ScheduleReserved(
          delivery.id, delivery.due,
          [this, slot = delivery.slot, receiver = delivery.to]() {
            DeliverFrame(slot, receiver);
          });
    } else {
      inert_[kept++] = delivery;
    }
  }
  inert_.resize(kept);
  inert_head_ = 0;
  ReleaseElidedFrames();
}

// MADNET_HOT
void Medium::DeliverFrame(uint32_t slot, uint32_t to) {
  // The frame reference stays valid while the receive handler re-enters
  // Broadcast (frame_pool_ is a deque; the slot holds a ref until after
  // delivery).
  const Frame& frame = frame_pool_[slot];
  DeliverTo(to, frame.from, frame.origin, frame.packet, frame.tx_seq);
  ReleaseFrame(slot);
}

void Medium::CsmaTryTransmit(uint32_t slot, int attempt) {
  const uint32_t from_index = frame_pool_[slot].from_index;
  if (!online_[from_index]) {  // Went offline while deferring.
    ReleaseFrame(slot);
    return;
  }

  const Time now = simulator_->Now();
  if (channel_busy_until_[from_index] > now) {
    // Carrier sensed busy: defer until it frees, plus a random backoff.
    if (attempt >= options_.max_mac_retries) {
      stats_.dropped_mac_busy += 1;
      ReleaseFrame(slot);
      return;
    }
    stats_.mac_defers += 1;
    const double wait = (channel_busy_until_[from_index] - now) +
                        rng_.Uniform(0.0, options_.max_backoff_s);
    simulator_->Schedule(wait, [this, slot, attempt]() {
      CsmaTryTransmit(slot, attempt + 1);
    });
    return;
  }
  CsmaTransmit(slot);
}

// MADNET_HOT
void Medium::CsmaTransmit(uint32_t slot) {
  Frame& frame = frame_pool_[slot];
  const uint32_t from_index = frame.from_index;
  const Time now = simulator_->Now();
  const double airtime =
      options_.mac_overhead_s +
      static_cast<double>(frame.packet.size_bytes) * 8.0 / options_.bitrate_bps;
  const Time end = now + airtime;

  stats_.messages_sent += 1;
  stats_.bytes_sent += frame.packet.size_bytes;
  sent_[from_index] += 1;
  sent_bytes_[from_index] += frame.packet.size_bytes;
  channel_busy_until_[from_index] =
      std::max(channel_busy_until_[from_index], end);

  const NodeId from = frame.from;
  const Vec2 origin = CachedPositionAt(from_index, now);
  frame.origin = origin;
  frame.tx_seq = next_tx_seq_++;
  if (observer_) observer_(from, frame.packet, origin);
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceTx)) {
    trace_->Tx(now, from, origin.x, origin.y, frame.packet.size_bytes,
               frame.tx_seq);
  }
  if (tile_load_ != nullptr) {
    tile_load_->RecordBroadcast(origin.x, origin.y, live_frames_);
  }

  for (uint32_t to : NeighborIndicesOf(origin, options_.range_m)) {
    if (to == from_index) continue;
    // The receiver was already mid-reception of another frame: this frame
    // is garbled at that receiver (capture effect: the earlier frame
    // survives). Either way the carrier extends the busy period.
    const bool garbled = channel_busy_until_[to] > now;
    channel_busy_until_[to] = std::max(channel_busy_until_[to], end);
    if (garbled) {
      stats_.dropped_collision += 1;
      continue;
    }
    // CSMA decides loss when the frame starts occupying the receiver
    // (capture is already resolved); episode loss applies here too.
    if (rng_.Bernoulli(EffectiveLossProbability())) {
      stats_.dropped_loss += 1;
      continue;
    }
    if (options_.fading_exponent > 0.0) {
      const double fraction =
          Distance(CachedPositionAt(to, now), origin) / options_.range_m;
      if (rng_.Bernoulli(std::pow(fraction, options_.fading_exponent))) {
        stats_.dropped_loss += 1;
        continue;
      }
    }
    // Reception completes when the frame's airtime ends.
    ++frame.refs;
    simulator_->Schedule(airtime,
                         [this, slot, to]() { CsmaCompleteRx(slot, to); });
  }
  ReleaseFrame(slot);  // Drop the retry chain's carry ref.
}

// MADNET_HOT
void Medium::CsmaCompleteRx(uint32_t slot, uint32_t to) {
  const Frame& frame = frame_pool_[slot];
  if (!online_[to]) {
    stats_.dropped_offline += 1;
    ReleaseFrame(slot);
    return;
  }
  const Time now = simulator_->Now();
  if (!jam_zones_.empty() && Jammed(CachedPositionAt(to, now))) {
    stats_.dropped_jammed += 1;
    ReleaseFrame(slot);
    return;
  }
  stats_.deliveries += 1;
  received_[to] += 1;
  received_bytes_[to] += frame.packet.size_bytes;
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceRx)) {
    trace_->Rx(now, frame.from, ids_[to], frame.packet.size_bytes,
               frame.packet.ad_key, frame.tx_seq);
  }
  if (tile_load_ != nullptr) {
    const Vec2 at = CachedPositionAt(to, now);
    tile_load_->RecordDelivery(at.x, at.y);
  }
  if (receivers_[to] != nullptr) {
    delivering_tx_seq_ = frame.tx_seq;
    receivers_[to]->OnReceive(frame.packet, frame.from);
    delivering_tx_seq_ = 0;
  }
  ReleaseFrame(slot);
}

double Medium::EffectiveLossProbability() const {
  if (extra_loss_ <= 0.0) return options_.loss_probability;
  const double combined = options_.loss_probability + extra_loss_;
  return combined < 1.0 ? combined : 1.0;
}

bool Medium::Jammed(const Vec2& position) const {
  for (const Rect& zone : jam_zones_) {
    if (zone.Contains(position)) return true;
  }
  return false;
}

// MADNET_HOT
void Medium::DeliverTo(uint32_t to_index, NodeId from, const Vec2& origin,
                       const Packet& packet, uint64_t tx_seq) {
  if (!online_[to_index]) {
    // Churned/crashed away while the frame was in flight: charged here and
    // nowhere else (the radio never saw the frame, so no loss draw and no
    // collision-window contention).
    stats_.dropped_offline += 1;
    return;
  }
  const Time now = simulator_->Now();
  if (!jam_zones_.empty() && Jammed(CachedPositionAt(to_index, now))) {
    stats_.dropped_jammed += 1;
    return;
  }
  if (options_.enable_collisions) {
    if (last_rx_time_[to_index] >= 0.0 &&
        now - last_rx_time_[to_index] < options_.collision_window_s &&
        (rx_garbled_[to_index] != 0 || last_rx_from_[to_index] != from)) {
      // This frame overlaps an earlier arrival from another sender (or a
      // window already garbled by a collision). Both are lost, and the
      // window stays garbled: a third overlapping frame collides too, even
      // one from the sender whose earlier frame opened the window. Only
      // back-to-back frames from one sender in a *clean* window survive —
      // that is serialization at the sender's MAC, not a collision.
      stats_.dropped_collision += 1;
      last_rx_time_[to_index] = now;
      rx_garbled_[to_index] = 1;
      return;
    }
    // From here the frame occupies the receiver's window whether or not
    // it decodes: random loss and fading destroy the payload, not the RF
    // energy that later frames must contend with.
    last_rx_time_[to_index] = now;
    last_rx_from_[to_index] = from;
    rx_garbled_[to_index] = 0;
  }
  const double loss = EffectiveLossProbability();
  if (loss > 0.0 && rng_.Bernoulli(loss)) {
    stats_.dropped_loss += 1;
    return;
  }
  if (options_.fading_exponent > 0.0) {
    const double fraction =
        Distance(CachedPositionAt(to_index, now), origin) / options_.range_m;
    if (rng_.Bernoulli(std::pow(fraction, options_.fading_exponent))) {
      stats_.dropped_loss += 1;
      return;
    }
  }
  stats_.deliveries += 1;
  received_[to_index] += 1;
  received_bytes_[to_index] += packet.size_bytes;
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceRx)) {
    trace_->Rx(now, from, ids_[to_index], packet.size_bytes, packet.ad_key,
               tx_seq);
  }
  if (tile_load_ != nullptr) {
    const Vec2 at = CachedPositionAt(to_index, now);
    tile_load_->RecordDelivery(at.x, at.y);
  }
  if (receivers_[to_index] != nullptr) {
    delivering_tx_seq_ = tx_seq;
    receivers_[to_index]->OnReceive(packet, from);
    delivering_tx_seq_ = 0;
  }
}

}  // namespace madnet::net
