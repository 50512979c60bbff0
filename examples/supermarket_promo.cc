// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The paper's Figure-1 scenario, built from the library's lower-level API:
// a supermarket employee issues a discount advertisement from a handset,
// goes offline, and the ad is maintained by a mixed crowd — pedestrians
// wandering (Random Waypoint, walking speed) and vehicles driving a
// Manhattan street grid. The program reports who was notified while
// passing the store's advertising area and the delivery-time distribution.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/opportunistic_gossip.h"
#include "mobility/constant_velocity.h"
#include "mobility/manhattan_grid.h"
#include "mobility/random_waypoint.h"
#include "net/medium.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "stats/delivery.h"

namespace {

using namespace madnet;
using core::GossipOptions;
using core::OpportunisticGossip;
using core::ProtocolContext;
using mobility::ManhattanGrid;
using mobility::MobilityModel;
using mobility::RandomWaypoint;
using mobility::Stationary;
using net::Medium;
using net::NodeId;
using sim::Simulator;

constexpr double kArea = 3000.0;          // City block cluster, metres.
constexpr Vec2 kStore{1500.0, 1500.0};    // The supermarket.
constexpr double kAdRadius = 800.0;       // Advertising area R.
constexpr double kAdDuration = 600.0;     // Ten-minute promotion window D.
constexpr int kPedestrians = 120;
constexpr int kVehicles = 80;

}  // namespace

int main() {
  Simulator sim;
  Medium::Options medium_options;
  medium_options.range_m = 250.0;
  medium_options.max_speed_mps = 20.0;
  Rng root(2026);
  Medium medium(medium_options, &sim, root.Fork(1));
  stats::DeliveryLog log;

  std::vector<std::unique_ptr<MobilityModel>> mobilities;
  std::vector<std::unique_ptr<OpportunisticGossip>> peers;

  auto add_node = [&](std::unique_ptr<MobilityModel> mobility) {
    const NodeId id = static_cast<NodeId>(mobilities.size());
    mobilities.push_back(std::move(mobility));
    Status status = medium.AddNode(id, mobilities.back().get());
    if (!status.ok()) std::abort();
    return id;
  };

  // Node 0: the store clerk's handset, stationary at the shop door.
  const NodeId clerk = add_node(std::make_unique<Stationary>(kStore));

  // Pedestrians: slow random waypoint walkers.
  RandomWaypoint::Options walk;
  walk.area = Rect{{0.0, 0.0}, {kArea, kArea}};
  walk.min_speed_mps = 0.8;
  walk.max_speed_mps = 2.0;
  walk.max_pause_s = 60.0;  // Window shopping.
  for (int i = 0; i < kPedestrians; ++i) {
    add_node(std::make_unique<RandomWaypoint>(walk, root.Fork(100 + i)));
  }

  // Vehicles: Manhattan grid drivers.
  ManhattanGrid::Options drive;
  drive.area = Rect{{0.0, 0.0}, {kArea, kArea}};
  drive.block_size_m = 300.0;
  drive.min_speed_mps = 6.0;
  drive.max_speed_mps = 14.0;
  for (int i = 0; i < kVehicles; ++i) {
    add_node(std::make_unique<ManhattanGrid>(drive, root.Fork(10000 + i)));
  }

  // Everyone runs Optimized Gossiping (both optimizations on).
  GossipOptions options = GossipOptions::Optimized();
  options.dis_m = kAdRadius / 4.0;
  for (NodeId id = 0; id < mobilities.size(); ++id) {
    ProtocolContext context;
    context.simulator = &sim;
    context.medium = &medium;
    context.self = id;
    context.delivery_log = &log;
    context.rng = root.Fork(20000 + id);
    peers.push_back(
        std::make_unique<OpportunisticGossip>(std::move(context), options));
    peers.back()->Start();
  }

  // At t=30 s the clerk issues the promotion and powers the handset off a
  // second later — the crowd keeps the ad alive.
  uint64_t ad_key = 0;
  sim.ScheduleAt(30.0, [&] {
    auto issued = peers[clerk]->Issue(
        {"grocery", {"discount", "fruit"}, "mangoes 2-for-1 until 6pm"},
        kAdRadius, kAdDuration);
    if (!issued.ok()) std::abort();
    ad_key = issued->Key();
    sim.Schedule(1.0, [&] { (void)medium.SetOnline(clerk, false); });
  });

  sim.RunUntil(30.0 + kAdDuration + 60.0);

  // Metrics over the promotion window, pedestrians and vehicles separately.
  stats::AreaTracker walkers(Circle{kStore, kAdRadius}, 30.0,
                             30.0 + kAdDuration);
  stats::AreaTracker drivers(Circle{kStore, kAdRadius}, 30.0,
                             30.0 + kAdDuration);
  for (NodeId id = 1; id <= kPedestrians; ++id) {
    walkers.Observe(id, mobilities[id].get());
  }
  for (NodeId id = kPedestrians + 1;
       id <= static_cast<NodeId>(kPedestrians + kVehicles); ++id) {
    drivers.Observe(id, mobilities[id].get());
  }
  const auto walk_report = ComputeDeliveryReport(walkers, log, ad_key);
  const auto drive_report = ComputeDeliveryReport(drivers, log, ad_key);

  std::printf("supermarket promo — %d pedestrians, %d vehicles, issuer "
              "offline after seeding\n",
              kPedestrians, kVehicles);
  std::printf("  pedestrians: %llu passed, %.1f%% notified, mean %.1f s "
              "after entering\n",
              static_cast<unsigned long long>(walk_report.peers_passed),
              walk_report.DeliveryRatePercent(),
              walk_report.MeanDeliveryTime());
  std::printf("  vehicles   : %llu passed, %.1f%% notified, mean %.1f s "
              "after entering\n",
              static_cast<unsigned long long>(drive_report.peers_passed),
              drive_report.DeliveryRatePercent(),
              drive_report.MeanDeliveryTime());
  std::printf("  network    : %llu messages, %llu bytes\n",
              static_cast<unsigned long long>(medium.stats().messages_sent),
              static_cast<unsigned long long>(medium.stats().bytes_sent));

  // Twelve 10 s buckets over (0, 120] s; the last bucket catches later
  // deliveries.
  std::vector<double> bounds;
  for (int i = 1; i <= 12; ++i) bounds.push_back(10.0 * i);
  obs::FixedHistogram histogram(bounds);
  for (const auto& [id, transit] : walkers.transits()) {
    if (!transit.Passed()) continue;
    const double receipt = log.FirstReceipt(ad_key, id);
    if (receipt >= 0.0 && receipt <= transit.LastExit()) {
      histogram.Observe(std::max(0.0, receipt - transit.FirstEnter()));
    }
  }
  std::printf("\npedestrian delivery-time distribution (s):\n");
  const std::vector<uint64_t>& counts = histogram.counts();
  const uint64_t peak = std::max<uint64_t>(
      1, *std::max_element(counts.begin(), counts.end()));
  for (size_t i = 0; i < counts.size(); ++i) {
    if (i < bounds.size()) {
      std::printf("<= %6.1f", bounds[i]);
    } else {
      std::printf(" > %6.1f", bounds.back());
    }
    std::printf(" %6llu |%.*s\n", static_cast<unsigned long long>(counts[i]),
                static_cast<int>(counts[i] * 50 / peak),
                "##################################################");
  }
  return 0;
}
