// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/config.h"

#include <cmath>
#include <cstdio>
#include <string>

namespace madnet::scenario {

const char* MethodName(Method method) {
  switch (method) {
    case Method::kFlooding: return "Flooding";
    case Method::kGossip: return "Gossiping";
    case Method::kOptimized1: return "Optimized Gossiping-1";
    case Method::kOptimized2: return "Optimized Gossiping-2";
    case Method::kOptimized: return "Optimized Gossiping";
    case Method::kResourceExchange: return "Resource Exchange";
  }
  return "?";
}

const char* MobilityName(Mobility mobility) {
  switch (mobility) {
    case Mobility::kRandomWaypoint: return "Random Waypoint";
    case Mobility::kManhattanGrid: return "Manhattan Grid";
    case Mobility::kHotspot: return "Hotspot Waypoint";
    case Mobility::kHighway: return "Highway Strip";
  }
  return "?";
}

ScenarioConfig ScenarioConfig::PaperDefaults() { return ScenarioConfig(); }

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// "key 'peers' = 0: <requirement>" — the uniform shape of every
/// validation diagnostic, so a bad config file tells the user which key to
/// edit, what it held, and what would be accepted.
[[nodiscard]] Status BadKey(const char* key, const std::string& value,
                            const std::string& requirement) {
  return Status::InvalidArgument("key '" + std::string(key) + "' = " + value +
                                 ": " + requirement);
}

[[nodiscard]] Status BadKey(const char* key, double value,
                            const std::string& requirement) {
  return BadKey(key, Num(value), requirement);
}

}  // namespace

Status ScenarioConfig::Validate() const {
  // Finiteness first: a NaN/inf compares false against every range below,
  // so without this pass it could sail through checks written as
  // rejections of the complement.
  const struct { const char* key; double value; } numeric[] = {
      {"area", area_size_m},
      {"sim_time", sim_time_s},
      {"issue_time", issue_time_s},
      {"issue_x", issue_location.x},
      {"issue_y", issue_location.y},
      {"radius", initial_radius_m},
      {"duration", initial_duration_s},
      {"speed", mean_speed_mps},
      {"speed_delta", speed_delta_mps},
      {"pause_min", min_pause_s},
      {"pause_max", max_pause_s},
      {"manhattan_block", manhattan_block_m},
      {"hotspot_p", hotspot_probability},
      {"hotspot_sigma", hotspot_sigma_m},
      {"round", gossip.round_time_s},
      {"alpha", gossip.propagation.alpha},
      {"beta", gossip.propagation.beta},
      {"dis", gossip.dis_m},
      {"range", medium.range_m},
      {"max_speed", medium.max_speed_mps},
      {"loss", medium.loss_probability},
      {"fading", medium.fading_exponent},
  };
  for (const auto& field : numeric) {
    if (!std::isfinite(field.value)) {
      return BadKey(field.key, field.value, "must be a finite number");
    }
  }

  if (area_size_m <= 0.0) {
    return BadKey("area", area_size_m,
                  "accepted range (0, inf) metres — the arena is the square "
                  "[0, area] x [0, area]");
  }
  if (num_peers < 1) {
    // The issuer is node 0 by construction and is *not* one of the peers:
    // Scenario resolves issuer_id() to that extra stationary node and
    // peers occupy ids 1..num_peers. With peers = 0 the delivery metrics
    // have an empty audience and an 'issuer_offline' hand-off loses the ad
    // unconditionally, so the contract rejects it up front.
    return BadKey("peers", Num(num_peers),
                  "accepted range [1, inf) — the issuer (node 0, governed "
                  "by key 'issuer_offline') needs at least one mobile peer "
                  "to deliver to");
  }
  if (sim_time_s <= 0.0) {
    return BadKey("sim_time", sim_time_s, "accepted range (0, inf) seconds");
  }
  if (issue_time_s < 0.0 || issue_time_s >= sim_time_s) {
    return BadKey("issue_time", issue_time_s,
                  "accepted range [0, sim_time) with sim_time = " +
                      Num(sim_time_s) +
                      " — the ad must be issued inside the simulated window");
  }
  if (initial_radius_m <= 0.0) {
    return BadKey("radius", initial_radius_m,
                  "accepted range (0, inf) metres (the paper's R)");
  }
  if (initial_duration_s <= 0.0) {
    return BadKey("duration", initial_duration_s,
                  "accepted range (0, inf) seconds (the paper's D)");
  }
  if (issue_location.x < 0.0 || issue_location.x > area_size_m ||
      issue_location.y < 0.0 || issue_location.y > area_size_m) {
    return Status::InvalidArgument(
        "keys 'issue_x'/'issue_y' = (" + Num(issue_location.x) + ", " +
        Num(issue_location.y) + "): the issuing location must lie inside "
        "the arena [0, " + Num(area_size_m) + "]^2 (key 'area')");
  }
  if (speed_delta_mps < 0.0 || mean_speed_mps - speed_delta_mps <= 0.0) {
    return Status::InvalidArgument(
        "keys 'speed'/'speed_delta' = " + Num(mean_speed_mps) + "/" +
        Num(speed_delta_mps) +
        ": require speed > speed_delta >= 0 so every peer's uniform draw "
        "from [speed - speed_delta, speed + speed_delta] stays positive");
  }
  if (min_pause_s < 0.0 || max_pause_s < min_pause_s) {
    return Status::InvalidArgument(
        "keys 'pause_min'/'pause_max' = " + Num(min_pause_s) + "/" +
        Num(max_pause_s) + ": require 0 <= pause_min <= pause_max");
  }
  if (manhattan_block_m <= 0.0) {
    return BadKey("manhattan_block", manhattan_block_m,
                  "accepted range (0, inf) metres");
  }
  if (mobility == Mobility::kManhattanGrid &&
      manhattan_block_m > area_size_m / 2.0) {
    return BadKey("manhattan_block", manhattan_block_m,
                  "accepted range (0, area/2] = (0, " +
                      Num(area_size_m / 2.0) +
                      "] — the grid needs at least two blocks per side "
                      "(key 'area')");
  }
  if (hotspot_probability < 0.0 || hotspot_probability > 1.0) {
    return BadKey("hotspot_p", hotspot_probability,
                  "accepted range [0, 1] (probability of steering a "
                  "waypoint towards a hotspot)");
  }
  if (hotspot_sigma_m < 0.0) {
    return BadKey("hotspot_sigma", hotspot_sigma_m,
                  "accepted range [0, inf) metres");
  }
  if (hotspot_extra < 0) {
    return BadKey("hotspot_extra", Num(hotspot_extra),
                  "accepted range [0, inf) extra attraction points");
  }
  if (mobility == Mobility::kHotspot && hotspot_extra > 0 &&
      2.0 * hotspot_sigma_m >= area_size_m) {
    // Extra hotspot centres are placed at least one sigma inside every
    // wall; with 2*sigma >= area that placement band is empty (or
    // inverted) and the centres would land outside the arena.
    return BadKey("hotspot_sigma", hotspot_sigma_m,
                  "accepted range [0, area/2) = [0, " +
                      Num(area_size_m / 2.0) +
                      ") when hotspot_extra > 0 — extra hotspot centres "
                      "are placed one sigma inside the arena (key 'area')");
  }
  if (!gossip.propagation.Valid() || !flooding.propagation.Valid()) {
    return Status::InvalidArgument(
        "keys 'alpha'/'beta' = " + Num(gossip.propagation.alpha) + "/" +
        Num(gossip.propagation.beta) +
        ": both propagation parameters must lie in (0, 1)");
  }
  if (gossip.round_time_s <= 0.0 || flooding.round_time_s <= 0.0) {
    return BadKey("round", gossip.round_time_s,
                  "accepted range (0, inf) seconds (gossiping round time)");
  }
  if (gossip.cache_capacity < 1 || gossip.cache_capacity > 100000) {
    return BadKey("cache", Num(static_cast<double>(gossip.cache_capacity)),
                  "accepted range [1, 100000] cached ads (the paper's "
                  "top-k cache size)");
  }
  if (gossip.dis_m < 0.0 || gossip.dis_m > initial_radius_m) {
    return BadKey("dis", gossip.dis_m,
                  "accepted range [0, radius] = [0, " +
                      Num(initial_radius_m) +
                      "] — the Optimization-1 annulus cannot be wider than "
                      "the advertising radius (key 'radius'); 0 = auto "
                      "(V_max * round)");
  }
  if (exchange.beacon_interval_s <= 0.0 || exchange.memory_capacity < 1 ||
      exchange.exchange_batch < 1 || exchange.age_weight < 0.0 ||
      exchange.distance_weight < 0.0) {
    return Status::InvalidArgument(
        "invalid resource-exchange options: need beacon_interval > 0, "
        "memory_capacity >= 1, exchange_batch >= 1 and non-negative "
        "relevance weights");
  }
  if (medium.range_m <= 0.0 || medium.range_m > area_size_m) {
    return BadKey("range", medium.range_m,
                  "accepted range (0, area] = (0, " + Num(area_size_m) +
                      "] metres — a transmission range wider than the "
                      "arena (key 'area') makes every pair neighbours, "
                      "almost certainly a units typo");
  }
  if (medium.loss_probability < 0.0 || medium.loss_probability > 1.0) {
    return BadKey("loss", medium.loss_probability, "accepted range [0, 1]");
  }
  if (medium.fading_exponent < 0.0) {
    return BadKey("fading", medium.fading_exponent,
                  "accepted range [0, inf) (0 disables fading)");
  }
  if (medium.max_speed_mps < mean_speed_mps + speed_delta_mps) {
    return Status::InvalidArgument(
        "key 'max_speed' = " + Num(medium.max_speed_mps) +
        ": must cover the fastest mobile peer, speed + speed_delta = " +
        Num(mean_speed_mps + speed_delta_mps) +
        " (keys 'speed'/'speed_delta') — the spatial index uses it as "
        "staleness slack");
  }
  if (tiles != 1) {
    return BadKey("tiles", Num(tiles),
                  "retired; the event loop has a single queue, so only 1 "
                  "is accepted");
  }
  if (assign_interests && interest_options.universe.empty()) {
    // Only 'ranking = true' turns interest assignment on, and the loader
    // fills the default universe with it; a programmatic config that sets
    // the flag alone would make InterestGenerator::Sample index nothing.
    return BadKey("ranking", "true",
                  "interest assignment needs a non-empty keyword universe "
                  "(interest_options.universe is empty)");
  }
  Status fault_valid = fault.Validate();
  if (!fault_valid.ok()) return fault_valid;
  // Cross-field fault geometry/timing: the plan alone cannot know the
  // arena or the horizon, so these checks live here.
  if (fault.OutageEnabled()) {
    const Rect& r = fault.outage_rect;
    if (r.min.x < 0.0 || r.min.y < 0.0 || r.max.x > area_size_m ||
        r.max.y > area_size_m) {
      return Status::InvalidArgument(
          "keys 'outage_x0/y0/x1/y1' = (" + Num(r.min.x) + ", " +
          Num(r.min.y) + ")..(" + Num(r.max.x) + ", " + Num(r.max.y) +
          "): the jammer rectangle must lie inside the arena [0, " +
          Num(area_size_m) + "]^2 (key 'area') — an off-arena jammer "
          "jams nothing");
    }
    if (fault.outage_start_s >= sim_time_s) {
      return BadKey("outage_start", fault.outage_start_s,
                    "accepted range [0, sim_time) with sim_time = " +
                        Num(sim_time_s) +
                        " — a jammer switched on after the run ends never "
                        "fires");
    }
  }
  if (fault.ChurnEnabled() && fault.churn_start_s >= sim_time_s) {
    return BadKey("churn_start", fault.churn_start_s,
                  "accepted range [0, sim_time) with sim_time = " +
                      Num(sim_time_s) +
                      " — churn beginning after the run ends never fires");
  }
  if (fault.LossEpisodesEnabled() && fault.loss_start_s >= sim_time_s) {
    return BadKey("loss_start", fault.loss_start_s,
                  "accepted range [0, sim_time) with sim_time = " +
                      Num(sim_time_s) +
                      " — a loss episode beginning after the run ends "
                      "never fires");
  }
  return Status::Ok();
}

}  // namespace madnet::scenario
