// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/multi_ad.h"

#include "scenario/config_io.h"
#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "core/opportunistic_gossip.h"
#include "core/resource_exchange.h"
#include "core/restricted_flooding.h"
#include "mobility/constant_velocity.h"
#include "mobility/random_waypoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace madnet::scenario {

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

Status MultiAdConfig::Validate() const {
  Status base_status = base.Validate();
  if (!base_status.ok()) return base_status;
  if (num_ads < 1) {
    return Status::InvalidArgument(
        "key 'ads' = " + std::to_string(num_ads) +
        ": accepted range [1, inf) — a multi-ad scenario needs at least "
        "one advertisement");
  }
  if (ad_radius_m <= 0.0) {
    return Status::InvalidArgument(
        "key 'ad_radius' = " + Num(ad_radius_m) +
        ": accepted range (0, inf) metres");
  }
  if (ad_duration_s <= 0.0) {
    return Status::InvalidArgument(
        "key 'ad_duration' = " + Num(ad_duration_s) +
        ": accepted range (0, inf) seconds");
  }
  if (first_issue_s < 0.0 || issue_spacing_s < 0.0) {
    return Status::InvalidArgument(
        "keys 'first_issue'/'issue_spacing' = " +
        Num(first_issue_s) + "/" +
        Num(issue_spacing_s) +
        ": the issue schedule must be non-negative");
  }
  const double last_issue =
      first_issue_s + issue_spacing_s * (num_ads - 1);
  if (last_issue >= base.sim_time_s) {
    return Status::InvalidArgument(
        "keys 'ads'/'first_issue'/'issue_spacing': the last ad would be "
        "issued at " + Num(last_issue) +
        " s, at or after sim_time = " + Num(base.sim_time_s) +
        " s (key 'sim_time')");
  }
  if (2.0 * border_margin_m >= base.area_size_m) {
    return Status::InvalidArgument(
        "key 'border_margin' = " + Num(border_margin_m) +
        ": accepted range [0, area/2) = [0, " +
        Num(base.area_size_m / 2.0) +
        ") — the issue-location placement band must be non-empty "
        "(key 'area')");
  }
  if (num_stalls < 0) {
    return Status::InvalidArgument(
        "key 'stalls' = " + std::to_string(num_stalls) +
        ": accepted range [0, inf) (0 = one fresh location per ad)");
  }
  if (zipf_s < 0.0) {
    return Status::InvalidArgument(
        "key 'zipf' = " + Num(zipf_s) +
        ": accepted range [0, inf) (0 = uniform stall demand)");
  }
  if (base.fault.Enabled()) {
    return Status::InvalidArgument(
        "keys 'churn_rate'/'loss_extra'/'outage_*': fault plans are not "
        "supported in multi-ad scenarios (key 'ads') — the multi-ad "
        "harness builds no FaultInjector, so the plan would be silently "
        "ignored");
  }
  return Status::Ok();
}

double MultiAdResult::MeanDeliveryRatePercent() const {
  double total = 0.0;
  int scored = 0;
  for (const PerAd& ad : ads) {
    if (ad.report.peers_passed == 0) continue;
    total += ad.report.DeliveryRatePercent();
    ++scored;
  }
  return scored == 0 ? 0.0 : total / scored;
}

double MultiAdResult::MeanDeliveryTime() const {
  double sum = 0.0;
  size_t count = 0;
  for (const PerAd& ad : ads) {
    sum += ad.report.delivery_times.Sum();
    count += ad.report.delivery_times.Count();
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

MultiAdResult RunMultiAdScenario(const MultiAdConfig& config,
                                 obs::Trace* trace) {
  Status valid = config.Validate();
  assert(valid.ok() && "invalid MultiAdConfig");
  (void)valid;

  // Fold the per-method switches into the gossip options, as Scenario does.
  core::GossipOptions gossip = config.base.gossip;
  switch (config.base.method) {
    case Method::kFlooding:
    case Method::kResourceExchange:
      break;
    case Method::kGossip:
      gossip.annulus = false;
      gossip.postpone = false;
      break;
    case Method::kOptimized1:
      gossip.annulus = true;
      gossip.postpone = false;
      break;
    case Method::kOptimized2:
      gossip.annulus = false;
      gossip.postpone = true;
      break;
    case Method::kOptimized:
      gossip.annulus = true;
      gossip.postpone = true;
      break;
  }

  sim::Simulator simulator;
  // Log records inside this run carry virtual time.
  const ScopedLogClock log_clock(simulator.NowHandle());
  Rng root(config.base.seed);
  net::Medium medium(config.base.medium, &simulator, root.Fork(0x4D414449));
  simulator.SetTrace(trace);
  medium.SetTrace(trace);
  stats::DeliveryLog log;

  // Issue locations, uniform with a border margin.
  Rng placer = root.Fork(0x504C4143);  // "PLAC"
  const Rect placement{{config.border_margin_m, config.border_margin_m},
                       {config.base.area_size_m - config.border_margin_m,
                        config.base.area_size_m - config.border_margin_m}};

  MultiAdResult result;
  result.ads.resize(config.num_ads);
  if (config.num_stalls > 0) {
    // Marketplace mode: fixed stalls, each ad drawn to a stall with Zipf
    // weight 1/(rank+1)^s — stall 0 is the most popular. Stall positions
    // first, then the per-ad draws, so adding ads never moves the stalls.
    std::vector<Vec2> stalls(config.num_stalls);
    for (Vec2& stall : stalls) stall = placer.UniformInRect(placement);
    std::vector<double> cumulative(config.num_stalls);
    double total = 0.0;
    for (int r = 0; r < config.num_stalls; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), config.zipf_s);
      cumulative[r] = total;
    }
    for (int i = 0; i < config.num_ads; ++i) {
      const double draw = placer.Uniform(0.0, total);
      const size_t stall = static_cast<size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), draw) -
          cumulative.begin());
      result.ads[i].location = stalls[std::min(
          stall, static_cast<size_t>(config.num_stalls - 1))];
    }
  } else {
    for (int i = 0; i < config.num_ads; ++i) {
      result.ads[i].location = placer.UniformInRect(placement);
    }
  }
  for (int i = 0; i < config.num_ads; ++i) {
    result.ads[i].issue_time =
        config.first_issue_s + config.issue_spacing_s * i;
  }

  // Mobility: issuers stationary; peers follow config.base.mobility.
  const int node_count = config.num_ads + config.base.num_peers;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobilities;
  mobilities.reserve(node_count);
  for (int i = 0; i < config.num_ads; ++i) {
    mobilities.push_back(
        std::make_unique<mobility::Stationary>(result.ads[i].location));
  }
  for (int i = 0; i < config.base.num_peers; ++i) {
    // Per-peer mobility streams draw from the reserved range
    // [0x10000, 0x20000), mirroring scenario.cc.
    mobilities.push_back(MakePeerMobility(
        config.base,
        root.Fork(0x10000 + i)));  // NOLINT(madnet-rng-fork-label): reserved range 0x10000+peer.
  }

  std::vector<std::unique_ptr<core::Protocol>> protocols;
  protocols.reserve(node_count);
  for (net::NodeId id = 0; id < static_cast<net::NodeId>(node_count); ++id) {
    Status added = medium.AddNode(id, mobilities[id].get());
    assert(added.ok());
    (void)added;
    core::ProtocolContext context;
    context.simulator = &simulator;
    context.medium = &medium;
    context.self = id;
    context.delivery_log = &log;
    context.trace = trace;
    // Per-node protocol streams draw from the reserved range
    // [0x20000, 0x30000), mirroring scenario.cc.
    // NOLINTNEXTLINE(madnet-rng-fork-label): reserved range 0x20000+node.
    context.rng = root.Fork(0x20000 + id);
    switch (config.base.method) {
      case Method::kFlooding:
        protocols.push_back(std::make_unique<core::RestrictedFlooding>(
            std::move(context), config.base.flooding));
        break;
      case Method::kResourceExchange:
        protocols.push_back(std::make_unique<core::ResourceExchange>(
            std::move(context), config.base.exchange));
        break;
      default:
        protocols.push_back(std::make_unique<core::OpportunisticGossip>(
            std::move(context), gossip));
        break;
    }
    protocols.back()->Start();
  }

  // Schedule the issues.
  for (int i = 0; i < config.num_ads; ++i) {
    MultiAdResult::PerAd* ad = &result.ads[i];
    simulator.ScheduleAt(ad->issue_time, [&, ad, i]() {
      core::AdContent content = config.base.content;
      content.text += " #" + std::to_string(i);
      auto issued = protocols[i]->Issue(content, config.ad_radius_m,
                                        config.ad_duration_s);
      assert(issued.ok());
      ad->key = issued->Key();
    });
  }

  simulator.RunUntil(config.base.sim_time_s);

  // Per-ad reports over each ad's own life cycle; only mobile peers count.
  for (MultiAdResult::PerAd& ad : result.ads) {
    const double life_end = std::min(ad.issue_time + config.ad_duration_s,
                                     config.base.sim_time_s);
    stats::AreaTracker tracker(Circle{ad.location, config.ad_radius_m},
                               ad.issue_time, life_end);
    for (int i = 0; i < config.base.num_peers; ++i) {
      const net::NodeId id = static_cast<net::NodeId>(config.num_ads + i);
      tracker.Observe(id, mobilities[id].get());
    }
    ad.report = ComputeDeliveryReport(tracker, log, ad.key);
  }
  result.net = medium.stats();
  return result;
}

bool IsMultiAdKey(const std::string& key) {
  return key == "ads" || key == "first_issue" || key == "issue_spacing" ||
         key == "ad_radius" || key == "ad_duration" ||
         key == "border_margin" || key == "stalls" || key == "zipf";
}

[[nodiscard]]
Status ApplyMultiAdConfigKey(const std::string& key, const std::string& value,
                             MultiAdConfig* config) {
  auto as_double = [&](double* field) -> Status {
    auto parsed = ParseDouble(value);
    if (!parsed.ok()) {
      return Status::InvalidArgument("key '" + key + "': " +
                                     parsed.status().message());
    }
    *field = *parsed;
    return Status::Ok();
  };
  auto as_count = [&](int* field) -> Status {
    auto parsed = ParseInt(value);
    if (!parsed.ok()) {
      return Status::InvalidArgument("key '" + key + "': " +
                                     parsed.status().message());
    }
    if (*parsed < 0) {
      return Status::InvalidArgument("key '" + key + "' = " + value +
                                     ": must be a non-negative integer");
    }
    *field = static_cast<int>(*parsed);
    return Status::Ok();
  };
  if (key == "ads") return as_count(&config->num_ads);
  if (key == "first_issue") return as_double(&config->first_issue_s);
  if (key == "issue_spacing") return as_double(&config->issue_spacing_s);
  if (key == "ad_radius") return as_double(&config->ad_radius_m);
  if (key == "ad_duration") return as_double(&config->ad_duration_s);
  if (key == "border_margin") return as_double(&config->border_margin_m);
  if (key == "stalls") return as_count(&config->num_stalls);
  if (key == "zipf") return as_double(&config->zipf_s);
  return ApplyConfigKey(key, value, &config->base);
}

[[nodiscard]]
Status LoadMultiAdConfigFile(const std::string& path, MultiAdConfig* config) {
  auto entries = ReadConfigEntries(path);
  if (!entries.ok()) return entries.status();
  for (const ConfigEntry& entry : *entries) {
    Status applied = ApplyMultiAdConfigKey(entry.key, entry.value, config);
    if (!applied.ok()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(entry.line) + ": " +
                                     applied.message());
    }
  }
  Status valid = config->Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument(path + ": " + valid.message());
  }
  return Status::Ok();
}

std::string SaveMultiAdConfigText(const MultiAdConfig& config) {
  std::ostringstream out;
  char buf[96];
  auto number = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%s = %g\n", key, v);
    out << buf;
  };
  out << SaveConfigText(config.base);
  out << "# multi-ad keys\n";
  out << "ads = " << config.num_ads << '\n';
  number("first_issue", config.first_issue_s);
  number("issue_spacing", config.issue_spacing_s);
  number("ad_radius", config.ad_radius_m);
  number("ad_duration", config.ad_duration_s);
  number("border_margin", config.border_margin_m);
  out << "stalls = " << config.num_stalls << '\n';
  number("zipf", config.zipf_s);
  return out.str();
}

[[nodiscard]]
Status LoadScenarioFileAuto(const std::string& path, MultiAdConfig* out,
                            bool* is_multi_ad) {
  auto entries = ReadConfigEntries(path);
  if (!entries.ok()) return entries.status();
  *is_multi_ad = std::any_of(
      entries->begin(), entries->end(),
      [](const ConfigEntry& entry) { return IsMultiAdKey(entry.key); });
  for (const ConfigEntry& entry : *entries) {
    Status applied =
        *is_multi_ad ? ApplyMultiAdConfigKey(entry.key, entry.value, out)
                     : ApplyConfigKey(entry.key, entry.value, &out->base);
    if (!applied.ok()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(entry.line) + ": " +
                                     applied.message());
    }
  }
  Status valid = *is_multi_ad ? out->Validate() : out->base.Validate();
  if (!valid.ok()) {
    return Status::InvalidArgument(path + ": " + valid.message());
  }
  return Status::Ok();
}

}  // namespace madnet::scenario
