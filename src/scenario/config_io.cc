// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/config_io.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace madnet::scenario {

namespace {

Status ParseMethodName(const std::string& name, Method* out) {
  if (name == "flooding") *out = Method::kFlooding;
  else if (name == "gossip") *out = Method::kGossip;
  else if (name == "optimized1") *out = Method::kOptimized1;
  else if (name == "optimized2") *out = Method::kOptimized2;
  else if (name == "optimized") *out = Method::kOptimized;
  else if (name == "exchange") *out = Method::kResourceExchange;
  else {
    return Status::InvalidArgument(
        "key 'method' = '" + name +
        "': unknown method (accepted: "
        "flooding|gossip|optimized1|optimized2|optimized|exchange)");
  }
  return Status::Ok();
}

Status ParseMobilityName(const std::string& name, Mobility* out) {
  if (name == "waypoint") *out = Mobility::kRandomWaypoint;
  else if (name == "manhattan") *out = Mobility::kManhattanGrid;
  else if (name == "hotspot") *out = Mobility::kHotspot;
  else if (name == "highway") *out = Mobility::kHighway;
  else {
    return Status::InvalidArgument(
        "key 'mobility' = '" + name +
        "': unknown mobility (accepted: waypoint|manhattan|hotspot|highway)");
  }
  return Status::Ok();
}

const char* MethodToken(Method method) {
  switch (method) {
    case Method::kFlooding: return "flooding";
    case Method::kGossip: return "gossip";
    case Method::kOptimized1: return "optimized1";
    case Method::kOptimized2: return "optimized2";
    case Method::kOptimized: return "optimized";
    case Method::kResourceExchange: return "exchange";
  }
  return "?";
}

const char* MobilityToken(Mobility mobility) {
  switch (mobility) {
    case Mobility::kRandomWaypoint: return "waypoint";
    case Mobility::kManhattanGrid: return "manhattan";
    case Mobility::kHotspot: return "hotspot";
    case Mobility::kHighway: return "highway";
  }
  return "?";
}

/// Prefixes a parse failure with the key it belongs to, so "250m" in a
/// config file reads as: key 'range': not a number: '250m'.
Status KeyedParseError(const std::string& key, const Status& error) {
  return Status::InvalidArgument("key '" + key + "': " + error.message());
}

}  // namespace

Status ApplyConfigKey(const std::string& key, const std::string& value,
                      ScenarioConfig* config) {
  auto as_double = [&](double* field) -> Status {
    auto parsed = ParseDouble(value);
    if (!parsed.ok()) return KeyedParseError(key, parsed.status());
    *field = *parsed;
    return Status::Ok();
  };
  auto as_bool = [&](bool* field) -> Status {
    auto parsed = ParseBool(value);
    if (!parsed.ok()) return KeyedParseError(key, parsed.status());
    *field = *parsed;
    return Status::Ok();
  };
  // Strict non-negative integer: rejects garbage *and* negatives here, so
  // a "cache = -5" can never wrap through a size_t cast into a huge
  // accepted capacity.
  auto as_count = [&](int64_t* out) -> Status {
    auto parsed = ParseInt(value);
    if (!parsed.ok()) return KeyedParseError(key, parsed.status());
    if (*parsed < 0) {
      return Status::InvalidArgument("key '" + key + "' = " + value +
                                     ": must be a non-negative integer");
    }
    *out = *parsed;
    return Status::Ok();
  };
  // Keep the index staleness slack covering the fastest peer whenever the
  // speed keys move, so saved fast scenarios reload without an explicit
  // 'max_speed'. An explicit 'max_speed' later in the file still wins.
  auto raise_max_speed = [&]() {
    config->medium.max_speed_mps =
        std::max(config->medium.max_speed_mps,
                 config->mean_speed_mps + config->speed_delta_mps);
  };

  if (key == "method") return ParseMethodName(value, &config->method);
  if (key == "mobility") return ParseMobilityName(value, &config->mobility);
  if (key == "peers") {
    int64_t peers = 0;
    Status s = as_count(&peers);
    if (s.ok()) config->num_peers = static_cast<int>(peers);
    return s;
  }
  if (key == "area") {
    Status s = as_double(&config->area_size_m);
    if (s.ok()) {
      config->issue_location = {config->area_size_m / 2.0,
                                config->area_size_m / 2.0};
    }
    return s;
  }
  if (key == "issue_x") return as_double(&config->issue_location.x);
  if (key == "issue_y") return as_double(&config->issue_location.y);
  if (key == "radius") return as_double(&config->initial_radius_m);
  if (key == "duration") return as_double(&config->initial_duration_s);
  if (key == "sim_time") return as_double(&config->sim_time_s);
  if (key == "issue_time") return as_double(&config->issue_time_s);
  if (key == "speed") {
    Status s = as_double(&config->mean_speed_mps);
    if (s.ok()) raise_max_speed();
    return s;
  }
  if (key == "speed_delta") {
    Status s = as_double(&config->speed_delta_mps);
    if (s.ok()) raise_max_speed();
    return s;
  }
  if (key == "max_speed") return as_double(&config->medium.max_speed_mps);
  if (key == "pause_min") return as_double(&config->min_pause_s);
  if (key == "pause_max") return as_double(&config->max_pause_s);
  if (key == "manhattan_block") return as_double(&config->manhattan_block_m);
  if (key == "hotspot_p") return as_double(&config->hotspot_probability);
  if (key == "hotspot_sigma") return as_double(&config->hotspot_sigma_m);
  if (key == "hotspot_extra") {
    int64_t extra = 0;
    Status s = as_count(&extra);
    if (s.ok()) config->hotspot_extra = static_cast<int>(extra);
    return s;
  }
  if (key == "round") {
    Status s = as_double(&config->gossip.round_time_s);
    if (s.ok()) config->flooding.round_time_s = config->gossip.round_time_s;
    return s;
  }
  if (key == "alpha") {
    Status s = as_double(&config->gossip.propagation.alpha);
    if (s.ok()) config->flooding.propagation = config->gossip.propagation;
    return s;
  }
  if (key == "beta") {
    Status s = as_double(&config->gossip.propagation.beta);
    if (s.ok()) config->flooding.propagation = config->gossip.propagation;
    return s;
  }
  if (key == "dis") return as_double(&config->gossip.dis_m);
  if (key == "cache") {
    int64_t cache = 0;
    Status s = as_count(&cache);
    if (s.ok()) config->gossip.cache_capacity = static_cast<size_t>(cache);
    return s;
  }
  if (key == "range") return as_double(&config->medium.range_m);
  if (key == "loss") return as_double(&config->medium.loss_probability);
  if (key == "fading") return as_double(&config->medium.fading_exponent);
  if (key == "collisions") return as_bool(&config->medium.enable_collisions);
  if (key == "csma") return as_bool(&config->medium.csma);
  if (key == "ranking") {
    Status s = as_bool(&config->gossip.ranking);
    if (s.ok() && config->gossip.ranking) {
      config->assign_interests = true;
      if (config->interest_options.universe.empty()) {
        config->interest_options.universe =
            core::InterestGenerator::DefaultUniverse();
      }
    }
    return s;
  }
  if (key == "issuer_offline") return as_bool(&config->issuer_goes_offline);
  // Fault-plan keys (docs/FAULTS.md). All off by default.
  if (key == "churn_rate") return as_double(&config->fault.churn_rate);
  if (key == "churn_up") return as_double(&config->fault.churn_up_s);
  if (key == "churn_down") return as_double(&config->fault.churn_down_s);
  if (key == "churn_crash") return as_bool(&config->fault.churn_crash);
  if (key == "churn_start") return as_double(&config->fault.churn_start_s);
  if (key == "loss_extra") return as_double(&config->fault.loss_extra);
  if (key == "loss_episode") return as_double(&config->fault.loss_episode_s);
  if (key == "loss_period") return as_double(&config->fault.loss_period_s);
  if (key == "loss_start") return as_double(&config->fault.loss_start_s);
  if (key == "outage_x0") return as_double(&config->fault.outage_rect.min.x);
  if (key == "outage_y0") return as_double(&config->fault.outage_rect.min.y);
  if (key == "outage_x1") return as_double(&config->fault.outage_rect.max.x);
  if (key == "outage_y1") return as_double(&config->fault.outage_rect.max.y);
  if (key == "outage_start") return as_double(&config->fault.outage_start_s);
  if (key == "outage_end") return as_double(&config->fault.outage_end_s);
  if (key == "seed") {
    int64_t seed = 0;
    Status s = as_count(&seed);
    if (s.ok()) config->seed = static_cast<uint64_t>(seed);
    return s;
  }
  return Status::InvalidArgument("unknown config key '" + key +
                                 "' (see docs/scenario_schema.md)");
}

StatusOr<std::vector<ConfigEntry>> ReadConfigEntries(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return Status::IoError("cannot open " + path);
  std::vector<ConfigEntry> entries;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const size_t eq = trimmed.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) +
          ": expected 'key = value', got '" + std::string(trimmed) + "'");
    }
    ConfigEntry entry;
    entry.key = std::string(Trim(trimmed.substr(0, eq)));
    entry.value = std::string(Trim(trimmed.substr(eq + 1)));
    entry.line = line_number;
    if (entry.key.empty()) {
      return Status::InvalidArgument(path + ":" +
                                     std::to_string(line_number) +
                                     ": missing key before '='");
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

Status LoadConfigFile(const std::string& path, ScenarioConfig* config) {
  auto entries = ReadConfigEntries(path);
  if (!entries.ok()) return entries.status();
  for (const ConfigEntry& entry : *entries) {
    Status applied = ApplyConfigKey(entry.key, entry.value, config);
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

std::string SaveConfigText(const ScenarioConfig& config) {
  std::ostringstream out;
  char buf[96];
  auto number = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%s = %g\n", key, v);
    out << buf;
  };
  auto boolean = [&](const char* key, bool v) {
    out << key << " = " << (v ? "true" : "false") << '\n';
  };
  out << "# madnet scenario config\n";
  out << "method = " << MethodToken(config.method) << '\n';
  out << "mobility = " << MobilityToken(config.mobility) << '\n';
  out << "peers = " << config.num_peers << '\n';
  // 'area' recenters the issue location, so issue_x/issue_y must follow it
  // to restore an off-centre issuer.
  number("area", config.area_size_m);
  number("issue_x", config.issue_location.x);
  number("issue_y", config.issue_location.y);
  number("radius", config.initial_radius_m);
  number("duration", config.initial_duration_s);
  number("sim_time", config.sim_time_s);
  number("issue_time", config.issue_time_s);
  // 'speed'/'speed_delta' auto-raise max_speed on load; the explicit
  // 'max_speed' afterwards restores any larger configured slack.
  number("speed", config.mean_speed_mps);
  number("speed_delta", config.speed_delta_mps);
  number("max_speed", config.medium.max_speed_mps);
  number("pause_min", config.min_pause_s);
  number("pause_max", config.max_pause_s);
  number("manhattan_block", config.manhattan_block_m);
  number("hotspot_p", config.hotspot_probability);
  number("hotspot_sigma", config.hotspot_sigma_m);
  out << "hotspot_extra = " << config.hotspot_extra << '\n';
  number("round", config.gossip.round_time_s);
  number("alpha", config.gossip.propagation.alpha);
  number("beta", config.gossip.propagation.beta);
  number("dis", config.gossip.dis_m);
  out << "cache = " << config.gossip.cache_capacity << '\n';
  number("range", config.medium.range_m);
  number("loss", config.medium.loss_probability);
  number("fading", config.medium.fading_exponent);
  boolean("collisions", config.medium.enable_collisions);
  boolean("csma", config.medium.csma);
  boolean("ranking", config.gossip.ranking);
  boolean("issuer_offline", config.issuer_goes_offline);
  number("churn_rate", config.fault.churn_rate);
  number("churn_up", config.fault.churn_up_s);
  number("churn_down", config.fault.churn_down_s);
  boolean("churn_crash", config.fault.churn_crash);
  number("churn_start", config.fault.churn_start_s);
  number("loss_extra", config.fault.loss_extra);
  number("loss_episode", config.fault.loss_episode_s);
  number("loss_period", config.fault.loss_period_s);
  number("loss_start", config.fault.loss_start_s);
  number("outage_x0", config.fault.outage_rect.min.x);
  number("outage_y0", config.fault.outage_rect.min.y);
  number("outage_x1", config.fault.outage_rect.max.x);
  number("outage_y1", config.fault.outage_rect.max.y);
  number("outage_start", config.fault.outage_start_s);
  number("outage_end", config.fault.outage_end_s);
  out << "seed = " << config.seed << '\n';
  return out.str();
}

}  // namespace madnet::scenario
