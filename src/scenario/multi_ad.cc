// Copyright (c) 2026 madnet authors. All rights reserved.

#include "scenario/multi_ad.h"

#include "scenario/config_io.h"
#include "scenario/scenario.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

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
  return Status::Ok();
}

MultiAdResult RunMultiAdScenario(const MultiAdConfig& config) {
  RunResult run = Scenario(config).Run();
  MultiAdResult result;
  result.ads = std::move(run.ads);
  result.net = run.net;
  return result;
}

bool IsMultiAdKey(const std::string& key) {
  return key == "ads" || key == "first_issue" || key == "issue_spacing" ||
         key == "ad_radius" || key == "ad_duration" ||
         key == "border_margin" || key == "stalls" || key == "zipf";
}

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

std::string SaveMultiAdConfigText(const MultiAdConfig& config) {
  return SaveConfigText(config.base) + MultiAdKeysText(config);
}

std::string MultiAdKeysText(const MultiAdConfig& config) {
  std::ostringstream out;
  char buf[96];
  auto number = [&](const char* key, double v) {
    std::snprintf(buf, sizeof(buf), "%s = %g\n", key, v);
    out << buf;
  };
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
