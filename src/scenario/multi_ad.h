// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Multi-advertisement scenarios: K ads issued from distinct locations at
// staggered times over the same peer population ("there could be many
// different shops, individuals issuing ads at different places" — paper,
// Section I). Advertising areas overlap and peers carry several ads at
// once, which is the regime where the top-k probability-ordered cache
// (Algorithm 1) actually gets exercised. A Scenario built from a
// MultiAdConfig runs them; this header holds the config, its file format
// and a thin result adapter.

#ifndef MADNET_SCENARIO_MULTI_AD_H_
#define MADNET_SCENARIO_MULTI_AD_H_

#include <string>
#include <vector>

#include "scenario/config.h"
#include "scenario/scenario.h"
#include "stats/delivery.h"

namespace madnet::scenario {

/// Configuration of a multi-ad run. The embedded `base` supplies the
/// method, population, mobility, medium, protocol and fault options; its
/// single-ad fields (issue_location, initial R/D, issue_time) are ignored
/// in favour of the fields below.
struct MultiAdConfig {
  ScenarioConfig base;

  int num_ads = 10;             ///< Ads, one issuer node each.
  double first_issue_s = 60.0;  ///< Issue time of ad 0.
  double issue_spacing_s = 30.0;///< Gap between consecutive issues.
  double ad_radius_m = 600.0;   ///< R of every ad.
  double ad_duration_s = 300.0; ///< D of every ad.
  /// Issue locations are drawn uniformly at least this far from the area
  /// border (so the advertising circle stays mostly inside).
  double border_margin_m = 600.0;

  /// Marketplace mode: when > 0, ads are issued from this many fixed stall
  /// locations instead of one fresh location per ad, and each ad picks its
  /// stall with Zipf weight 1/(rank+1)^zipf_s — a few popular stalls issue
  /// most of the ads (Zipf ad demand). 0 keeps the one-location-per-ad
  /// behaviour.
  int num_stalls = 0;
  /// Stall popularity skew s >= 0; 0 = uniform demand across stalls.
  double zipf_s = 1.0;

  /// Cross-field validation with key-named diagnostics, mirroring
  /// ScenarioConfig::Validate(), which it runs on `base` first.
  Status Validate() const;
};

/// Per-ad and aggregate results of a multi-ad run.
struct MultiAdResult {
  using PerAd = AdReport;
  std::vector<PerAd> ads;
  net::MediumStats net;

  double MeanDeliveryRatePercent() const {
    return scenario::MeanDeliveryRatePercent(ads);
  }
  double MeanDeliveryTime() const { return scenario::MeanDeliveryTime(ads); }
};

/// Runs `Scenario(config)` and keeps its per-ad reports and medium
/// counters.
MultiAdResult RunMultiAdScenario(const MultiAdConfig& config);

// --- Multi-ad config files -------------------------------------------------
//
// A config file is multi-ad iff it uses at least one of the keys below;
// every single-ad key applies to the embedded `base`. See
// docs/scenario_schema.md ("Multi-ad keys").

/// True iff `key` is one of the multi-ad keys (ads, first_issue,
/// issue_spacing, ad_radius, ad_duration, border_margin, stalls, zipf).
bool IsMultiAdKey(const std::string& key);

/// Applies one assignment: multi-ad keys to `config`, everything else to
/// `config->base` via ApplyConfigKey. Same fail-fast diagnostics.
Status ApplyMultiAdConfigKey(const std::string& key, const std::string& value,
                             MultiAdConfig* config);

/// Serializes a multi-ad config (base keys + multi-ad keys); round-trips.
std::string SaveMultiAdConfigText(const MultiAdConfig& config);

/// The multi-ad keys part of SaveMultiAdConfigText.
std::string MultiAdKeysText(const MultiAdConfig& config);

/// Loads a scenario file of either kind: the file is multi-ad iff any of
/// its keys IsMultiAdKey. On success `*is_multi_ad` says which loader ran
/// and `out` holds the result (`out->base` alone is meaningful for
/// single-ad files). This is what `madnet_run --config` and the
/// corpus smoke tests call, so every file under scenarios/ goes through
/// one sniffing contract.
Status LoadScenarioFileAuto(const std::string& path, MultiAdConfig* out,
                            bool* is_multi_ad);

}  // namespace madnet::scenario

#endif  // MADNET_SCENARIO_MULTI_AD_H_
