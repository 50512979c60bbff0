// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Builds and runs one complete experiment: simulator + medium + mobility +
// one protocol instance per peer + a stationary issuer, then computes the
// paper's three metrics over the advertisement's life cycle.

#ifndef MADNET_SCENARIO_SCENARIO_H_
#define MADNET_SCENARIO_SCENARIO_H_

#include <memory>
#include <vector>

#include "core/protocol.h"
#include "fault/fault_injector.h"
#include "mobility/mobility_model.h"
#include "mobility/trace_io.h"
#include "net/medium.h"
#include "obs/flight_recorder.h"
#include "obs/run_context.h"
#include "obs/tile_load.h"
#include "scenario/config.h"
#include "sim/simulator.h"
#include "stats/delivery.h"
#include "util/logging.h"

namespace madnet::scenario {

/// Everything a run reports.
struct RunResult {
  stats::DeliveryReport report;   ///< Delivery rate & delivery times.
  net::MediumStats net;           ///< Message/byte/drop counters.
  fault::FaultStats fault;        ///< Injected-fault counters (all zero
                                  ///< when the config's plan is disabled).
  uint64_t events_executed = 0;   ///< Simulator events (sanity/efficiency).
  uint64_t ad_key = 0;            ///< The issued advertisement's key.
  double final_rank = 0.0;        ///< FM rank estimate at end of run (0 when
                                  ///< ranking is off or the ad vanished).
  double final_radius_m = 0.0;    ///< Ad's R at end (enlargement evidence).
  double final_duration_s = 0.0;  ///< Ad's D at end.

  double DeliveryRatePercent() const { return report.DeliveryRatePercent(); }
  double MeanDeliveryTime() const { return report.MeanDeliveryTime(); }
  uint64_t Messages() const { return net.messages_sent; }
};

/// One assembled simulation. Typical use is the one-liner RunScenario();
/// the class form lets examples reach into the pieces (issue more ads,
/// inspect caches) before/after Run().
class Scenario {
 public:
  /// Builds the full scenario. `config` must Validate() (asserted).
  explicit Scenario(const ScenarioConfig& config) : Scenario(config, nullptr) {}

  /// Observed variant: when `obs` is non-null the scenario emits trace
  /// records (per the context's enabled categories) from the simulator,
  /// the medium, and every protocol instance, books setup / event-loop /
  /// aggregation phase timings, and snapshots run metrics into the
  /// context's registry at the end of Run(). `obs` is borrowed and must
  /// outlive the scenario. With nullptr this is exactly the plain ctor —
  /// hot paths pay a single null test per potential record.
  Scenario(const ScenarioConfig& config, obs::RunContext* obs);

  ~Scenario();
  Scenario(const Scenario&) = delete;
  Scenario& operator=(const Scenario&) = delete;

  /// Runs to config.sim_time_s and reports the metrics. Call once.
  RunResult Run();

  /// The node id of the issuer (the stationary node at issue_location).
  /// Everything issuer-related — Issue(), the issuer_goes_offline event,
  /// the fault layer's churner exclusion — routes through this accessor,
  /// never a literal node id.
  net::NodeId issuer_id() const { return kIssuerId; }

  /// Peer ids are 1..num_peers.
  int num_peers() const { return config_.num_peers; }

  sim::Simulator* simulator() { return &simulator_; }
  net::Medium* medium() { return medium_.get(); }
  stats::DeliveryLog* delivery_log() { return &delivery_log_; }

  /// The protocol instance of a node (issuer included).
  core::Protocol* protocol(net::NodeId id) { return protocols_[id].get(); }

  /// The mobility model of a node.
  mobility::MobilityModel* mobility(net::NodeId id) {
    return mobilities_[id].get();
  }

  /// Key of the advertisement issued during Run(); 0 before it is issued.
  /// Valid inside custom events scheduled after config.issue_time_s (e.g.
  /// samplers) and after Run() returns.
  uint64_t issued_ad_key() const { return issued_ad_key_; }

  /// Records every node's trajectory over [0, horizon] (issuer included,
  /// as node id 0) — e.g. for SaveTraces, or for replaying the identical
  /// movement under a protocol built outside the Scenario harness.
  mobility::TraceSet RecordTraces(sim::Time horizon);

  const ScenarioConfig& config() const { return config_; }

 private:
  /// Node 0 is the issuer by construction (first node registered).
  static constexpr net::NodeId kIssuerId = 0;

  /// Creates the protocol instance for one node per config_.method.
  std::unique_ptr<core::Protocol> MakeProtocol(net::NodeId id, Rng rng);

  /// Creates one peer's mobility model per config_.mobility.
  std::unique_ptr<mobility::MobilityModel> MakeMobility(Rng rng);

  /// Snapshots the finished run's counters and reports into obs_->metrics.
  void CaptureMetrics(const RunResult& result);

  ScenarioConfig config_;
  obs::RunContext* obs_;  // Borrowed; may be null.
  sim::Simulator simulator_;
  // Log records carry virtual time while this scenario is on the stack.
  ScopedLogClock log_clock_;
  std::unique_ptr<net::Medium> medium_;
  stats::DeliveryLog delivery_log_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobilities_;
  std::vector<std::unique_ptr<core::Protocol>> protocols_;
  /// Expands config_.fault into simulator events; null when the plan is
  /// disabled (the run is then byte-identical to a pre-fault-layer one).
  std::unique_ptr<fault::FaultInjector> injector_;
  /// Per-tile broadcast/delivery/queue-depth counters (observed runs only;
  /// tile edge = the radio range, so a tile is one interference
  /// neighbourhood). Summarized into obs_->metrics by CaptureMetrics.
  std::unique_ptr<obs::TileLoadMap> tile_load_;
  /// Postmortem ring auto-attached for observed fault runs when the
  /// session did not install one (see ctor); detached in the dtor.
  std::unique_ptr<obs::FlightRecorder> recorder_;
  uint64_t issued_ad_key_ = 0;
  bool ran_ = false;
};

/// Builds, runs, and reports one scenario.
RunResult RunScenario(const ScenarioConfig& config);

/// Observed variant; see Scenario's two-argument constructor.
RunResult RunScenario(const ScenarioConfig& config, obs::RunContext* obs);

/// Builds one mobile peer's mobility model per `config.mobility` (Random
/// Waypoint / Manhattan grid / hotspot waypoint / constant-velocity highway
/// lanes, with the speed, pause and model-specific fields of `config`).
/// Used by both the single-ad Scenario and the multi-ad harness.
std::unique_ptr<mobility::MobilityModel> MakePeerMobility(
    const ScenarioConfig& config, Rng rng);

}  // namespace madnet::scenario

#endif  // MADNET_SCENARIO_SCENARIO_H_
