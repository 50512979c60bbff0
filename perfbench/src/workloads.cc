#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "exec/parallel_for.h"
#include "exec/replication.h"
#include "net/medium.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using madnet::scenario::Method;
using madnet::scenario::MultiAdConfig;
using madnet::scenario::RunResult;
using madnet::scenario::Scenario;
using madnet::scenario::ScenarioConfig;

// Runs per pass. A pass must be long enough that its wall time is well
// above clock and scheduling noise, and short enough that a run of the
// benchmark's measuring time holds several passes to take a median over.
constexpr int kTable2Runs = 40;       // ~60 ms each at 1000 peers.
constexpr int kMarketplaceRuns = 10;  // ~0.2 s each at 1000 peers + CSMA.

// scenarios/marketplace_zipf.cfg, restated here so the benchmark generates
// its own inputs, scaled from 200 to 1000 peers and with CSMA on.
constexpr const char* kMarketplaceKeys[][2] = {
    {"method", "optimized"}, {"mobility", "waypoint"}, {"peers", "1000"},
    {"area", "3000"},        {"sim_time", "600"},      {"speed", "2"},
    {"speed_delta", "1"},    {"round", "5"},           {"cache", "8"},
    {"range", "250"},        {"csma", "true"},         {"ads", "12"},
    {"first_issue", "30"},   {"issue_spacing", "20"},  {"ad_radius", "600"},
    {"ad_duration", "250"},  {"border_margin", "600"}, {"stalls", "4"},
    {"zipf", "1.5"},
};

ScenarioConfig Table2Config(uint64_t seed) {
  ScenarioConfig config = ScenarioConfig::PaperDefaults();
  config.num_peers = 1000;
  config.method = Method::kOptimized;
  config.seed = seed;
  return config;
}

// bench/throughput --metro's population (Table II density: 300 peers per
// 5 km square) with a 5 km downtown ad, over 200 simulated seconds.
ScenarioConfig MetroConfig(uint64_t seed) {
  ScenarioConfig config = ScenarioConfig::PaperDefaults();
  config.num_peers = 100000;
  config.area_size_m = 5000.0 * std::sqrt(config.num_peers / 300.0);
  config.issue_location = {config.area_size_m / 2.0, config.area_size_m / 2.0};
  config.sim_time_s = 200.0;
  config.issue_time_s = 5.0;
  config.method = Method::kGossip;
  config.initial_radius_m = 5000.0;
  config.tiles = 1;
  config.seed = seed;
  return config;
}

bool ValidOrReport(const ScenarioConfig& config, const std::string& what) {
  const madnet::Status status = config.Validate();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: %s config invalid: %s\n", what.c_str(),
                 status.ToString().c_str());
  }
  return status.ok();
}

PaperRun PaperFrom(const RunResult& result, std::string id) {
  PaperRun run;
  run.id = std::move(id);
  run.delivery_rate_pct = result.DeliveryRatePercent();
  run.mean_delivery_time_s = result.MeanDeliveryTime();
  run.messages = static_cast<double>(result.Messages());
  run.deliveries = static_cast<double>(result.net.deliveries);
  return run;
}

/// Keeps the reference kernel's result observable.
volatile size_t g_kernel_sink = 0;

std::string SeedId(uint64_t seed) { return "seed=" + std::to_string(seed); }

std::string PointId(const ScenarioConfig& config) {
  return std::string(MethodName(config.method)) +
         "/n=" + std::to_string(config.num_peers);
}

/// Small stable worker ids for the threads of one pass.
class WorkerIds {
 public:
  int Current() {
    std::lock_guard<std::mutex> lock(mu_);
    return ids_.try_emplace(std::this_thread::get_id(),
                            static_cast<int>(ids_.size()))
        .first->second;
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, int> ids_;  // Guarded by mu_.
};

/// Runs a constructed scenario under the per-simulated-second probe and
/// folds its exact counters into `counts`. The probe reads the simulator's
/// and medium's counters only: it draws no randomness and changes no
/// model state, so the run's results are those of an unprobed run.
RunResult TracedRun(Scenario* scenario, SpanRecorder* spans, int parent,
                    int worker, LayerCounts* counts) {
  madnet::sim::Simulator* simulator = scenario->simulator();
  const madnet::net::Medium* medium = scenario->medium();
  const double horizon = scenario->config().sim_time_s;

  const int run_span = spans->Begin("scenario.run", parent, worker);
  double window_start = spans->Now();
  uint64_t window_messages = 0;
  uint64_t fires = 0;
  madnet::sim::PeriodicHandle probe = simulator->SchedulePeriodic(
      1.0, 1.0, [&]() {
        const double now = spans->Now();
        const uint64_t messages = medium->stats().messages_sent;
        spans->Add("sim.window", run_span, window_start, now, worker);
        counts->window_wall_s += now - window_start;
        if (messages == window_messages) {
          counts->idle_window_wall_s += now - window_start;
        }
        window_start = now;
        window_messages = messages;
        ++fires;
        counts->pending_peak =
            std::max<uint64_t>(counts->pending_peak,
                               simulator->PendingEvents());
        return simulator->Now() < horizon;
      });
  const RunResult result = scenario->Run();
  probe.Cancel();
  spans->End(run_span);

  counts->probe_fires += fires;
  counts->events += result.events_executed - fires;
  counts->broadcasts += result.net.messages_sent;
  counts->deliveries += result.net.deliveries;
  counts->arena_frames_peak =
      std::max(counts->arena_frames_peak, result.net.arena_frames_peak);
  counts->dropped_collision += result.net.dropped_collision;
  counts->mac_defers += result.net.mac_defers;
  counts->dropped_mac_busy += result.net.dropped_mac_busy;
  for (int id = 0; id <= scenario->num_peers(); ++id) {
    counts->legs += scenario->mobility(static_cast<madnet::net::NodeId>(id))
                        ->legs()
                        .size();
  }
  return result;
}

void MergeCounts(const LayerCounts& from, LayerCounts* into) {
  into->events += from.events;
  into->probe_fires += from.probe_fires;
  into->pending_peak = std::max(into->pending_peak, from.pending_peak);
  into->window_wall_s += from.window_wall_s;
  into->idle_window_wall_s += from.idle_window_wall_s;
  into->broadcasts += from.broadcasts;
  into->deliveries += from.deliveries;
  into->arena_frames_peak =
      std::max(into->arena_frames_peak, from.arena_frames_peak);
  into->dropped_collision += from.dropped_collision;
  into->mac_defers += from.mac_defers;
  into->dropped_mac_busy += from.dropped_mac_busy;
  into->legs += from.legs;
}

PaperRun PaperFromMultiAd(const madnet::scenario::MultiAdResult& result,
                          std::string id) {
  PaperRun run;
  run.id = std::move(id);
  run.delivery_rate_pct = result.MeanDeliveryRatePercent();
  run.mean_delivery_time_s = result.MeanDeliveryTime();
  run.messages = static_cast<double>(result.net.messages_sent);
  run.deliveries = static_cast<double>(result.net.deliveries);
  return run;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  // Run i of a batch uses seed * 1000 + i, so batches of neighbouring
  // benchmark seeds never share a run.
  const uint64_t base = seed * 1000;
  if (name == "table2") {
    for (int i = 0; i < kTable2Runs; ++i) {
      w.configs.push_back(Table2Config(base + static_cast<uint64_t>(i)));
    }
  } else if (name == "metro") {
    w.configs = {MetroConfig(seed)};
    w.ref_period_s = 10.0;
  } else if (name == "fig07_sweep") {
    w.kind = Kind::kSweep;
    for (Method method : {Method::kFlooding, Method::kGossip,
                          Method::kOptimized1, Method::kOptimized2,
                          Method::kOptimized}) {
      for (int peers = 100; peers <= 1000; peers += 100) {
        ScenarioConfig config = ScenarioConfig::PaperDefaults();
        config.method = method;
        config.num_peers = peers;
        config.seed = base;
        w.configs.push_back(config);
      }
    }
    w.reps = 3;
    w.jobs = madnet::exec::ResolveJobs(0);
    w.ref_reps = 10;
  } else if (name == "marketplace") {
    w.kind = Kind::kMarketplace;
    for (int i = 0; i < kMarketplaceRuns; ++i) {
      MultiAdConfig config;
      for (const auto& [key, value] : kMarketplaceKeys) {
        const madnet::Status status =
            madnet::scenario::ApplyMultiAdConfigKey(key, value, &config);
        if (!status.ok()) {
          std::fprintf(stderr, "perfbench: marketplace key %s: %s\n", key,
                       status.ToString().c_str());
          return false;
        }
      }
      config.base.seed = base + static_cast<uint64_t>(i);
      const madnet::Status status = config.Validate();
      if (!status.ok()) {
        std::fprintf(stderr, "perfbench: marketplace config invalid: %s\n",
                     status.ToString().c_str());
        return false;
      }
      w.multi.push_back(config);
    }
    w.ad_count = w.multi.front().num_ads;
    w.ref_reps = 2;
  } else {
    return false;
  }
  switch (w.kind) {
    case Kind::kSerial:
      w.setup_configs = w.configs;
      break;
    case Kind::kSweep:
      for (const ScenarioConfig& point : w.configs) {
        for (int rep = 0; rep < w.reps; ++rep) {
          w.setup_configs.push_back(point);
          w.setup_configs.back().seed += static_cast<uint64_t>(rep);
        }
      }
      break;
    case Kind::kMarketplace:
      for (const MultiAdConfig& config : w.multi) {
        w.setup_configs.push_back(config.base);
      }
      break;
  }
  w.representative = w.kind == Kind::kMarketplace ? w.multi.front().base
                                                  : w.configs.back();
  w.cache_capacity = static_cast<int>(w.representative.gossip.cache_capacity);
  for (const ScenarioConfig& config : w.configs) {
    if (!ValidOrReport(config, name)) return false;
  }
  if (!ValidOrReport(w.representative, name)) return false;
  *out = std::move(w);
  return true;
}

double TimeSetup(const Workload& workload) {
  double seconds = 0.0;
  for (const ScenarioConfig& config : workload.setup_configs) {
    const auto start = Clock::now();
    const Scenario scenario(config);
    seconds += SecondsSince(start);
  }
  return seconds;
}

double ReferenceKernelSeconds() {
  static const std::vector<uint32_t> input = [] {
    std::vector<uint32_t> values(40000);
    uint64_t x = 1;
    for (uint32_t& value : values) {
      x = x * 6364136223846793005u + 1442695040888963407u;
      value = static_cast<uint32_t>(x >> 33);
    }
    return values;
  }();
  const auto start = Clock::now();
  std::vector<uint32_t> sorted = input;
  std::sort(sorted.begin(), sorted.end());
  std::unordered_map<uint32_t, uint32_t> folded;
  folded.reserve(1024);
  for (size_t i = 0; i < sorted.size(); i += 2) {
    folded[input[i] & 0xFFFFu] += sorted[i];
  }
  g_kernel_sink = folded.size();
  return SecondsSince(start);
}

PassResult RunTimedPass(const Workload& workload, bool with_reference) {
  PassResult pass;
  const auto start = Clock::now();
  double ref_elapsed_s = 0.0;
  const int ref_reps = with_reference ? workload.ref_reps : 0;
  auto sample_reference = [&] {
    const auto sample_start = Clock::now();
    for (int i = 0; i < ref_reps; ++i) {
      pass.ref_s.push_back(ReferenceKernelSeconds());
    }
    ref_elapsed_s += SecondsSince(sample_start);
  };
  sample_reference();
  switch (workload.kind) {
    case Kind::kSerial:
      for (const ScenarioConfig& config : workload.configs) {
        const double run_start = SecondsSince(start);
        Scenario scenario(config);
        madnet::sim::PeriodicHandle sampler;
        if (with_reference && workload.ref_period_s > 0.0) {
          // Like the traced pass's probe, this draws no randomness and
          // touches no model state, so the run's results are unchanged.
          madnet::sim::Simulator* simulator = scenario.simulator();
          sampler = simulator->SchedulePeriodic(
              workload.ref_period_s, workload.ref_period_s, [&]() {
                sample_reference();
                return simulator->Now() < config.sim_time_s;
              });
        }
        pass.runs.push_back(PaperFrom(scenario.Run(), SeedId(config.seed)));
        sampler.Cancel();
        pass.points.push_back({0, run_start, SecondsSince(start)});
        pass.sim_s += config.sim_time_s;
        sample_reference();
      }
      break;
    case Kind::kSweep: {
      std::vector<madnet::exec::Aggregate> aggregates(workload.configs.size());
      pass.points.resize(workload.configs.size());
      WorkerIds workers;
      madnet::exec::ParallelFor(
          workload.jobs, workload.configs.size(), [&](size_t point) {
            const double point_start = SecondsSince(start);
            aggregates[point] =
                madnet::exec::RunReplicated(workload.configs[point],
                                            workload.reps);
            pass.points[point] = {workers.Current(), point_start,
                                  SecondsSince(start)};
          });
      for (size_t point = 0; point < aggregates.size(); ++point) {
        PaperRun run;
        run.id = PointId(workload.configs[point]);
        run.delivery_rate_pct = aggregates[point].DeliveryRate();
        run.mean_delivery_time_s = aggregates[point].DeliveryTime();
        run.messages = aggregates[point].Messages();
        pass.runs.push_back(run);
        pass.sim_s += workload.configs[point].sim_time_s * workload.reps;
      }
      break;
    }
    case Kind::kMarketplace:
      for (const MultiAdConfig& config : workload.multi) {
        const double run_start = SecondsSince(start);
        pass.runs.push_back(PaperFromMultiAd(
            madnet::scenario::RunMultiAdScenario(config),
            SeedId(config.base.seed)));
        pass.points.push_back({0, run_start, SecondsSince(start)});
        pass.sim_s += config.base.sim_time_s;
        sample_reference();
      }
      break;
  }
  if (workload.kind == Kind::kSweep) sample_reference();
  pass.wall_s = SecondsSince(start) - ref_elapsed_s;
  return pass;
}

PassResult RunTracedPass(const Workload& workload, SpanRecorder* spans,
                         int root, LayerCounts* counts) {
  PassResult pass;
  const auto start = Clock::now();
  switch (workload.kind) {
    case Kind::kSerial:
      for (const ScenarioConfig& config : workload.configs) {
        const double run_start = SecondsSince(start);
        const int construct = spans->Begin("scenario.construct", root);
        Scenario scenario(config);
        spans->End(construct);
        pass.runs.push_back(PaperFrom(
            TracedRun(&scenario, spans, root, -1, counts), SeedId(config.seed)));
        pass.points.push_back({0, run_start, SecondsSince(start)});
        pass.sim_s += config.sim_time_s;
      }
      break;
    case Kind::kSweep: {
      const size_t n = workload.configs.size();
      std::vector<PaperRun> runs(n);
      std::vector<LayerCounts> point_counts(n);
      pass.points.resize(n);
      WorkerIds workers;
      madnet::exec::ParallelFor(workload.jobs, n, [&](size_t point) {
        const double point_start = SecondsSince(start);
        const int worker = workers.Current();
        const int span = spans->Begin("exec.point", root, worker);
        // The same seeds and fold order as exec::RunReplicated, so the
        // point's means are bit-identical to the timed pass's Aggregate.
        madnet::exec::Aggregate aggregate;
        double deliveries = 0.0;
        for (int rep = 0; rep < workload.reps; ++rep) {
          ScenarioConfig config = workload.configs[point];
          config.seed += static_cast<uint64_t>(rep);
          const int construct = spans->Begin("scenario.construct", span,
                                             worker);
          Scenario scenario(config);
          spans->End(construct);
          const RunResult result =
              TracedRun(&scenario, spans, span, worker, &point_counts[point]);
          aggregate.delivery_rate_percent.Add(result.DeliveryRatePercent());
          if (result.report.peers_delivered > 0) {
            aggregate.mean_delivery_time_s.Add(result.MeanDeliveryTime());
          }
          aggregate.messages.Add(static_cast<double>(result.Messages()));
          deliveries += static_cast<double>(result.net.deliveries);
        }
        spans->End(span);
        runs[point].id = PointId(workload.configs[point]);
        runs[point].delivery_rate_pct = aggregate.DeliveryRate();
        runs[point].mean_delivery_time_s = aggregate.DeliveryTime();
        runs[point].messages = aggregate.Messages();
        runs[point].deliveries = deliveries;
        pass.points[point] = {worker, point_start, SecondsSince(start)};
      });
      pass.runs = std::move(runs);
      for (const LayerCounts& c : point_counts) MergeCounts(c, counts);
      for (const ScenarioConfig& config : workload.configs) {
        pass.sim_s += config.sim_time_s * workload.reps;
      }
      break;
    }
    case Kind::kMarketplace:
      // RunMultiAdScenario assembles its own simulator, so its runs are
      // timed whole and only their medium counters are read here.
      for (const MultiAdConfig& config : workload.multi) {
        const double run_start = SecondsSince(start);
        const int span = spans->Begin("scenario.run", root);
        const madnet::scenario::MultiAdResult result =
            madnet::scenario::RunMultiAdScenario(config);
        spans->End(span);
        counts->broadcasts += result.net.messages_sent;
        counts->deliveries += result.net.deliveries;
        counts->arena_frames_peak =
            std::max(counts->arena_frames_peak, result.net.arena_frames_peak);
        counts->dropped_collision += result.net.dropped_collision;
        counts->mac_defers += result.net.mac_defers;
        counts->dropped_mac_busy += result.net.dropped_mac_busy;
        pass.runs.push_back(
            PaperFromMultiAd(result, SeedId(config.base.seed)));
        pass.points.push_back({0, run_start, SecondsSince(start)});
        pass.sim_s += config.base.sim_time_s;
      }
      break;
  }
  pass.wall_s = SecondsSince(start);
  return pass;
}

LayerCounts ProbeScenario(const ScenarioConfig& config, SpanRecorder* spans,
                          int parent) {
  LayerCounts counts;
  const int construct = spans->Begin("scenario.construct", parent);
  Scenario scenario(config);
  spans->End(construct);
  TracedRun(&scenario, spans, parent, -1, &counts);
  return counts;
}

}  // namespace perfbench
