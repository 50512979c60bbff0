// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Performance-trajectory tracker (not a paper figure): measures the raw
// simulation engine so regressions and wins show up as numbers, PR over PR.
//
//   1. Single-run hot path: one reference scenario (1000 peers, Table II
//      otherwise) — wall-clock, events/sec, broadcasts/sec. This is the
//      number the Medium/SpatialIndex optimisations move.
//   2. Dissemination quality: one observed replication of the reference
//      scenario with provenance tracing on; delivery-latency p50/p99 and
//      the redundancy ratio come from the same obs::DisseminationForest
//      that madnet_tracequery uses, so quality regressions (not just
//      speed regressions) show up in the tracked JSON.
//   3. Sweep engine: a fig07-style (method × network size) grid, run
//      serially and then with a worker per hardware thread — wall-clock
//      both ways and the resulting speedup. This is the number the
//      exec::ThreadPool engine moves.
//   4. Metro scale (opt-in: --metro or MADNET_BENCH_METRO): one
//      Table-II-density run at metro population (100k peers; 20k in fast
//      mode), plus one 10^6-peer point outside fast mode. Per point:
//      wall-clock, simulated seconds per wall second, wall seconds per
//      broadcast, events/sec, set-up time, peak RSS (VmHWM) and bytes per
//      peer. Idle gossip rounds are parked, so events/sec alone is not
//      comparable across that change; the other rates are.
//
// Results go to stdout and to BENCH_throughput.json in $MADNET_BENCH_CSV
// (default "."). The sweep's aggregates are compared between the serial
// and parallel runs; any difference is a determinism bug and fails the
// binary. MADNET_BENCH_FAST shrinks both workloads.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench/bench_util.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "obs/manifest.h"
#include "obs/run_context.h"
#include "obs/trace_query.h"
#include "obs/trace_reader.h"
#include "scenario/config_io.h"
#include "exec/replication.h"
#include "scenario/scenario.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/table.h"

namespace madnet {
namespace {

using exec::Aggregate;
using scenario::Method;
using scenario::MethodName;
using exec::RunReplicated;
using scenario::RunResult;
using scenario::RunScenario;
using scenario::ScenarioConfig;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct SweepResult {
  double wall_s = 0.0;
  std::vector<Aggregate> aggregates;  // One per grid point, grid order.
};

SweepResult RunSweep(const std::vector<Method>& methods,
                     const std::vector<int>& sizes, int reps, int jobs) {
  SweepResult sweep;
  sweep.aggregates.resize(methods.size() * sizes.size());
  const auto start = std::chrono::steady_clock::now();
  exec::ParallelFor(jobs, sweep.aggregates.size(), [&](size_t point) {
    ScenarioConfig config;  // Table II defaults.
    config.method = methods[point / sizes.size()];
    config.num_peers = sizes[point % sizes.size()];
    sweep.aggregates[point] = RunReplicated(config, reps);
  });
  sweep.wall_s = SecondsSince(start);
  return sweep;
}

/// Field-for-field equality of the two sweeps' aggregates; any difference
/// means the parallel engine changed results and must fail loudly.
bool SweepsIdentical(const SweepResult& a, const SweepResult& b) {
  if (a.aggregates.size() != b.aggregates.size()) return false;
  for (size_t i = 0; i < a.aggregates.size(); ++i) {
    const Aggregate& x = a.aggregates[i];
    const Aggregate& y = b.aggregates[i];
    if (x.delivery_rate_percent.Sum() != y.delivery_rate_percent.Sum() ||
        x.mean_delivery_time_s.Sum() != y.mean_delivery_time_s.Sum() ||
        x.messages.Sum() != y.messages.Sum() ||
        x.peers_passed.Sum() != y.peers_passed.Sum() ||
        x.final_rank.Sum() != y.final_rank.Sum()) {
      return false;
    }
  }
  return true;
}

/// A "VmHWM:"/"VmRSS:" line of /proc/self/status, in bytes (0 if absent).
double ProcStatusBytes(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtod(line.c_str() + key_len, nullptr) * 1024.0;
    }
  }
  return 0.0;
}

/// One population point of the metro probe.
struct MetroPoint {
  int peers = 0;
  double setup_s = 0.0;  ///< Scenario construction.
  double wall_s = 0.0;   ///< Scenario::Run() only.
  double peak_rss_bytes = 0.0;
  double bytes_per_peer = 0.0;  ///< Peak RSS growth over the point, per peer.
  double sim_time_s = 0.0;
  RunResult result;

  double sim_s_per_wall_s() const { return sim_time_s / wall_s; }
  double wall_s_per_broadcast() const {
    return result.net.messages_sent > 0
               ? wall_s / static_cast<double>(result.net.messages_sent)
               : 0.0;
  }
  double events_per_sec() const {
    return static_cast<double>(result.events_executed) / wall_s;
  }
};

/// The metro scenario at `peers`: Table II density (300 peers on a 5 km
/// side) preserved at metro population, so per-broadcast receiver counts —
/// and therefore the physics — match the paper's regime. Pure gossiping,
/// not the postpone-optimized variant: only peers holding the ad keep a
/// live round chain, the rest park theirs, so the run weighs what a city
/// of mostly idle peers costs — mobility, index refresh, set-up, memory.
ScenarioConfig MetroConfig(int peers, double sim_time_s) {
  ScenarioConfig config;
  config.num_peers = peers;
  config.area_size_m = 5000.0 * std::sqrt(peers / 300.0);
  config.issue_location = {config.area_size_m / 2.0,
                           config.area_size_m / 2.0};
  config.sim_time_s = sim_time_s;
  config.issue_time_s = 5.0;
  config.method = Method::kGossip;
  config.initial_radius_m = 5000.0;  // A metro downtown.
  return config;
}

/// Runs the metro scenario once.
MetroPoint RunMetroPoint(const ScenarioConfig& config) {
  MetroPoint point;
  point.peers = config.num_peers;
  point.sim_time_s = config.sim_time_s;
  if (Status status = config.Validate(); !status.ok()) {
    MADNET_LOG_ERROR("metro config (%d peers): %s", config.num_peers,
                     status.ToString().c_str());
    std::exit(EXIT_FAILURE);
  }
#if defined(__GLIBC__)
  // Hand heap retained from earlier sections back to the kernel, or this
  // point would reuse it unseen and read as a few bytes per peer.
  malloc_trim(0);
#endif
  // Reset VmHWM to the current RSS so the read after the run is this
  // point's peak. Where the kernel refuses, it stays the process-wide peak.
  std::ofstream("/proc/self/clear_refs") << "5";
  const double rss_before = ProcStatusBytes("VmRSS:");
  const auto setup_start = std::chrono::steady_clock::now();
  {
    scenario::Scenario scenario(config);
    point.setup_s = SecondsSince(setup_start);
    const auto start = std::chrono::steady_clock::now();
    point.result = scenario.Run();
    point.wall_s = SecondsSince(start);
  }
  point.peak_rss_bytes = ProcStatusBytes("VmHWM:");
  point.bytes_per_peer =
      (point.peak_rss_bytes - rss_before) / static_cast<double>(point.peers);
  return point;
}

void PrintMetroPoint(const MetroPoint& point) {
  std::printf(
      "  peers=%-7d  %7.3f s  %7.1f sim-s/s  %8.2f us/broadcast"
      "  %9.0f events/s  setup %.2f s  peak %6.1f MB  %5.0f B/peer\n",
      point.peers, point.wall_s, point.sim_s_per_wall_s(),
      point.wall_s_per_broadcast() * 1e6, point.events_per_sec(),
      point.setup_s, point.peak_rss_bytes / 1e6, point.bytes_per_peer);
}

void Run(const bench::BenchEnv& env, bool metro) {
  bench::PrintHeader(
      "Throughput — raw engine speed (tracked across PRs, not a figure)",
      "n/a; reference numbers for the simulation core itself.");

  // --- 1. Single-run hot path. ---
  // Min-of-N: the run is deterministic, so every repetition executes the
  // same events and only the wall clock varies (scheduler noise, thermal
  // throttling). The fastest repetition is the least-disturbed measurement
  // and the one tracked PR over PR.
  ScenarioConfig reference;  // Table II defaults.
  reference.num_peers = env.fast ? 300 : 1000;
  const int single_runs = env.fast ? 3 : 10;
  RunResult single;
  double single_wall_s = 0.0;
  for (int i = 0; i < single_runs; ++i) {
    auto start = std::chrono::steady_clock::now();
    RunResult result = RunScenario(reference);
    const double wall_s = SecondsSince(start);
    if (i == 0 || wall_s < single_wall_s) {
      single_wall_s = wall_s;
      single = std::move(result);
    }
  }
  const double events_per_sec =
      static_cast<double>(single.events_executed) / single_wall_s;
  const double broadcasts_per_sec =
      static_cast<double>(single.Messages()) / single_wall_s;

  std::printf("\nSingle run (%d peers, Table II, best of %d):\n",
              reference.num_peers, single_runs);
  std::printf("  wall-clock        %.3f s\n", single_wall_s);
  std::printf("  events            %llu (%.0f events/s)\n",
              static_cast<unsigned long long>(single.events_executed),
              events_per_sec);
  std::printf("  broadcasts        %llu (%.0f broadcasts/s)\n",
              static_cast<unsigned long long>(single.Messages()),
              broadcasts_per_sec);

  // --- 2. Dissemination quality (provenance-derived). ---
  // One observed replication with deliver/tx/rx tracing; the records feed
  // the same DisseminationForest that madnet_tracequery uses, so the
  // tracked quality numbers are exactly the tool's numbers. A malformed
  // record here means an emitter broke the documented schema — fail.
  obs::TraceOptions quality_trace;
  quality_trace.categories =
      obs::kTraceDeliver | obs::kTraceTx | obs::kTraceRx;
  obs::RunContext quality_context(quality_trace);
  (void)RunScenario(reference, &quality_context);
  obs::DisseminationForest forest;
  {
    std::istringstream lines(quality_context.trace.text());
    std::string line;
    obs::TraceEvent event;
    uint64_t line_number = 0;
    while (std::getline(lines, line)) {
      ++line_number;
      if (line.empty()) continue;
      Status status = obs::ParseTraceLine(line, &event);
      if (status.ok()) status = forest.Add(event);
      if (!status.ok()) {
        MADNET_LOG_ERROR("quality trace line %llu: %s",
                         static_cast<unsigned long long>(line_number),
                         status.ToString().c_str());
        std::exit(EXIT_FAILURE);
      }
    }
  }
  const obs::ForestStats quality = forest.Summarize();
  const uint32_t quality_max_hop = quality.hop_histogram.empty()
                                       ? 0
                                       : quality.hop_histogram.rbegin()->first;
  std::printf("\nDissemination quality (1 observed run, %d peers):\n",
              reference.num_peers);
  std::printf("  deliveries        %llu (max hop %u)\n",
              static_cast<unsigned long long>(quality.deliveries),
              quality_max_hop);
  std::printf("  delivery latency  p50 %.3f s  p99 %.3f s  mean %.3f s\n",
              quality.latency_p50, quality.latency_p99, quality.latency_mean);
  std::printf("  redundancy        %.2f ad-carrying frames per delivery\n",
              quality.redundancy_ratio);

  // --- 3. Sweep engine, serial vs parallel. ---
  std::vector<Method> methods = {Method::kFlooding, Method::kGossip,
                                 Method::kOptimized};
  std::vector<int> sizes = {100, 300, 600, 1000};
  if (env.fast) sizes = {100, 300};
  // --jobs / MADNET_JOBS still wins if given; otherwise use the hardware.
  const int parallel_jobs =
      env.jobs > 1 ? env.jobs : exec::ThreadPool::HardwareConcurrency();

  const SweepResult serial = RunSweep(methods, sizes, env.reps, 1);
  const SweepResult parallel =
      RunSweep(methods, sizes, env.reps, parallel_jobs);
  const int hardware_threads = exec::ThreadPool::HardwareConcurrency();
  // On a machine with fewer hardware threads than workers the "speedup" is
  // dominated by oversubscription and scheduler noise, not by the engine;
  // report it as unavailable rather than publish a misleading ratio.
  const bool speedup_meaningful = hardware_threads >= parallel_jobs;
  const double speedup =
      parallel.wall_s > 0.0 ? serial.wall_s / parallel.wall_s : 0.0;

  std::printf("\nfig07-style sweep (%zu points, %d reps each):\n",
              serial.aggregates.size(), env.reps);
  std::printf("  serial            %.3f s\n", serial.wall_s);
  std::printf("  jobs=%-3d          %.3f s\n", parallel_jobs,
              parallel.wall_s);
  if (speedup_meaningful) {
    std::printf("  speedup           %.2fx (%d hardware threads)\n", speedup,
                hardware_threads);
  } else {
    std::printf(
        "  speedup           n/a (%d hardware threads < %d jobs — "
        "oversubscribed)\n",
        hardware_threads, parallel_jobs);
  }

  if (!SweepsIdentical(serial, parallel)) {
    MADNET_LOG_ERROR(
        "parallel sweep aggregates differ from serial — "
        "determinism contract broken");
    std::exit(EXIT_FAILURE);
  }
  std::printf("  determinism       serial == jobs=%d aggregates ✓\n",
              parallel_jobs);

  // --- 4. Metro scale (opt-in; see the EXPERIMENTS.md "Metro scale"
  // section). ---
  std::vector<MetroPoint> metro_points;
  ScenarioConfig metro_config;
  if (metro) {
    metro_config = MetroConfig(env.fast ? 20000 : 100000,
                               env.fast ? 20.0 : 40.0);
    std::printf("\nMetro scale (%d peers, %.0f m side, %.0f s simulated):\n",
                metro_config.num_peers, metro_config.area_size_m,
                metro_config.sim_time_s);
    metro_points.push_back(RunMetroPoint(metro_config));
    PrintMetroPoint(metro_points.back());
    if (!env.fast) {
      // Scale probe: ten times the population, the run that bytes per
      // peer and set-up cost per peer are read from.
      metro_points.push_back(
          RunMetroPoint(MetroConfig(1000000, metro_config.sim_time_s)));
      PrintMetroPoint(metro_points.back());
    }
  }

  if (env.csv_dir.empty()) return;
  JsonWriter json;
  json.BeginObject();
  // Provenance block: which code and configuration produced these numbers.
  obs::Manifest manifest;
  manifest.config_hash = obs::HashHex(scenario::SaveConfigText(reference));
  manifest.base_seed = reference.seed;
  manifest.replications = env.reps;
  manifest.jobs = parallel_jobs;
  manifest.wall_s = single_wall_s + serial.wall_s + parallel.wall_s;
  json.Key("manifest");
  manifest.WriteJson(&json);
  json.Key("single_run");
  json.BeginObject();
  json.Key("peers");
  json.Value(reference.num_peers);
  json.Key("runs");
  json.Value(single_runs);
  json.Key("wall_s");
  json.Value(single_wall_s);
  json.Key("events");
  json.Value(static_cast<uint64_t>(single.events_executed));
  json.Key("events_per_sec");
  json.Value(events_per_sec);
  json.Key("broadcasts");
  json.Value(static_cast<uint64_t>(single.Messages()));
  json.Key("broadcasts_per_sec");
  json.Value(broadcasts_per_sec);
  json.EndObject();
  json.Key("quality");
  json.BeginObject();
  json.Key("peers");
  json.Value(reference.num_peers);
  json.Key("deliveries");
  json.Value(quality.deliveries);
  json.Key("rx_frames");
  json.Value(quality.rx_frames);
  json.Key("delivery_latency_p50_s");
  json.Value(quality.latency_p50);
  json.Key("delivery_latency_p99_s");
  json.Value(quality.latency_p99);
  json.Key("delivery_latency_mean_s");
  json.Value(quality.latency_mean);
  json.Key("redundancy_ratio");
  json.Value(quality.redundancy_ratio);
  json.Key("max_hop");
  json.Value(static_cast<uint64_t>(quality_max_hop));
  json.EndObject();
  json.Key("sweep");
  json.BeginObject();
  json.Key("grid_points");
  json.Value(static_cast<uint64_t>(serial.aggregates.size()));
  json.Key("reps");
  json.Value(env.reps);
  json.Key("serial_wall_s");
  json.Value(serial.wall_s);
  json.Key("parallel_wall_s");
  json.Value(parallel.wall_s);
  json.Key("jobs");
  json.Value(parallel_jobs);
  json.Key("hardware_threads");
  json.Value(hardware_threads);
  json.Key("speedup");
  if (speedup_meaningful) {
    json.Value(speedup);
  } else {
    json.Null();
    json.Key("speedup_note");
    json.Value("hardware_threads < jobs: wall-clock ratio reflects "
               "oversubscription, not engine scaling");
  }
  json.Key("deterministic");
  json.Value(true);
  json.EndObject();
  if (!metro_points.empty()) {
    json.Key("metro");
    json.BeginObject();
    json.Key("peers");
    json.Value(metro_config.num_peers);
    json.Key("area_size_m");
    json.Value(metro_config.area_size_m);
    json.Key("sim_time_s");
    json.Value(metro_config.sim_time_s);
    json.Key("points");
    json.BeginArray();
    for (const MetroPoint& point : metro_points) {
      json.BeginObject();
      json.Key("peers");
      json.Value(point.peers);
      json.Key("setup_s");
      json.Value(point.setup_s);
      json.Key("wall_s");
      json.Value(point.wall_s);
      json.Key("sim_s_per_wall_s");
      json.Value(point.sim_s_per_wall_s());
      json.Key("broadcasts");
      json.Value(point.result.net.messages_sent);
      json.Key("wall_s_per_broadcast");
      json.Value(point.wall_s_per_broadcast());
      json.Key("events");
      json.Value(static_cast<uint64_t>(point.result.events_executed));
      json.Key("events_per_sec");
      json.Value(point.events_per_sec());
      json.Key("peak_rss_mb");
      json.Value(point.peak_rss_bytes / 1e6);
      json.Key("bytes_per_peer");
      json.Value(point.bytes_per_peer);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndObject();

  const std::string path = env.csv_dir + "/BENCH_throughput.json";
  std::ofstream out(path, std::ios::trunc);
  out << json.TakeString() << '\n';
  out.close();
  if (out.fail()) {
    MADNET_LOG_ERROR("cannot write %s", path.c_str());
    std::exit(EXIT_FAILURE);
  }
  std::printf("\nWrote %s\n", path.c_str());
}

}  // namespace
}  // namespace madnet

int main(int argc, char** argv) {
  const auto env = madnet::bench::BenchEnv::FromEnvironment(argc, argv);
  bool metro = std::getenv("MADNET_BENCH_METRO") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metro") == 0) metro = true;
  }
  madnet::bench::ObsGuard obs(env);
  madnet::Run(env, metro);
  return 0;
}
