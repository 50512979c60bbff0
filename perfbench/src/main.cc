// madnet_perfbench: runs one benchmark workload and prints one JSON object
// with the raw samples and every pass's paper metrics (perfbench/run.py
// reduces the samples to medians, checks the paper metrics and prints the
// result line).
//
//   madnet_perfbench --workload table2 --seed 1 --seconds 15 --trace 0
//
// --trace 0 times untraced passes back to back until --seconds is used up
// (at least kMinPasses), each preceded by one set-up sample. --trace 1 runs
// two untraced passes, then the same pass traced (spans plus a
// per-simulated-second probe), then the per-layer replays; the span tree
// goes to --spans-out.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinPasses = 3;
// Set-up is sampled before each timed pass until this much set-up time is
// measured (marketplace's ten 1000-peer Scenarios take about 3 ms).
constexpr double kSetupSampleS = 0.02;
constexpr int kMaxSetupSamples = 10;
// The reference kernel's time on the reference host, about. setup_s is the
// set-up time scaled to this kernel speed, so it reads as seconds there.
constexpr double kRefNominalS = 0.005;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  int trace = 0;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "madnet_perfbench: %s\nusage: madnet_perfbench --workload "
               "<name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans-out <path>]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] - '0';
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

/// A "VmHWM:"/"VmRSS:" line of /proc/self/status, in bytes.
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

/// Resets VmHWM to the current RSS, so the next read gives the peak since
/// now. Where the kernel refuses, VmHWM stays the process-wide peak.
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- JSON output ----------------------------------------------------------

void PrintNumber(double value) {
  if (std::isfinite(value)) {
    std::printf("%.17g", value);
  } else {
    std::printf("null");
  }
}

void PrintArray(const std::vector<double>& values) {
  std::printf("[");
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) std::printf(",");
    PrintNumber(values[i]);
  }
  std::printf("]");
}

void PrintRuns(const std::vector<PaperRun>& runs) {
  std::printf("[");
  for (size_t i = 0; i < runs.size(); ++i) {
    const PaperRun& run = runs[i];
    std::printf("%s{\"id\":\"%s\",\"delivery_rate_pct\":", i > 0 ? "," : "",
                run.id.c_str());
    PrintNumber(run.delivery_rate_pct);
    std::printf(",\"mean_delivery_time_s\":");
    PrintNumber(run.mean_delivery_time_s);
    std::printf(",\"messages\":");
    PrintNumber(run.messages);
    std::printf(",\"deliveries\":");
    if (run.deliveries < 0.0) {
      std::printf("null");
    } else {
      PrintNumber(run.deliveries);
    }
    std::printf("}");
  }
  std::printf("]");
}

/// Every pass's runs, the reference pass first.
void PrintPasses(const std::vector<std::vector<PaperRun>>& passes) {
  std::printf("[");
  for (size_t i = 0; i < passes.size(); ++i) {
    if (i > 0) std::printf(",");
    PrintRuns(passes[i]);
  }
  std::printf("]");
}

/// exec.*: per-point wall times from a pass's ParallelFor lambda (or per
/// run for the serial workloads, which use one worker).
void ExecMetrics(const PassResult& pass, LayerMetrics* out) {
  std::vector<double> durations;
  std::map<int, double> last_end;
  double busy = 0.0;
  for (const PointTiming& p : pass.points) {
    durations.push_back(p.end_s - p.start_s);
    busy += p.end_s - p.start_s;
    last_end[p.worker] = std::max(last_end[p.worker], p.end_s);
  }
  double first_idle = pass.wall_s;
  for (const auto& [worker, end] : last_end) first_idle = std::min(first_idle, end);
  const auto n = static_cast<uint64_t>(durations.size());
  const double workers = static_cast<double>(std::max<size_t>(1, last_end.size()));
  (*out)["exec.point_s_p50"] = {Median(durations), "s", n};
  (*out)["exec.point_s_max"] = {
      durations.empty() ? 0.0
                        : *std::max_element(durations.begin(), durations.end()),
      "s", n};
  (*out)["exec.worker_busy_ratio"] = {busy / (workers * pass.wall_s), "ratio",
                                      n};
  (*out)["exec.tail_idle_s"] = {pass.wall_s - first_idle, "s", n};
}

int RunTimed(const Args& args, const Workload& workload) {
  // Per pass: raw wall time, the reference kernel's median time, the wall
  // time in units of it, simulated seconds per wall second and per unit,
  // and the peak RSS of its set-up and run. Per set-up sample: the wall
  // time and the host-corrected setup_s (see kRefNominalS).
  std::map<std::string, std::vector<double>> samples;
  std::vector<std::vector<PaperRun>> passes;
  const auto start = Clock::now();
  double last_s = 0.0;
  while (passes.size() < static_cast<size_t>(kMinPasses) ||
         SecondsSince(start) + last_s <= args.seconds) {
    const double pass_start = SecondsSince(start);
    ResetPeakRss();
    // Set-up samples before every pass, so set-up and passes see the same
    // stretches of host load; small set-ups are sampled several times.
    std::vector<double> setup_s;
    double setup_total_s = 0.0;
    while (static_cast<int>(setup_s.size()) < kMaxSetupSamples &&
           setup_total_s < kSetupSampleS) {
      setup_s.push_back(TimeSetup(workload));
      setup_total_s += setup_s.back();
    }
    PassResult pass = RunTimedPass(workload, true);
    const double ref_s = Median(pass.ref_s);
    for (const double seconds : setup_s) {
      samples["setup_wall_s"].push_back(seconds);
      samples["setup_s"].push_back(seconds * kRefNominalS / ref_s);
    }
    const double wall_ref = pass.wall_s / ref_s;
    samples["wall_s"].push_back(pass.wall_s);
    samples["ref_kernel_s"].push_back(ref_s);
    samples["wall_ref"].push_back(wall_ref);
    samples["sim_s_per_wall_s"].push_back(pass.sim_s / pass.wall_s);
    samples["sim_s_per_ref"].push_back(pass.sim_s / wall_ref);
    samples["peak_rss_mb"].push_back(ProcStatusBytes("VmHWM:") /
                                     (1024.0 * 1024.0));
    passes.push_back(std::move(pass.runs));
    last_s = SecondsSince(start) - pass_start;
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"trace\":0,\"passes\":",
              workload.name.c_str(), args.seed);
  PrintPasses(passes);
  std::printf(",\"samples\":{");
  bool first = true;
  for (const auto& [name, values] : samples) {
    std::printf("%s\"%s\":", first ? "" : ",", name.c_str());
    PrintArray(values);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

int RunTraced(const Args& args, const Workload& workload) {
  const auto start = Clock::now();
  const double rss_before = ProcStatusBytes("VmRSS:");
  // The first pass of a process also pays for page faults and heap growth,
  // so it sizes memory but is not the untraced reference: the warm pass
  // right before the traced one is.
  const PassResult cold = RunTimedPass(workload, false);
  const double hwm_after = ProcStatusBytes("VmHWM:");
  const PassResult untraced = RunTimedPass(workload, false);

  SpanRecorder spans;
  const int root = spans.Begin("workload", -1);
  LayerCounts counts;
  const PassResult traced = RunTracedPass(workload, &spans, root, &counts);
  if (workload.kind == Kind::kMarketplace) {
    // RunMultiAdScenario hides its simulator and mobility models, so these
    // counts come from a probed single-ad Scenario of the first run's base
    // config: same peers, mobility and medium, one ad instead of twelve.
    const int span = spans.Begin("replay.sim_stand_in", root);
    const LayerCounts stand_in =
        ProbeScenario(workload.representative, &spans, span);
    spans.End(span);
    counts.events = stand_in.events;
    counts.probe_fires = stand_in.probe_fires;
    counts.pending_peak = stand_in.pending_peak;
    counts.window_wall_s = stand_in.window_wall_s;
    counts.idle_window_wall_s = stand_in.idle_window_wall_s;
    counts.legs = stand_in.legs;
  }

  LayerMetrics layers;
  ExecMetrics(untraced, &layers);

  std::vector<double> setup_s;
  const int setup_span = spans.Begin("replay.scenario_setup", root);
  for (int i = 0; i < 3; ++i) setup_s.push_back(TimeSetup(workload));
  spans.End(setup_span);
  double setup_peers = 0.0;
  for (const auto& config : workload.setup_configs) {
    setup_peers += config.num_peers;
  }
  int max_peers = 0;
  for (const auto& config : workload.configs) {
    max_peers = std::max(max_peers, config.num_peers);
  }
  for (const auto& config : workload.multi) {
    max_peers = std::max(max_peers, config.base.num_peers);
  }
  const int in_flight = workload.kind == Kind::kSweep ? workload.jobs : 1;
  layers["scenario.setup_s_per_peer"] = {Median(setup_s) / setup_peers,
                                         "s/peer", setup_s.size()};
  layers["scenario.rss_bytes_per_peer"] = {
      std::max(0.0, hwm_after - rss_before) / (max_peers * in_flight),
      "bytes/peer", 1};

  RunReplays(workload, args.seed, counts.pending_peak,
             std::max(1.0, args.seconds - SecondsSince(start)), &spans, root,
             &layers);
  spans.End(root);

  layers["sim.events"] = {static_cast<double>(counts.events), "count", 1};
  layers["sim.ns_per_event"] = {
      counts.events == 0 ? 0.0
                         : counts.window_wall_s * 1e9 /
                               static_cast<double>(counts.events),
      "ns", counts.events};
  layers["sim.pending_peak"] = {static_cast<double>(counts.pending_peak),
                                "count", counts.probe_fires};
  layers["sim.idle_window_wall_share"] = {
      counts.window_wall_s > 0.0
          ? counts.idle_window_wall_s / counts.window_wall_s
          : 0.0,
      "ratio", counts.probe_fires};
  layers["mobility.legs"] = {static_cast<double>(counts.legs), "count", 1};
  layers["net.broadcasts"] = {static_cast<double>(counts.broadcasts), "count",
                              1};
  layers["net.deliveries"] = {static_cast<double>(counts.deliveries), "count",
                              1};
  layers["net.deliveries_per_broadcast"] = {
      counts.broadcasts == 0 ? 0.0
                             : static_cast<double>(counts.deliveries) /
                                   static_cast<double>(counts.broadcasts),
      "ratio", counts.broadcasts};
  layers["net.arena_frames_peak"] = {
      static_cast<double>(counts.arena_frames_peak), "count", 1};
  layers["net.dropped_collision"] = {
      static_cast<double>(counts.dropped_collision), "count", 1};
  layers["net.mac_defers"] = {static_cast<double>(counts.mac_defers), "count",
                              1};
  layers["net.dropped_mac_busy"] = {
      static_cast<double>(counts.dropped_mac_busy), "count", 1};
  layers["obs.traced_pass_overhead_s"] = {traced.wall_s - untraced.wall_s, "s",
                                          1};

  const std::vector<Span> all = spans.Snapshot();
  bool spans_written = false;
  if (!args.spans_out.empty()) {
    spans_written = WriteSpansJsonl(all, args.spans_out);
    if (!spans_written) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.spans_out.c_str());
    }
  }

  // The traced pass is the reference: both untraced passes must reproduce
  // its paper metrics.
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"trace\":1,\"passes\":",
              workload.name.c_str(), args.seed);
  PrintPasses({traced.runs, cold.runs, untraced.runs});
  std::printf(",\"untraced_wall_s\":");
  PrintNumber(untraced.wall_s);
  std::printf(",\"traced_wall_s\":");
  PrintNumber(traced.wall_s);
  std::printf(",\"spans\":%zu,\"spans_written\":%s,\"layers\":{", all.size(),
              spans_written ? "true" : "false");
  bool first = true;
  for (const auto& [name, metric] : layers) {
    std::printf("%s\"%s\":{\"value\":", first ? "" : ",", name.c_str());
    PrintNumber(metric.value);
    std::printf(",\"unit\":\"%s\",\"samples\":%" PRIu64 "}",
                metric.unit.c_str(), metric.samples);
    first = false;
  }
  std::printf("},\"span_totals\":{");
  first = true;
  for (const auto& [name, totals] : TotalsByName(all)) {
    std::printf("%s\"%s\":{\"count\":%zu,\"total_s\":", first ? "" : ",",
                name.c_str(), totals.count);
    PrintNumber(totals.total_s);
    std::printf(",\"self_s\":");
    PrintNumber(totals.self_s);
    std::printf("}");
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::ParseArgs(argc, argv);
  perfbench::Workload workload;
  if (!perfbench::MakeWorkload(args.workload, args.seed, &workload)) {
    std::fprintf(stderr, "madnet_perfbench: cannot build workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  return args.trace == 0 ? perfbench::RunTimed(args, workload)
                         : perfbench::RunTraced(args, workload);
}
