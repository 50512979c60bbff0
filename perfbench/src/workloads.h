// The benchmark's four workloads and the passes that run them.
//
// A workload is a fixed batch of runs generated from the benchmark seed.
// One *pass* executes the whole batch once, in a closed loop: the next run
// starts only when the previous one has returned (fig07_sweep hands its
// grid points to exec::ParallelFor, so up to `jobs` points are in flight).
// A timed pass touches madnet only through its public entry points; a
// traced pass runs the same batch with spans and a per-simulated-second
// probe and gathers the exact per-layer counters.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/config.h"
#include "scenario/multi_ad.h"
#include "spans.h"

namespace perfbench {

enum class Kind {
  kSerial,       ///< Scenario per config, one after another.
  kSweep,        ///< ParallelFor over grid points, RunReplicated per point.
  kMarketplace,  ///< RunMultiAdScenario per config, one after another.
};

struct Workload {
  std::string name;
  Kind kind = Kind::kSerial;
  /// kSerial: one config per run. kSweep: one base config per grid point
  /// (RunReplicated uses seeds base.seed .. base.seed + reps - 1).
  std::vector<madnet::scenario::ScenarioConfig> configs;
  std::vector<madnet::scenario::MultiAdConfig> multi;  ///< kMarketplace.
  int reps = 1;  ///< Replications per grid point (kSweep).
  int jobs = 1;  ///< ParallelFor workers (kSweep).
  /// Every scenario one pass constructs, in order; constructing them all
  /// once is one setup_s sample. kMarketplace passes build their scenarios
  /// inside RunMultiAdScenario, so they are stood in for by Scenarios of
  /// the same base configs (peers, mobility, medium; no extra issuers).
  std::vector<madnet::scenario::ScenarioConfig> setup_configs;
  /// Config of the replays that need one representative scenario (twin
  /// mobility, spatial index, propagation inputs, program trace on/off).
  madnet::scenario::ScenarioConfig representative;
  int ad_count = 1;       ///< Distinct ads a peer's cache competes for.
  int cache_capacity = 10;  ///< Top-k cache size of the workload's peers.
  /// Reference-kernel samples a timed pass takes before its first run and
  /// after each run (kSweep: before and after the whole grid), so that the
  /// samples keep pace with the host's drift at about 5% of a pass.
  int ref_reps = 1;
  /// kSerial runs long enough to need samples inside them also take one
  /// every `ref_period_s` simulated seconds; 0 = none.
  double ref_period_s = 0.0;
};

/// Builds a workload (table2, metro, fig07_sweep or marketplace) from its
/// name and the benchmark seed. Returns false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// The paper's Section IV metrics of one run (kSerial, kMarketplace) or
/// one grid point (kSweep, averaged over its replications as
/// exec::Aggregate does). `deliveries` is negative when the pass could
/// not observe it (a timed sweep pass only sees exec::Aggregate).
struct PaperRun {
  std::string id;
  double delivery_rate_pct = 0.0;
  double mean_delivery_time_s = 0.0;
  double messages = 0.0;
  double deliveries = -1.0;
};

/// Wall-clock interval of one grid point (or run) on one worker, in
/// seconds since the start of its pass.
struct PointTiming {
  int worker = 0;
  double start_s = 0.0;
  double end_s = 0.0;
};

struct PassResult {
  double wall_s = 0.0;  ///< Excludes the reference-kernel samples.
  double sim_s = 0.0;  ///< Simulated seconds completed in the pass.
  std::vector<double> ref_s;  ///< Reference-kernel samples of the pass.
  std::vector<PaperRun> runs;
  std::vector<PointTiming> points;
};

/// Exact counters gathered by a traced pass. Totals over the pass.
struct LayerCounts {
  uint64_t events = 0;  ///< Model events; probe firings excluded.
  uint64_t probe_fires = 0;
  uint64_t pending_peak = 0;
  double window_wall_s = 0.0;       ///< Wall time inside sim.window spans.
  double idle_window_wall_s = 0.0;  ///< ... of windows with no broadcast.
  uint64_t broadcasts = 0;
  uint64_t deliveries = 0;
  uint64_t arena_frames_peak = 0;
  uint64_t dropped_collision = 0;
  uint64_t mac_defers = 0;
  uint64_t dropped_mac_busy = 0;
  uint64_t legs = 0;
};

/// Seconds one run of the reference kernel takes now. The kernel is the
/// benchmark's own fixed code, independent of madnet: it sorts a fixed
/// pseudo-random array and folds it into a hash map. Its time follows the
/// host's momentary speed on branchy, cache-missing integer code like the
/// simulator's, so a pass's wall time over the kernel's time cancels most
/// of the machine-wide drift of a shared host.
double ReferenceKernelSeconds();

/// One untraced pass. `with_reference` takes reference-kernel samples in
/// it (see Workload::ref_reps and ref_period_s).
PassResult RunTimedPass(const Workload& workload, bool with_reference);

/// One traced pass: the same runs with spans under `root` and counters.
/// kMarketplace runs hide their simulator and mobility models, so the pass
/// leaves the sim.* counts and `legs` of `counts` at zero for them.
PassResult RunTracedPass(const Workload& workload, SpanRecorder* spans,
                         int root, LayerCounts* counts);

/// Constructs and runs one Scenario of `config` under the probe, with its
/// spans under `parent`, and returns its counters. kMarketplace takes its
/// sim.* counts and `legs` from such a run of its first base config.
LayerCounts ProbeScenario(const madnet::scenario::ScenarioConfig& config,
                          SpanRecorder* spans, int parent);

/// Constructs every setup config once; returns the wall time spent inside
/// the Scenario constructors.
double TimeSetup(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
