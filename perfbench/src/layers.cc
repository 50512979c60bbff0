#include "layers.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ad_cache.h"
#include "core/advertisement.h"
#include "core/propagation.h"
#include "net/spatial_index.h"
#include "obs/run_context.h"
#include "obs/trace.h"
#include "obs/trace_query.h"
#include "obs/trace_reader.h"
#include "scenario/scenario.h"
#include "sim/event_queue.h"
#include "sketch/fm_sketch.h"
#include "stats/delivery.h"
#include "util/geometry.h"
#include "util/random.h"

namespace perfbench {
namespace {

using madnet::Rng;
using madnet::Vec2;
using madnet::net::NodeId;
using madnet::scenario::Scenario;
using madnet::scenario::ScenarioConfig;

/// Keeps replay results observable so the optimizer cannot drop the calls.
volatile double g_sink = 0.0;

/// Positions of every node at one reindex tick.
struct Snapshot {
  double t = 0.0;
  std::vector<NodeId> ids;
  std::vector<double> xs;
  std::vector<double> ys;
};

// Snapshots kept for the index and propagation replays, evenly spread
// over the run.
constexpr int kSnapshots = 8;

double NsPer(double seconds, uint64_t ops) {
  return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
}

void Put(LayerMetrics* out, const std::string& name, double value,
         const std::string& unit, uint64_t samples) {
  (*out)[name] = LayerMetric{value, unit, samples};
}

/// mobility: PositionAt for every node at every reindex tick of a twin of
/// the representative run.
std::vector<Snapshot> MobilityReplay(Scenario* twin, SpanRecorder* spans,
                                     int root, LayerMetrics* out) {
  const ScenarioConfig& config = twin->config();
  const double interval = config.medium.reindex_interval_s;
  const int nodes = twin->num_peers() + 1;
  const auto ticks =
      static_cast<int64_t>(std::floor(config.sim_time_s / interval)) + 1;
  const int64_t snapshot_every = std::max<int64_t>(1, ticks / kSnapshots);
  std::vector<Snapshot> snapshots;
  double sink = 0.0;
  double seconds = 0.0;
  const int span = spans->Begin("replay.mobility", root);
  for (int64_t tick = 0; tick < ticks; ++tick) {
    const double t = static_cast<double>(tick) * interval;
    const bool keep = tick % snapshot_every == snapshot_every / 2 &&
                      static_cast<int>(snapshots.size()) < kSnapshots;
    if (keep) {
      snapshots.emplace_back();
      snapshots.back().t = t;
      snapshots.back().ids.reserve(static_cast<size_t>(nodes));
      snapshots.back().xs.reserve(static_cast<size_t>(nodes));
      snapshots.back().ys.reserve(static_cast<size_t>(nodes));
    }
    const auto start = Clock::now();
    for (int id = 0; id < nodes; ++id) {
      const Vec2 p = twin->mobility(static_cast<NodeId>(id))->PositionAt(t);
      sink += p.x;
      if (keep) {
        snapshots.back().ids.push_back(static_cast<NodeId>(id));
        snapshots.back().xs.push_back(p.x);
        snapshots.back().ys.push_back(p.y);
      }
    }
    seconds += SecondsSince(start);
  }
  spans->End(span);
  g_sink = sink;
  const uint64_t calls = static_cast<uint64_t>(ticks) * nodes;
  Put(out, "mobility.position_calls", static_cast<double>(calls), "count", 1);
  Put(out, "mobility.ns_per_position", NsPer(seconds, calls), "ns", calls);
  return snapshots;
}

/// net: SpatialIndex::Rebuild and QueryRange at the snapshot positions,
/// one unit-disk query per node.
void IndexReplay(const std::vector<Snapshot>& snapshots, double range_m,
                 SpanRecorder* spans, int root, LayerMetrics* out) {
  const int span = spans->Begin("replay.net_index", root);
  madnet::net::SpatialIndex index(range_m);
  constexpr int kRebuildsPerSnapshot = 5;
  double rebuild_s = 0.0;
  double query_s = 0.0;
  uint64_t rebuilds = 0;
  uint64_t queries = 0;
  uint64_t hits = 0;
  uint64_t candidates = 0;
  std::vector<NodeId> found;
  std::vector<NodeId> box_ids;
  std::vector<double> box_xs;
  std::vector<double> box_ys;
  for (const Snapshot& snap : snapshots) {
    for (int r = 0; r < kRebuildsPerSnapshot; ++r) {
      const auto start = Clock::now();
      index.Rebuild(snap.ids, snap.xs, snap.ys);
      rebuild_s += SecondsSince(start);
      ++rebuilds;
    }
    const auto start = Clock::now();
    for (size_t i = 0; i < snap.ids.size(); ++i) {
      found.clear();
      index.QueryRange({snap.xs[i], snap.ys[i]}, range_m, &found);
      hits += found.size();
    }
    query_s += SecondsSince(start);
    queries += snap.ids.size();
    for (size_t i = 0; i < snap.ids.size(); ++i) {
      box_ids.clear();
      box_xs.clear();
      box_ys.clear();
      index.CollectBox(index.BoxFor({snap.xs[i], snap.ys[i]}, range_m),
                       &box_ids, &box_xs, &box_ys);
      candidates += box_ids.size();
    }
  }
  spans->End(span);
  Put(out, "net.index_rebuild_ns", NsPer(rebuild_s, rebuilds), "ns", rebuilds);
  Put(out, "net.index_query_ns", NsPer(query_s, queries), "ns", queries);
  Put(out, "net.index_candidates_per_query",
      queries == 0 ? 0.0
                   : static_cast<double>(candidates) /
                         static_cast<double>(queries),
      "count", queries);
  Put(out, "net.index_hit_ratio",
      candidates == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(candidates),
      "ratio", candidates);
}

/// core: Formulas 1-3 and the Optimization-2 postpone interval at the
/// workload's distances from the issue location and ad ages.
void PropagationReplay(const std::vector<Snapshot>& snapshots,
                       const ScenarioConfig& config, double budget_s,
                       SpanRecorder* spans, int root, LayerMetrics* out) {
  const madnet::core::PropagationParams& params = config.gossip.propagation;
  const double range = config.medium.range_m;
  const double dis = config.gossip.dis_m;
  struct Input {
    double distance;
    double age;
    double overlap;
    double angle;
  };
  constexpr size_t kMaxInputs = 100000;
  std::vector<Input> inputs;
  for (const Snapshot& snap : snapshots) {
    const size_t stride =
        std::max<size_t>(1, snap.ids.size() * snapshots.size() / kMaxInputs);
    for (size_t i = 0; i < snap.ids.size(); i += stride) {
      const Vec2 p{snap.xs[i], snap.ys[i]};
      const double d = madnet::Distance(p, config.issue_location);
      const Vec2 neighbour{snap.xs[(i + 1) % snap.ids.size()],
                           snap.ys[(i + 1) % snap.ids.size()]};
      inputs.push_back(
          {d, std::max(0.0, snap.t - config.issue_time_s),
           madnet::TransmissionOverlapFraction(
               range, std::min(range, madnet::Distance(p, neighbour))),
           madnet::ApproachAngle(neighbour - p, p, config.issue_location)});
    }
  }
  const int span = spans->Begin("replay.core_propagation", root);
  double sink = 0.0;
  uint64_t calls = 0;
  const auto start = Clock::now();
  do {
    for (const Input& in : inputs) {
      const double radius = madnet::core::RadiusAtAge(
          config.initial_radius_m, config.initial_duration_s, in.age, params);
      sink += madnet::core::ForwardingProbability(in.distance, radius, params);
      sink += madnet::core::AnnulusForwardingProbability(in.distance, radius,
                                                         dis, params);
      sink += madnet::core::PostponeInterval(config.gossip.round_time_s,
                                             in.overlap, in.angle);
    }
    calls += 4 * inputs.size();
  } while (calls < 2000000 && SecondsSince(start) < budget_s);
  const double seconds = SecondsSince(start);
  spans->End(span);
  g_sink = sink;
  Put(out, "core.propagation_ns", NsPer(seconds, calls), "ns", calls);
}

/// core: AdCache inserts and finds at the workload's k and ad count, with
/// probabilities drawn per insert, so a full cache evicts or rejects as
/// Algorithm 1 says.
void CacheReplay(const Workload& workload, uint64_t seed, SpanRecorder* spans,
                 int root, LayerMetrics* out) {
  const size_t ads = static_cast<size_t>(workload.ad_count);
  const size_t k = static_cast<size_t>(workload.cache_capacity);
  const size_t rounds = std::max<size_t>(1, 24000 / ads);
  Rng rng(seed ^ 0xCAC4Eu);
  std::vector<madnet::core::CacheEntry> entries;
  entries.reserve(rounds * ads);
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t a = 0; a < ads; ++a) {
      madnet::core::CacheEntry entry;
      entry.ad.id.issuer = static_cast<NodeId>(a);
      entry.ad.id.sequence = 1;
      entry.ad.content = workload.representative.content;
      entry.probability = rng.NextDouble();
      entries.push_back(std::move(entry));
    }
    // Arrival order differs per round, as ads reach peers in any order.
    for (size_t a = ads; a > 1; --a) {
      std::swap(entries[entries.size() - a],
                entries[entries.size() - 1 - rng.NextUint64(a)]);
    }
  }
  std::vector<madnet::core::AdCache> caches(rounds, madnet::core::AdCache(k));
  const int span = spans->Begin("replay.core_cache", root);
  uint64_t evictions = 0;
  uint64_t inserted = 0;
  auto start = Clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    madnet::core::AdCache& cache = caches[round];
    for (size_t a = 0; a < ads; ++a) {
      const bool full = cache.Full();
      madnet::sim::EventId evicted_timer = madnet::sim::kInvalidEventId;
      if (cache.Insert(std::move(entries[round * ads + a]), &evicted_timer) !=
          nullptr) {
        ++inserted;
        evictions += full ? 1 : 0;
      }
    }
  }
  const double insert_s = SecondsSince(start);
  const uint64_t inserts = rounds * ads;
  double sink = 0.0;
  uint64_t finds = 0;
  start = Clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    for (size_t a = 0; a < ads; ++a) {
      const madnet::core::CacheEntry* hit =
          caches[round].Find((static_cast<uint64_t>(a) << 32) | 1u);
      sink += hit == nullptr ? 0.0 : hit->probability;
      ++finds;
    }
  }
  const double find_s = SecondsSince(start);
  spans->End(span);
  g_sink = sink;
  Put(out, "core.cache_insert_ns", NsPer(insert_s, inserts), "ns", inserts);
  Put(out, "core.cache_find_ns", NsPer(find_s, finds), "ns", finds);
  Put(out, "core.cache_evictions", static_cast<double>(evictions), "count", 1);
}

/// sketch: FmSketchArray AddUser / Merge / Estimate over the workload's
/// peer ids.
void SketchReplay(int peers, SpanRecorder* spans, int root,
                  LayerMetrics* out) {
  const int span = spans->Begin("replay.sketch", root);
  const int arrays = std::max(8, 200000 / std::max(1, peers));
  std::vector<madnet::sketch::FmSketchArray> sketches(
      static_cast<size_t>(arrays));
  auto start = Clock::now();
  for (int a = 0; a < arrays; ++a) {
    for (int user = 1; user <= peers; ++user) {
      sketches[static_cast<size_t>(a)].AddUser(
          static_cast<uint64_t>(user) * 7919u + static_cast<uint64_t>(a));
    }
  }
  const double add_s = SecondsSince(start);
  const uint64_t adds = static_cast<uint64_t>(arrays) * peers;
  madnet::sketch::FmSketchArray merged;
  start = Clock::now();
  for (int a = 0; a < arrays; ++a) {
    if (!merged.Merge(sketches[static_cast<size_t>(a)]).ok()) break;
  }
  const double merge_s = SecondsSince(start);
  double sink = 0.0;
  start = Clock::now();
  for (int a = 0; a < arrays; ++a) {
    sink += sketches[static_cast<size_t>(a)].Estimate();
  }
  const double estimate_s = SecondsSince(start);
  spans->End(span);
  g_sink = sink + merged.Estimate();
  Put(out, "sketch.add_ns", NsPer(add_s, adds), "ns", adds);
  Put(out, "sketch.merge_ns", NsPer(merge_s, static_cast<uint64_t>(arrays)),
      "ns", static_cast<uint64_t>(arrays));
  Put(out, "sketch.estimate_ns",
      NsPer(estimate_s, static_cast<uint64_t>(arrays)), "ns",
      static_cast<uint64_t>(arrays));
}

/// sim: EventQueue Push+Pop in the hold model at the workload's pending
/// depth: pop the earliest event, push one a round time or less later.
void QueueReplay(uint64_t depth, uint64_t seed, SpanRecorder* spans, int root,
                 LayerMetrics* out) {
  depth = std::max<uint64_t>(depth, 1);
  madnet::sim::EventQueue queue;
  Rng rng(seed ^ 0x9E3779B9u);
  for (uint64_t i = 0; i < depth; ++i) queue.Push(rng.Uniform(0.0, 5.0), [] {});
  const uint64_t holds = std::max<uint64_t>(1000000, 2 * depth);
  const int span = spans->Begin("replay.sim_queue", root);
  const auto start = Clock::now();
  for (uint64_t i = 0; i < holds; ++i) {
    const auto [when, callback] = queue.Pop();
    queue.Push(when + rng.Uniform(0.0, 5.0), [] {});
  }
  const double seconds = SecondsSince(start);
  spans->End(span);
  Put(out, "sim.queue_ns_per_op", NsPer(seconds, 2 * holds), "ns", 2 * holds);
}

/// stats: the end-of-run aggregation, AreaTracker::Observe over every peer
/// + ComputeDeliveryReport, once per ad of a run, on the twin after the
/// mobility replay has generated its legs up to the horizon. Reports the
/// median over repetitions of the seconds one run's aggregation takes.
void AggregateReplay(Scenario* twin, int ads, double budget_s,
                     SpanRecorder* spans, int root, LayerMetrics* out) {
  const ScenarioConfig& config = twin->config();
  const int span = spans->Begin("replay.stats_aggregate", root);
  std::vector<double> samples;
  const auto start = Clock::now();
  while (samples.size() < 3 ||
         (samples.size() < 15 && SecondsSince(start) < budget_s)) {
    const auto sample_start = Clock::now();
    for (int ad = 0; ad < ads; ++ad) {
      madnet::stats::AreaTracker tracker(
          madnet::Circle{config.issue_location, config.initial_radius_m},
          config.issue_time_s,
          std::min(config.issue_time_s + config.initial_duration_s,
                   config.sim_time_s));
      for (int id = 1; id <= twin->num_peers(); ++id) {
        tracker.Observe(static_cast<NodeId>(id),
                        twin->mobility(static_cast<NodeId>(id)));
      }
      g_sink = static_cast<double>(madnet::stats::ComputeDeliveryReport(
                                       tracker, *twin->delivery_log(), 1)
                                       .peers_passed);
    }
    samples.push_back(SecondsSince(sample_start));
  }
  spans->End(span);
  std::sort(samples.begin(), samples.end());
  Put(out, "stats.aggregate_s", samples[samples.size() / 2], "s",
      samples.size());
}

/// obs: the representative run with the program's trace off and on,
/// interleaved, then the trace parsed back into a provenance forest.
void ObsReplay(const ScenarioConfig& config, double budget_s,
               SpanRecorder* spans, int root, LayerMetrics* out) {
  // Every category but per-event dispatch records: the provenance set a
  // user turns on to ask how an ad spread.
  madnet::obs::TraceOptions options;
  options.categories = madnet::obs::kTraceAll & ~madnet::obs::kTraceEvent;
  const int span = spans->Begin("replay.obs", root);
  std::vector<double> ratios;
  std::string text;
  uint64_t records = 0;
  const auto start = Clock::now();
  for (int pair = 0;; ++pair) {
    double off_s = 0.0;
    double on_s = 0.0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool on = (leg == 0) == (pair % 2 == 1);  // Alternate who leads.
      const auto run_start = Clock::now();
      if (on) {
        madnet::obs::RunContext context(options);
        Scenario scenario(config, &context);
        scenario.Run();
        on_s = SecondsSince(run_start);
        records = context.trace.records_kept();
        text = context.trace.text();
      } else {
        Scenario scenario(config);
        scenario.Run();
        off_s = SecondsSince(run_start);
      }
    }
    ratios.push_back(on_s / off_s);
    const double elapsed = SecondsSince(start);
    if (ratios.size() >= 15 ||
        elapsed * static_cast<double>(pair + 2) / (pair + 1) > budget_s) {
      break;
    }
  }
  std::sort(ratios.begin(), ratios.end());

  uint64_t parsed = 0;
  const auto parse_start = Clock::now();
  madnet::obs::DisseminationForest forest;
  madnet::obs::TraceEvent event;
  std::string_view rest(text);
  while (!rest.empty()) {
    const size_t newline = rest.find('\n');
    const std::string_view line = rest.substr(0, newline);
    rest = newline == std::string_view::npos ? std::string_view()
                                             : rest.substr(newline + 1);
    if (line.empty()) continue;
    if (madnet::obs::ParseTraceLine(line, &event).ok() &&
        forest.Add(event).ok()) {
      ++parsed;
    }
  }
  const double parse_s = SecondsSince(parse_start);
  spans->End(span);
  Put(out, "obs.trace_records", static_cast<double>(records), "count", 1);
  Put(out, "obs.trace_bytes", static_cast<double>(text.size()), "bytes", 1);
  Put(out, "obs.trace_overhead_ratio", ratios[ratios.size() / 2], "ratio",
      ratios.size());
  Put(out, "obs.parse_ns_per_record", NsPer(parse_s, parsed), "ns", parsed);
}

}  // namespace

void RunReplays(const Workload& workload, uint64_t seed, uint64_t pending_peak,
                double budget_s, SpanRecorder* spans, int root,
                LayerMetrics* out) {
  const ScenarioConfig& config = workload.representative;
  const auto start = Clock::now();
  auto remaining = [&] {
    return std::max(0.5, budget_s - SecondsSince(start));
  };
  Scenario twin(config);
  const std::vector<Snapshot> snapshots =
      MobilityReplay(&twin, spans, root, out);
  IndexReplay(snapshots, config.medium.range_m, spans, root, out);
  PropagationReplay(snapshots, config, remaining() / 4, spans, root, out);
  CacheReplay(workload, seed, spans, root, out);
  SketchReplay(config.num_peers, spans, root, out);
  QueueReplay(pending_peak > 0 ? pending_peak
                               : static_cast<uint64_t>(config.num_peers) + 1,
              seed, spans, root, out);
  AggregateReplay(&twin, workload.ad_count, remaining() / 8, spans, root,
                  out);
  ObsReplay(config, remaining(), spans, root, out);
}

}  // namespace perfbench
