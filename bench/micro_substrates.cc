// Copyright (c) 2026 madnet authors. All rights reserved.
//
// google-benchmark microbenchmarks for the hot substrate operations: event
// queue churn, spatial index rebuild/query, FM sketch updates, the
// propagation formulas, cache insertion, and a whole-scenario throughput
// number (simulated seconds per wall second).

#include <benchmark/benchmark.h>

#include "core/ad_cache.h"
#include "core/propagation.h"
#include "net/spatial_index.h"
#include "scenario/scenario.h"
#include "sim/event_queue.h"
#include "sketch/fm_sketch.h"
#include "util/random.h"

namespace madnet {
namespace {

void BM_EventQueuePushPop(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < depth; ++i) {
      queue.Push(rng.NextDouble() * 1000.0, [] {});
    }
    while (!queue.Empty()) benchmark::DoNotOptimize(queue.Pop().first);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    sim::EventQueue queue;
    std::vector<sim::EventId> ids;
    for (int i = 0; i < 1000; ++i) {
      ids.push_back(queue.Push(rng.NextDouble() * 1000.0, [] {}));
    }
    for (size_t i = 0; i < ids.size(); i += 2) queue.Cancel(ids[i]);
    while (!queue.Empty()) benchmark::DoNotOptimize(queue.Pop().first);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancelHeavy);

// Hold model: a steady population of pending events; each step pops the
// earliest and reschedules it at the popped time plus an offset drawn from
// a Figure 7 traffic mix (measured split in src/sim/event_queue.h):
// per-receiver deliveries 0.5-2 ms ahead, flooding relays up to 0.2 s,
// gossip rounds and entry timers up to one 5 s round, Opt-2 postpones
// 16-64 s. Unlike BM_EventQueuePushPop's fill-then-drain over 1000 s, pops
// are mostly deliveries while the pending set is mostly timers, as in a
// run. Args: mix (0 flooding, 1 gossip, 2 optimized), pending population.
void BM_EventQueueHold(benchmark::State& state) {
  // Cumulative thresholds of one uniform draw, by offset kind.
  struct Mix {
    double delivery, relay, round;  // The rest are postpones.
  };
  static constexpr Mix kMixes[] = {
      {0.944, 1.0, 1.0},    // Flooding: deliveries and relays.
      {0.84, 0.84, 1.0},    // Gossip: deliveries and rounds.
      {0.23, 0.23, 0.97},   // Optimized: mostly entry timers.
  };
  const Mix mix = kMixes[state.range(0)];
  const int population = static_cast<int>(state.range(1));
  Rng rng(5);
  auto offset = [&rng, &mix] {
    const double u = rng.NextDouble();
    if (u < mix.delivery) return rng.Uniform(0.5e-3, 2.0e-3);
    if (u < mix.relay) return rng.Uniform(0.0, 0.2);
    if (u < mix.round) return rng.Uniform(0.0, 5.0);
    return rng.Uniform(16.0, 64.0);
  };
  sim::EventQueue queue;
  for (int i = 0; i < population; ++i) queue.Push(offset(), [] {});
  for (auto _ : state) {
    auto [when, callback] = queue.Pop();
    queue.Push(when + offset(), std::move(callback));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueHold)
    ->Args({0, 100})
    ->Args({0, 1000})
    ->Args({1, 1000})
    ->Args({2, 1000});

void BM_SpatialIndexRebuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<std::pair<net::NodeId, Vec2>> points;
  for (int i = 0; i < n; ++i) {
    points.emplace_back(static_cast<net::NodeId>(i),
                        Vec2{rng.Uniform(0.0, 5000.0),
                             rng.Uniform(0.0, 5000.0)});
  }
  net::SpatialIndex index(250.0);
  for (auto _ : state) {
    index.Rebuild(points);
    benchmark::DoNotOptimize(index.Size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpatialIndexRebuild)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SpatialIndexQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<std::pair<net::NodeId, Vec2>> points;
  for (int i = 0; i < n; ++i) {
    points.emplace_back(static_cast<net::NodeId>(i),
                        Vec2{rng.Uniform(0.0, 5000.0),
                             rng.Uniform(0.0, 5000.0)});
  }
  net::SpatialIndex index(250.0);
  index.Rebuild(points);
  std::vector<net::NodeId> out;
  for (auto _ : state) {
    out.clear();
    index.QueryRange({rng.Uniform(0.0, 5000.0), rng.Uniform(0.0, 5000.0)},
                     250.0, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_SpatialIndexQuery)->Arg(1000)->Arg(10000);

void BM_FmSketchAddUser(benchmark::State& state) {
  sketch::FmSketchArray array;
  uint64_t user = 0;
  for (auto _ : state) {
    array.AddUser(user++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FmSketchAddUser);

void BM_FmSketchEstimate(benchmark::State& state) {
  sketch::FmSketchArray array;
  for (uint64_t user = 0; user < 1000; ++user) array.AddUser(user);
  for (auto _ : state) benchmark::DoNotOptimize(array.Estimate());
}
BENCHMARK(BM_FmSketchEstimate);

void BM_ForwardingProbability(benchmark::State& state) {
  core::PropagationParams params;
  double d = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::ForwardingProbability(d, 1000.0, params));
    d += 1.0;
    if (d > 1500.0) d = 0.0;
  }
}
BENCHMARK(BM_ForwardingProbability);

void BM_AnnulusProbability(benchmark::State& state) {
  core::PropagationParams params;
  double d = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::AnnulusForwardingProbability(d, 1000.0, 250.0, params));
    d += 1.0;
    if (d > 1500.0) d = 0.0;
  }
}
BENCHMARK(BM_AnnulusProbability);

void BM_CacheInsertEvict(benchmark::State& state) {
  Rng rng(5);
  for (auto _ : state) {
    core::AdCache cache(10);
    for (uint32_t i = 0; i < 100; ++i) {
      core::CacheEntry entry;
      entry.ad.id = core::AdId{1, i};
      entry.probability = rng.NextDouble();
      sim::EventId evicted;
      benchmark::DoNotOptimize(cache.Insert(std::move(entry), &evicted));
    }
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CacheInsertEvict);

void BM_FullScenario(benchmark::State& state) {
  const int peers = static_cast<int>(state.range(0));
  uint64_t seed = 1;
  double simulated_seconds = 0.0;
  for (auto _ : state) {
    scenario::ScenarioConfig config;
    config.method = scenario::Method::kOptimized;
    config.num_peers = peers;
    config.seed = seed++;
    scenario::RunResult result = scenario::RunScenario(config);
    benchmark::DoNotOptimize(result.Messages());
    simulated_seconds += config.sim_time_s;
  }
  state.counters["sim_s_per_wall_s"] = benchmark::Counter(
      simulated_seconds, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullScenario)->Arg(100)->Arg(300)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace madnet

BENCHMARK_MAIN();
