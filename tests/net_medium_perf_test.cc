// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Golden checks guarding the Medium dense-storage / scratch-buffer
// refactor: NeighborsOf must return exactly the set a brute-force O(N)
// scan over live positions finds — across time (stale spatial index +
// slack), offline toggles, and many randomized query points on a
// 500-node moving layout. The lazy epoch index is held to more: the exact
// order a full rebuild at the epoch time would enumerate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "mobility/mobility_model.h"
#include "mobility/constant_velocity.h"
#include "mobility/random_waypoint.h"
#include "mobility/trace.h"
#include "net/medium.h"
#include "sim/simulator.h"
#include "test_receiver.h"
#include "util/random.h"

namespace madnet::net {
namespace {

using mobility::Leg;
using mobility::MobilityModel;
using mobility::RandomWaypoint;

class MediumPerfTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 500;
  static constexpr double kArea = 2000.0;

  void SetUp() override {
    Medium::Options options;
    options.range_m = 250.0;
    options.max_speed_mps = 15.0;
    medium_ = std::make_unique<Medium>(options, &simulator_, Rng(99));
    RandomWaypoint::Options waypoint;
    waypoint.area = Rect{{0.0, 0.0}, {kArea, kArea}};
    Rng rng(42);
    for (NodeId id = 0; id < kNodes; ++id) {
      models_.push_back(
          std::make_unique<RandomWaypoint>(waypoint, rng.Fork(id)));
      ASSERT_TRUE(medium_->AddNode(id, models_.back().get()).ok());
    }
  }

  /// Ground truth: O(N) scan over exact live positions and online flags.
  std::vector<NodeId> BruteForceNeighbors(const Vec2& center,
                                          double radius) const {
    std::vector<NodeId> result;
    const double r2 = radius * radius;
    for (NodeId id : medium_->node_ids()) {
      if (!medium_->IsOnline(id)) continue;
      if (DistanceSquared(medium_->PositionOf(id), center) <= r2) {
        result.push_back(id);
      }
    }
    return result;
  }

  /// Order-insensitive comparison (the index may enumerate cells in any
  /// order; the contract is about the *set*).
  void ExpectMatchesBruteForce(const Vec2& center, double radius) {
    std::vector<NodeId> fast = medium_->NeighborsOf(center, radius);
    std::vector<NodeId> golden = BruteForceNeighbors(center, radius);
    std::sort(fast.begin(), fast.end());
    std::sort(golden.begin(), golden.end());
    EXPECT_EQ(fast, golden) << "center=(" << center.x << "," << center.y
                            << ") r=" << radius << " t=" << simulator_.Now();
  }

  sim::Simulator simulator_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<RandomWaypoint>> models_;
};

TEST_F(MediumPerfTest, NeighborsMatchBruteForceAcrossRandomQueries) {
  Rng rng(7);
  for (int q = 0; q < 60; ++q) {
    const Vec2 center = rng.UniformInRect(Rect{{0.0, 0.0}, {kArea, kArea}});
    const double radius = rng.Uniform(10.0, 400.0);
    ExpectMatchesBruteForce(center, radius);
  }
}

TEST_F(MediumPerfTest, NeighborsMatchBruteForceAsTimeAdvances) {
  // Advance virtual time so indexed positions go stale between reindex
  // intervals; the slack logic must still yield the exact live set.
  Rng rng(11);
  for (int step = 0; step < 25; ++step) {
    simulator_.Schedule(3.7, [] {});
    simulator_.Run();
    const Vec2 center = rng.UniformInRect(Rect{{0.0, 0.0}, {kArea, kArea}});
    ExpectMatchesBruteForce(center, 250.0);
  }
}

TEST_F(MediumPerfTest, OfflineNodesAreExcludedEverywhere) {
  // Knock out every third node and verify both paths agree (and that the
  // offline nodes really are gone from the results).
  for (NodeId id = 0; id < kNodes; id += 3) {
    ASSERT_TRUE(medium_->SetOnline(id, false).ok());
  }
  Rng rng(13);
  for (int q = 0; q < 30; ++q) {
    const Vec2 center = rng.UniformInRect(Rect{{0.0, 0.0}, {kArea, kArea}});
    const std::vector<NodeId> neighbors = medium_->NeighborsOf(center, 300.0);
    for (NodeId id : neighbors) EXPECT_NE(id % 3, 0u);
    ExpectMatchesBruteForce(center, 300.0);
  }
  // Bring them back: they must reappear.
  for (NodeId id = 0; id < kNodes; id += 3) {
    ASSERT_TRUE(medium_->SetOnline(id, true).ok());
  }
  ExpectMatchesBruteForce({kArea / 2, kArea / 2}, 500.0);
}

TEST_F(MediumPerfTest, RebuiltIndexSkipsOfflineNodesAndFlipBackIsVisible) {
  // Force a reindex while half the fleet is offline: offline nodes must
  // not be inserted (they are dead weight for every query), yet flipping
  // one back online must make it visible IMMEDIATELY — before the next
  // periodic rebuild — because SetOnline(true) invalidates the index.
  for (NodeId id = 0; id < kNodes; id += 2) {
    ASSERT_TRUE(medium_->SetOnline(id, false).ok());
  }
  // Advance virtual time past the reindex interval so the next query
  // rebuilds from scratch with the offline set in effect.
  simulator_.Schedule(5.0, [] {});
  simulator_.Run();
  Rng rng(17);
  for (int q = 0; q < 20; ++q) {
    const Vec2 center = rng.UniformInRect(Rect{{0.0, 0.0}, {kArea, kArea}});
    const std::vector<NodeId> neighbors = medium_->NeighborsOf(center, 400.0);
    for (NodeId id : neighbors) EXPECT_EQ(id % 2, 1u);
    ExpectMatchesBruteForce(center, 400.0);
  }
  // Flip everyone back and query at the same instant (no time advance, no
  // periodic rebuild in between): the full fleet must reappear.
  for (NodeId id = 0; id < kNodes; id += 2) {
    ASSERT_TRUE(medium_->SetOnline(id, true).ok());
  }
  const std::vector<NodeId> all =
      medium_->NeighborsOf({kArea / 2, kArea / 2}, kArea * 2.0);
  EXPECT_EQ(all.size(), static_cast<size_t>(kNodes));
  ExpectMatchesBruteForce({kArea / 2, kArea / 2}, kArea * 2.0);
}

TEST_F(MediumPerfTest, RepeatedQueriesReuseScratchWithoutCorruption) {
  // Back-to-back queries exercise the reused scratch buffers; each result
  // must be self-consistent and match a fresh brute-force scan.
  const Vec2 a{300.0, 300.0};
  const Vec2 b{1700.0, 1600.0};
  const std::vector<NodeId> first = medium_->NeighborsOf(a, 250.0);
  const std::vector<NodeId> second = medium_->NeighborsOf(b, 250.0);
  const std::vector<NodeId> first_again = medium_->NeighborsOf(a, 250.0);
  EXPECT_EQ(first, first_again);
  ExpectMatchesBruteForce(a, 250.0);
  ExpectMatchesBruteForce(b, 250.0);
  EXPECT_NE(first, second);  // Distinct regions of a 500-node layout.
}

TEST_F(MediumPerfTest, SameInstantMutationInvalidatesMemo) {
  // A repeat query at the same instant is served from the memo, but a
  // SetOnline between the two must show even though time stood still (the
  // memo is keyed on the mutation epoch, not just the clock).
  simulator_.RunUntil(5.0);
  const Vec2 center{kArea / 2, kArea / 2};
  const std::vector<NodeId> before = medium_->NeighborsOf(center, 400.0);
  ASSERT_FALSE(before.empty());
  const uint64_t hits = medium_->stats().batch_memo_hits;
  EXPECT_EQ(medium_->NeighborsOf(center, 400.0), before);
  EXPECT_EQ(medium_->stats().batch_memo_hits, hits + 1);
  const NodeId gone = before.front();
  ASSERT_TRUE(medium_->SetOnline(gone, false).ok());
  std::vector<NodeId> expected = before;
  expected.erase(expected.begin());
  EXPECT_EQ(medium_->NeighborsOf(center, 400.0), expected);
  ASSERT_TRUE(medium_->SetOnline(gone, true).ok());
  EXPECT_EQ(medium_->NeighborsOf(center, 400.0), before);
  EXPECT_EQ(medium_->stats().batch_memo_hits, hits + 1);
}

// ---------------------------------------------------------------------------
// Lazy epoch index. Neighbour enumeration order feeds the per-receiver RNG
// draws, so NeighborsOf must return exactly what a full index rebuild at
// the epoch time T would: every online node within `radius` now whose
// position at T passes the index prefilter, ordered by (cell at T, dense
// index). The reference computes that by brute force on twin mobility
// models, so it never disturbs the medium's own models.

constexpr double kRange = 250.0;
constexpr double kMaxSpeed = 15.0;

/// Position at `t` on the first leg whose end >= t: what a time-monotone
/// query resolves `t` to, computed without any cursor.
Vec2 FirstLegPosition(MobilityModel* model, Time t) {
  model->EnsureHorizon(t);
  const std::vector<Leg>& legs = model->legs();
  const auto it = std::lower_bound(
      legs.begin(), legs.end(), t,
      [](const Leg& leg, Time value) { return leg.end < value; });
  return it->PositionAt(t);
}

class LazyEpochIndexTest : public ::testing::Test {
 protected:
  void Build(int nodes, double area, bool csma = false) {
    Medium::Options options;
    options.range_m = kRange;
    options.max_speed_mps = kMaxSpeed;
    options.csma = csma;
    medium_ = std::make_unique<Medium>(options, &simulator_, Rng(5));
    RandomWaypoint::Options waypoint;
    waypoint.area = Rect{{0.0, 0.0}, {area, area}};
    waypoint.max_speed_mps = kMaxSpeed;
    waypoint.max_pause_s = 2.0;
    Rng rng(77);
    for (NodeId id = 0; id < static_cast<NodeId>(nodes); ++id) {
      models_.push_back(
          std::make_unique<RandomWaypoint>(waypoint, rng.Fork(id)));
      twins_.push_back(
          std::make_unique<RandomWaypoint>(waypoint, rng.Fork(id)));
      ASSERT_TRUE(medium_->AddNode(id, models_.back().get()).ok());
    }
    area_ = area;
  }

  void AdvanceTo(Time t) { simulator_.RunUntil(t); }

  /// Mirrors the epoch rule: a query starts a new epoch after an
  /// invalidation (AddNode, SetOnline(true)) or once the current epoch is
  /// older than the reindex interval.
  void NoteQuery() {
    const Time now = simulator_.Now();
    if (epoch_ < 0.0 || now - epoch_ > medium_->options().reindex_interval_s) {
      epoch_ = now;
    }
  }

  void SetOnline(NodeId id, bool online) {
    if (online && !medium_->IsOnline(id)) epoch_ = -1.0;
    ASSERT_TRUE(medium_->SetOnline(id, online).ok());
  }

  /// The grid edge a full rebuild at the epoch picks: range_m, doubled
  /// until the cell bounding box of the online epoch positions fits
  /// max(1024, 8 * online) cells.
  double EpochCellSize() {
    std::vector<Vec2> points;
    for (NodeId id : medium_->node_ids()) {
      if (medium_->IsOnline(id)) {
        points.push_back(FirstLegPosition(twins_[id].get(), epoch_));
      }
    }
    const int64_t max_cells =
        std::max<int64_t>(1024, 8 * static_cast<int64_t>(points.size()));
    for (double cell = kRange;; cell *= 2.0) {
      int64_t lo_x = INT64_MAX, hi_x = INT64_MIN;
      int64_t lo_y = INT64_MAX, hi_y = INT64_MIN;
      for (const Vec2& p : points) {
        const auto cx = static_cast<int64_t>(std::floor(p.x / cell));
        const auto cy = static_cast<int64_t>(std::floor(p.y / cell));
        lo_x = std::min(lo_x, cx);
        hi_x = std::max(hi_x, cx);
        lo_y = std::min(lo_y, cy);
        hi_y = std::max(hi_y, cy);
      }
      const int64_t w = hi_x - lo_x + 1;
      const int64_t h = hi_y - lo_y + 1;
      if (points.empty() ||
          (w <= max_cells && h <= max_cells && w * h <= max_cells)) {
        return cell;
      }
    }
  }

  std::vector<NodeId> Reference(const Vec2& center, double radius) {
    const Time now = simulator_.Now();
    const double cell = EpochCellSize();
    const auto cell_of = [cell](double v) {
      return static_cast<int64_t>(std::floor(v / cell));
    };
    const double index_radius = radius + 2.0 * kMaxSpeed * (now - epoch_);
    const double index_r2 = index_radius * index_radius;
    std::vector<std::tuple<int64_t, int64_t, NodeId>> hits;
    for (NodeId id : medium_->node_ids()) {
      if (!medium_->IsOnline(id)) continue;
      if (DistanceSquared(twins_[id]->PositionAt(now), center) >
          radius * radius) {
        continue;
      }
      const Vec2 p = FirstLegPosition(twins_[id].get(), epoch_);
      const double dx = p.x - center.x;
      const double dy = p.y - center.y;
      if (dx * dx + dy * dy > index_r2) continue;
      const int64_t cx = cell_of(p.x);
      const int64_t cy = cell_of(p.y);
      if (cx < cell_of(center.x - index_radius) ||
          cx > cell_of(center.x + index_radius) ||
          cy < cell_of(center.y - index_radius) ||
          cy > cell_of(center.y + index_radius)) {
        continue;
      }
      hits.emplace_back(cx, cy, id);
    }
    std::sort(hits.begin(), hits.end());
    std::vector<NodeId> ids;
    for (const auto& hit : hits) ids.push_back(std::get<2>(hit));
    return ids;
  }

  /// Queries at the current instant and compares with the reference.
  /// Tracks the snapshot time (a query that bumped index_refreshes took
  /// one) to record how far epochs drifted from their snapshot.
  void ExpectQueryMatches(const Vec2& center, double radius) {
    NoteQuery();
    const uint64_t refreshes = medium_->stats().index_refreshes;
    const std::vector<NodeId> got = medium_->NeighborsOf(center, radius);
    if (medium_->stats().index_refreshes != refreshes) {
      snapshot_ = simulator_.Now();
    }
    if (epoch_ > snapshot_) ++lazy_queries_;
    max_drift_ = std::max(max_drift_, kMaxSpeed * (epoch_ - snapshot_));
    EXPECT_EQ(got, Reference(center, radius))
        << "center=(" << center.x << "," << center.y << ") r=" << radius
        << " t=" << simulator_.Now() << " epoch=" << epoch_;
  }

  Vec2 RandomPoint(Rng* rng) const {
    return rng->UniformInRect(Rect{{0.0, 0.0}, {area_, area_}});
  }

  sim::Simulator simulator_;
  std::unique_ptr<Medium> medium_;
  std::vector<std::unique_ptr<RandomWaypoint>> models_;
  std::vector<std::unique_ptr<RandomWaypoint>> twins_;
  double area_ = 0.0;
  Time epoch_ = -1.0;
  Time snapshot_ = -1.0;
  int lazy_queries_ = 0;
  double max_drift_ = 0.0;
};

TEST_F(LazyEpochIndexTest, QueriesSpreadOverEpochsMatchEpochRebuild) {
  // Sparse layout, a few queries per epoch: the snapshot serves epochs
  // until it has drifted by range_m, so queries see every drift up to it.
  Build(2000, 10000.0);
  Rng rng(3);
  Time t = 0.0;
  int queries = 0;
  while (t < 60.0) {
    AdvanceTo(t);
    ExpectQueryMatches(RandomPoint(&rng), rng.Uniform(50.0, 400.0));
    ++queries;
    t += rng.Uniform(0.05, 0.9);
  }
  EXPECT_GT(lazy_queries_, queries / 2);
  EXPECT_GT(max_drift_, 0.9 * kRange);
  EXPECT_LE(max_drift_, kRange);
  // Work scales with the queries, not with epochs x nodes.
  EXPECT_LT(medium_->stats().index_positions, 2000u * 60u / 5u);
}

TEST_F(LazyEpochIndexTest, SetOnlineMidEpochStartsAFreshEpoch) {
  Build(2000, 10000.0);
  Rng rng(4);
  for (NodeId id = 0; id < 2000; id += 4) SetOnline(id, false);
  for (int step = 0; step < 40; ++step) {
    AdvanceTo(step * 0.45);
    ExpectQueryMatches(RandomPoint(&rng), 600.0);
    if (step % 7 == 3) {
      // Back online (invalidates the snapshot) and off again (does not).
      SetOnline(static_cast<NodeId>(4 * step), true);
      SetOnline(static_cast<NodeId>(4 * step + 1), false);
      ExpectQueryMatches(RandomPoint(&rng), 600.0);
      AdvanceTo(step * 0.45 + 0.3);
      ExpectQueryMatches(RandomPoint(&rng), 600.0);
    }
  }
  EXPECT_GT(lazy_queries_, 0);
}

TEST(LazyEpochIndexBoundaryTest, EpochAtLegBoundaryUsesTheEarlierLeg) {
  // Node 0's first leg ends at T = 40 exactly on the cell edge x = range_m,
  // but interpolating that leg at its end rounds one ulp below the edge
  // (cell 0); the next leg starts exactly on it (cell 1). A rebuild at T
  // files node 0 in cell 0, ahead of node 1 (also cell 0). Once node 0's
  // cursor has moved onto the later leg, a lazy evaluation that trusted
  // the cursor would file it in cell 1, after node 1.
  const double edge = 181.843;
  const Time boundary = 40.0;
  const Leg first{0.0, boundary, {674.48, 300.0}, {edge, 300.0}};
  const Leg second{boundary, 100.0, {edge, 300.0}, {edge, 400.0}};
  ASSERT_LT(first.PositionAt(boundary).x, edge);
  ASSERT_EQ(second.PositionAt(boundary).x, edge);
  StatusOr<mobility::Trace> trace = mobility::Trace::FromLegs({first, second});
  ASSERT_TRUE(trace.ok());

  sim::Simulator simulator;
  Medium::Options options;
  options.range_m = edge;
  options.max_speed_mps = kMaxSpeed;
  Medium medium(options, &simulator, Rng(1));
  mobility::TraceReplay mover(std::move(trace).value());
  mobility::Stationary still({100.0, 300.0});
  ASSERT_TRUE(medium.AddNode(0, &mover).ok());
  ASSERT_TRUE(medium.AddNode(1, &still).ok());
  // Far-away fillers keep the walked-candidate load under an eighth of the
  // online nodes, so the snapshot keeps serving.
  std::vector<std::unique_ptr<mobility::Stationary>> fillers;
  for (NodeId id = 2; id < 40; ++id) {
    fillers.push_back(std::make_unique<mobility::Stationary>(
        Vec2{3000.0 + 10.0 * id, 3000.0}));
    ASSERT_TRUE(medium.AddNode(id, fillers.back().get()).ok());
  }
  const Vec2 center{150.0, 300.0};
  simulator.RunUntil(boundary - 2.0);
  // Snapshot; node 0 is still in cell 1.
  EXPECT_EQ(medium.NeighborsOf(center, 100.0), (std::vector<NodeId>{1, 0}));
  const std::vector<NodeId> expected = {0, 1};
  simulator.RunUntil(boundary);  // Epoch T == boundary, served lazily.
  EXPECT_EQ(medium.NeighborsOf(center, 100.0), expected);
  simulator.RunUntil(boundary + 0.3);
  EXPECT_EQ(medium.NeighborsOf(center, 100.0), expected);
  ASSERT_EQ(mover.CursorLeg(), &mover.legs()[1]);  // Cursor moved on.
  simulator.RunUntil(boundary + 0.6);
  EXPECT_EQ(medium.NeighborsOf(center, 100.0), expected);
  EXPECT_EQ(medium.stats().index_epochs, 2u);
  EXPECT_EQ(medium.stats().index_refreshes, 1u);
}

TEST_F(LazyEpochIndexTest, HugeArenaCoarsensTheGridExactlyAsARebuild) {
  // 200 nodes over 2000 km: the configured-size grid would need millions
  // of cells, so every epoch's rebuild coarsens, and the snapshot must not
  // serve a later epoch, even one whose queries walk few candidates.
  Build(200, 2.0e6);
  Rng rng(6);
  int epochs = 0;
  size_t found = 0;
  for (int step = 0; step < 40; ++step) {
    AdvanceTo(step * 1.3);
    const Time before = epoch_;
    const Vec2 center = RandomPoint(&rng);
    ExpectQueryMatches(center, 3.0e5);
    found += medium_->NeighborsOf(center, 3.0e5).size();
    if (epoch_ != before) ++epochs;
  }
  EXPECT_GT(EpochCellSize(), kRange);
  EXPECT_GT(found, 200u);
  EXPECT_EQ(medium_->stats().index_refreshes, static_cast<uint64_t>(epochs));
  EXPECT_EQ(lazy_queries_, 0);
}

TEST(LazyEpochIndexBoxTest, CellBoxEdgeMatchesRebuild) {
  // The rebuild's cell box decides ties at its edge: node 0 sits exactly
  // `radius` from the centre in floating point (a subnormal offset below
  // x = 0 vanishes in the subtraction), so it passes the distance tests,
  // yet its cell (-1) lies outside the box starting at cell 0. A rebuild
  // leaves it out, so lazy epochs must leave it out too.
  sim::Simulator simulator;
  Medium::Options options;
  options.range_m = kRange;
  options.max_speed_mps = kMaxSpeed;
  Medium medium(options, &simulator, Rng(1));
  const double radius = 100.0;
  const Vec2 center{radius, 0.0};
  mobility::Stationary edge({-1.0e-300, 0.0});
  mobility::Stationary inside({50.0, 0.0});
  ASSERT_TRUE(medium.AddNode(0, &edge).ok());
  ASSERT_TRUE(medium.AddNode(1, &inside).ok());
  ASSERT_LE(DistanceSquared(edge.PositionAt(0.0), center), radius * radius);
  std::vector<std::unique_ptr<mobility::Stationary>> fillers;
  for (NodeId id = 2; id < 40; ++id) {
    fillers.push_back(std::make_unique<mobility::Stationary>(
        Vec2{3000.0 + 10.0 * id, 3000.0}));
    ASSERT_TRUE(medium.AddNode(id, fillers.back().get()).ok());
  }
  const std::vector<NodeId> expected = {1};
  for (Time t : {1.0, 3.0, 5.0}) {  // A snapshot epoch, then lazy ones.
    simulator.RunUntil(t);
    EXPECT_EQ(medium.NeighborsOf(center, radius), expected) << "t=" << t;
  }
  EXPECT_EQ(medium.stats().index_epochs, 3u);
  EXPECT_EQ(medium.stats().index_refreshes, 1u);
}

TEST_F(LazyEpochIndexTest, CsmaTransmitEnumeratesReceiversInEpochOrder) {
  // Loss-free CSMA with broadcasts spaced far apart: every neighbour
  // receives, and reception completions scheduled for the same instant run
  // in enumeration order, so each frame's receivers arrive exactly in the
  // reference order.
  Build(1500, 9000.0, /*csma=*/true);
  std::vector<NodeId> received;
  std::vector<std::unique_ptr<CallbackReceiver>> receivers;
  for (NodeId id : medium_->node_ids()) {
    receivers.push_back(std::make_unique<CallbackReceiver>(
        [&received, id](const Packet&, NodeId) { received.push_back(id); }));
    ASSERT_TRUE(medium_->SetReceiver(id, receivers.back().get()).ok());
  }
  Rng rng(8);
  const Packet packet;
  for (int step = 0; step < 60; ++step) {
    AdvanceTo(step * 0.35);
    const NodeId from = static_cast<NodeId>(rng.Uniform(0.0, 1500.0));
    NoteQuery();
    std::vector<NodeId> expected =
        Reference(twins_[from]->PositionAt(simulator_.Now()), kRange);
    expected.erase(std::find(expected.begin(), expected.end(), from));
    const uint64_t refreshes = medium_->stats().index_refreshes;
    ASSERT_TRUE(medium_->Broadcast(from, packet).ok());
    if (medium_->stats().index_refreshes != refreshes) {
      snapshot_ = simulator_.Now();
    }
    if (epoch_ > snapshot_) ++lazy_queries_;
    received.clear();
    AdvanceTo(step * 0.35 + 0.1);
    EXPECT_EQ(received, expected) << "step " << step << " from " << from;
  }
  EXPECT_GT(lazy_queries_, 30);
  EXPECT_EQ(medium_->stats().mac_defers, 0u);
}

}  // namespace
}  // namespace madnet::net
