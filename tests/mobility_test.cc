// Copyright (c) 2026 madnet authors. All rights reserved.

#include <cmath>

#include <gtest/gtest.h>

#include "mobility/constant_velocity.h"
#include "mobility/manhattan_grid.h"
#include "mobility/mobility_model.h"
#include "mobility/random_waypoint.h"
#include "mobility/trace.h"
#include "util/random.h"

namespace madnet::mobility {
namespace {

TEST(LegTest, PositionInterpolatesAndClamps) {
  Leg leg{10.0, 20.0, {0.0, 0.0}, {100.0, 0.0}};
  EXPECT_EQ(leg.PositionAt(10.0), (Vec2{0.0, 0.0}));
  EXPECT_EQ(leg.PositionAt(15.0), (Vec2{50.0, 0.0}));
  EXPECT_EQ(leg.PositionAt(20.0), (Vec2{100.0, 0.0}));
  EXPECT_EQ(leg.PositionAt(25.0), (Vec2{100.0, 0.0}));  // Clamped.
  EXPECT_EQ(leg.Velocity(), (Vec2{10.0, 0.0}));
}

TEST(LegTest, PauseLegHasZeroVelocity) {
  Leg leg{0.0, 5.0, {3.0, 4.0}, {3.0, 4.0}};
  EXPECT_EQ(leg.Velocity(), (Vec2{0.0, 0.0}));
  EXPECT_EQ(leg.PositionAt(2.0), (Vec2{3.0, 4.0}));
}

TEST(StationaryTest, NeverMoves) {
  Stationary model({7.0, 8.0});
  EXPECT_EQ(model.PositionAt(0.0), (Vec2{7.0, 8.0}));
  EXPECT_EQ(model.PositionAt(12345.0), (Vec2{7.0, 8.0}));
  EXPECT_EQ(model.VelocityAt(100.0), (Vec2{0.0, 0.0}));
}

class RandomWaypointTest : public ::testing::Test {
 protected:
  RandomWaypoint::Options options_ = [] {
    RandomWaypoint::Options o;
    o.area = Rect{{0.0, 0.0}, {1000.0, 1000.0}};
    o.min_speed_mps = 5.0;
    o.max_speed_mps = 15.0;
    o.min_pause_s = 0.0;
    o.max_pause_s = 10.0;
    return o;
  }();
};

TEST_F(RandomWaypointTest, StaysInsideArea) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    RandomWaypoint model(options_, Rng(seed));
    for (double t = 0.0; t <= 2000.0; t += 7.3) {
      EXPECT_TRUE(options_.area.Contains(model.PositionAt(t)))
          << "seed=" << seed << " t=" << t;
    }
  }
}

TEST_F(RandomWaypointTest, SpeedsWithinBounds) {
  RandomWaypoint model(options_, Rng(3));
  model.EnsureHorizon(2000.0);
  for (const Leg& leg : model.legs()) {
    const double speed = leg.Velocity().Norm();
    if (leg.from == leg.to) continue;  // Pause.
    EXPECT_GE(speed, options_.min_speed_mps - 1e-9);
    EXPECT_LE(speed, options_.max_speed_mps + 1e-9);
  }
}

TEST_F(RandomWaypointTest, LegsAbutContinuously) {
  RandomWaypoint model(options_, Rng(4));
  model.EnsureHorizon(2000.0);
  const auto& legs = model.legs();
  ASSERT_GT(legs.size(), 2u);
  for (size_t i = 1; i < legs.size(); ++i) {
    EXPECT_DOUBLE_EQ(legs[i].start, legs[i - 1].end);
    EXPECT_EQ(legs[i].from, legs[i - 1].to);
  }
  EXPECT_DOUBLE_EQ(legs.front().start, 0.0);
}

TEST_F(RandomWaypointTest, AlternatesTravelAndPause) {
  RandomWaypoint model(options_, Rng(5));
  model.EnsureHorizon(2000.0);
  int travels = 0;
  int pauses = 0;
  for (const Leg& leg : model.legs()) {
    if (leg.from == leg.to) {
      ++pauses;
    } else {
      ++travels;
    }
  }
  EXPECT_GT(travels, 0);
  EXPECT_GT(pauses, 0);
  EXPECT_NEAR(travels, pauses, 2);
}

TEST_F(RandomWaypointTest, DeterministicInSeed) {
  RandomWaypoint a(options_, Rng(42));
  RandomWaypoint b(options_, Rng(42));
  for (double t = 0.0; t < 500.0; t += 11.0) {
    EXPECT_EQ(a.PositionAt(t), b.PositionAt(t));
  }
}

TEST_F(RandomWaypointTest, NoPauseConfiguration) {
  RandomWaypoint::Options options = options_;
  options.min_pause_s = 0.0;
  options.max_pause_s = 0.0;
  RandomWaypoint model(options, Rng(6));
  model.EnsureHorizon(500.0);
  for (const Leg& leg : model.legs()) EXPECT_FALSE(leg.from == leg.to);
}

TEST(MobilityModelTest, VelocityMatchesFiniteDifference) {
  RandomWaypoint::Options options;
  options.area = Rect{{0.0, 0.0}, {1000.0, 1000.0}};
  RandomWaypoint model(options, Rng(7));
  model.EnsureHorizon(300.0);
  // Sample mid-leg times so the finite difference stays within one leg.
  for (const Leg& leg : model.legs()) {
    if (leg.end > 300.0) break;
    if (leg.Duration() < 1.0) continue;
    const double t = (leg.start + leg.end) / 2.0;
    const Vec2 v = model.VelocityAt(t);
    const double h = std::min(0.01, leg.Duration() / 10.0);
    const Vec2 fd = (model.PositionAt(t + h) - model.PositionAt(t - h)) /
                    (2.0 * h);
    EXPECT_NEAR(v.x, fd.x, 1e-6);
    EXPECT_NEAR(v.y, fd.y, 1e-6);
  }
}

TEST(MobilityModelTest, NonMonotonicQueriesWork) {
  RandomWaypoint::Options options;
  options.area = Rect{{0.0, 0.0}, {1000.0, 1000.0}};
  RandomWaypoint a(options, Rng(8));
  RandomWaypoint b(options, Rng(8));
  // Query b forwards to cache positions; then compare random-order queries.
  std::vector<double> times = {500.0, 3.0, 250.0, 499.0, 0.0, 123.4, 500.0};
  for (double t : times) {
    EXPECT_EQ(a.PositionAt(t), b.PositionAt(t)) << t;
  }
}

TEST(MobilityModelTest, FirstLegLookupIgnoresAndKeepsCursor) {
  // Interpolating the first leg at its end lands one ulp short of where
  // the second leg starts, so the two candidate legs differ at the
  // boundary.
  const Time boundary = 40.0;
  const Leg first{0.0, boundary, {674.48, 300.0}, {181.843, 300.0}};
  const Leg second{boundary, 100.0, {181.843, 300.0}, {181.843, 400.0}};
  ASSERT_NE(first.PositionAt(boundary), second.PositionAt(boundary));
  StatusOr<Trace> trace = Trace::FromLegs({first, second});
  ASSERT_TRUE(trace.ok());
  TraceReplay model(std::move(trace).value());
  // Park the cursor on the later leg: its inclusive check would answer the
  // boundary from `second`.
  model.PositionAt(70.0);
  ASSERT_EQ(model.CursorLeg(), &model.legs()[1]);
  EXPECT_EQ(model.PositionAt(boundary), second.PositionAt(boundary));
  EXPECT_EQ(model.PositionOnFirstLegAt(boundary), first.PositionAt(boundary));
  EXPECT_EQ(model.CursorLeg(), &model.legs()[1]);  // Cursor untouched.
  // Interior times match the leg; times past the horizon extend it.
  EXPECT_EQ(model.PositionOnFirstLegAt(10.0), first.PositionAt(10.0));
  const Vec2 extended = model.PositionOnFirstLegAt(500.0);
  EXPECT_GE(model.legs().back().end, 500.0);
  EXPECT_EQ(extended, (Vec2{181.843, 400.0}));
  EXPECT_EQ(model.CursorLeg(), &model.legs()[1]);
}

TEST(CrossingsTest, MatchesDenseSampling) {
  // Property: analytic area-crossing intervals agree with dense sampling.
  RandomWaypoint::Options options;
  options.area = Rect{{0.0, 0.0}, {2000.0, 2000.0}};
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    RandomWaypoint model(options, Rng(1000 + trial));
    const Circle circle{{rng.Uniform(200.0, 1800.0),
                         rng.Uniform(200.0, 1800.0)},
                        rng.Uniform(100.0, 600.0)};
    const double t0 = 50.0;
    const double t1 = 1500.0;
    auto intervals = model.CrossingsWithin(circle, t0, t1);

    // Dense sampling.
    const double dt = 0.05;
    bool inside_prev = false;
    std::vector<CrossingInterval> sampled;
    for (double t = t0; t <= t1 + 1e-9; t += dt) {
      const bool inside = circle.Contains(model.PositionAt(t));
      if (inside && !inside_prev) sampled.push_back({t, t});
      if (inside) sampled.back().exit = t;
      inside_prev = inside;
    }
    // Drop sampled slivers shorter than the resolution; the analytic method
    // may legitimately find intervals the sampler misses.
    ASSERT_GE(intervals.size(), sampled.size()) << "trial " << trial;
    size_t j = 0;
    for (const auto& s : sampled) {
      // Find the analytic interval containing this sampled one.
      while (j < intervals.size() && intervals[j].exit < s.enter - 1.0) ++j;
      ASSERT_LT(j, intervals.size());
      EXPECT_NEAR(intervals[j].enter, s.enter, 2.0 * dt + 1e-6);
      EXPECT_NEAR(intervals[j].exit, s.exit, 2.0 * dt + 1e-6);
    }
  }
}

TEST(CrossingsTest, CoalescesAcrossLegBoundaries) {
  // A path that turns while inside the circle must yield one interval.
  auto trace = Trace::FromLegs({Leg{0.0, 10.0, {-100.0, 0.0}, {0.0, 0.0}},
                                Leg{10.0, 20.0, {0.0, 0.0}, {0.0, 100.0}}});
  ASSERT_TRUE(trace.ok());
  TraceReplay model(*trace);
  auto intervals = model.CrossingsWithin(Circle{{0.0, 0.0}, 50.0}, 0.0, 20.0);
  ASSERT_EQ(intervals.size(), 1u);
  EXPECT_NEAR(intervals[0].enter, 5.0, 1e-9);   // Enters at x = -50.
  EXPECT_NEAR(intervals[0].exit, 15.0, 1e-9);   // Leaves at y = +50.
}

TEST(CrossingsTest, EmptyWindow) {
  Stationary model({0.0, 0.0});
  EXPECT_TRUE(
      model.CrossingsWithin(Circle{{100.0, 0.0}, 10.0}, 0.0, 50.0).empty());
  auto inside = model.CrossingsWithin(Circle{{0.0, 0.0}, 10.0}, 5.0, 50.0);
  ASSERT_EQ(inside.size(), 1u);
  EXPECT_DOUBLE_EQ(inside[0].enter, 5.0);
  EXPECT_DOUBLE_EQ(inside[0].exit, 50.0);
}

TEST(ConstantVelocityTest, MovesStraight) {
  Rect area{{0.0, 0.0}, {1000.0, 1000.0}};
  ConstantVelocity model(area, {100.0, 100.0}, {10.0, 0.0});
  EXPECT_EQ(model.PositionAt(0.0), (Vec2{100.0, 100.0}));
  EXPECT_EQ(model.PositionAt(10.0), (Vec2{200.0, 100.0}));
  EXPECT_EQ(model.VelocityAt(5.0), (Vec2{10.0, 0.0}));
}

TEST(ConstantVelocityTest, ReflectsOffWalls) {
  Rect area{{0.0, 0.0}, {100.0, 100.0}};
  ConstantVelocity model(area, {50.0, 50.0}, {10.0, 0.0});
  // Hits x=100 at t=5, then bounces back: at t=7 it is at x=80.
  EXPECT_NEAR(model.PositionAt(7.0).x, 80.0, 1e-9);
  EXPECT_NEAR(model.PositionAt(7.0).y, 50.0, 1e-9);
  // Velocity reversed after the bounce.
  EXPECT_NEAR(model.VelocityAt(7.0).x, -10.0, 1e-9);
  // Stays in the area forever.
  for (double t = 0.0; t < 500.0; t += 3.7) {
    EXPECT_TRUE(area.Contains(model.PositionAt(t))) << t;
  }
}

TEST(ConstantVelocityTest, DiagonalBounce) {
  Rect area{{0.0, 0.0}, {100.0, 100.0}};
  ConstantVelocity model(area, {90.0, 90.0}, {10.0, 10.0});
  // Hits the corner at t=1, reflecting both components.
  EXPECT_NEAR(model.PositionAt(2.0).x, 90.0, 1e-9);
  EXPECT_NEAR(model.PositionAt(2.0).y, 90.0, 1e-9);
}

TEST(ConstantVelocityTest, ZeroVelocityStationary) {
  Rect area{{0.0, 0.0}, {100.0, 100.0}};
  ConstantVelocity model(area, {10.0, 20.0}, {0.0, 0.0});
  EXPECT_EQ(model.PositionAt(1000.0), (Vec2{10.0, 20.0}));
}

TEST(ManhattanGridTest, StaysOnStreets) {
  ManhattanGrid::Options options;
  options.area = Rect{{0.0, 0.0}, {2000.0, 2000.0}};
  options.block_size_m = 500.0;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    ManhattanGrid model(options, Rng(seed));
    for (double t = 0.0; t < 1000.0; t += 3.1) {
      const Vec2 p = model.PositionAt(t);
      EXPECT_TRUE(options.area.Contains(p)) << "seed=" << seed << " t=" << t;
      // On a street: x or y is a multiple of the block size.
      const double fx = std::fmod(p.x, options.block_size_m);
      const double fy = std::fmod(p.y, options.block_size_m);
      const bool on_street =
          std::min(fx, options.block_size_m - fx) < 1e-6 ||
          std::min(fy, options.block_size_m - fy) < 1e-6;
      EXPECT_TRUE(on_street) << "seed=" << seed << " t=" << t << " at "
                             << p.ToString();
    }
  }
}

TEST(ManhattanGridTest, LegsAreOneBlockLong) {
  ManhattanGrid::Options options;
  options.area = Rect{{0.0, 0.0}, {2000.0, 2000.0}};
  options.block_size_m = 500.0;
  ManhattanGrid model(options, Rng(11));
  model.EnsureHorizon(1000.0);
  for (const Leg& leg : model.legs()) {
    EXPECT_NEAR(Distance(leg.from, leg.to), 500.0, 1e-9);
  }
}

TEST(TraceTest, RecordAndReplayMatchOriginal) {
  RandomWaypoint::Options options;
  options.area = Rect{{0.0, 0.0}, {1000.0, 1000.0}};
  RandomWaypoint original(options, Rng(21));
  Trace trace = Trace::Record(&original, 500.0);
  EXPECT_GE(trace.Horizon(), 500.0);

  TraceReplay replay(trace);
  for (double t = 0.0; t <= 500.0; t += 13.7) {
    EXPECT_EQ(replay.PositionAt(t), original.PositionAt(t)) << t;
  }
  // Beyond the horizon the replay parks at the final position.
  const Vec2 parked = replay.PositionAt(trace.Horizon());
  EXPECT_EQ(replay.PositionAt(trace.Horizon() + 1000.0), parked);
}

TEST(TraceTest, FromLegsValidation) {
  EXPECT_FALSE(Trace::FromLegs({}).ok());
  // Does not start at 0.
  EXPECT_FALSE(
      Trace::FromLegs({Leg{1.0, 2.0, {0.0, 0.0}, {1.0, 0.0}}}).ok());
  // Time gap.
  EXPECT_FALSE(Trace::FromLegs({Leg{0.0, 1.0, {0.0, 0.0}, {1.0, 0.0}},
                                Leg{2.0, 3.0, {1.0, 0.0}, {2.0, 0.0}}})
                   .ok());
  // Space gap.
  EXPECT_FALSE(Trace::FromLegs({Leg{0.0, 1.0, {0.0, 0.0}, {1.0, 0.0}},
                                Leg{1.0, 2.0, {5.0, 0.0}, {2.0, 0.0}}})
                   .ok());
  // Backwards leg.
  EXPECT_FALSE(
      Trace::FromLegs({Leg{0.0, -1.0, {0.0, 0.0}, {1.0, 0.0}}}).ok());
  // Valid.
  EXPECT_TRUE(Trace::FromLegs({Leg{0.0, 1.0, {0.0, 0.0}, {1.0, 0.0}},
                               Leg{1.0, 2.0, {1.0, 0.0}, {2.0, 0.0}}})
                  .ok());
}

}  // namespace
}  // namespace madnet::mobility
