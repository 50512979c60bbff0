// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Uniform-grid spatial index over node positions. The broadcast medium
// keeps one as a snapshot, rebuilt only now and then (virtual time), and
// range-queries it on every transmission; exact distance filtering happens
// on live positions, so the index only needs to return a superset (see
// Medium for the slack logic and the lazy epoch index built on top).
//
// Layout: each Rebuild counting-sorts the points into a dense grid over
// their bounding box — `cell_start_` holds prefix offsets per cell and
// `ids_`/`xs_`/`ys_` are parallel arrays grouped by cell — so a range
// query is two clamped loops over contiguous memory with zero hashing.
// The sort is stable and queries walk cells in (cx, cy) lexicographic
// order, which keeps result order identical to the historical hash-grid
// implementation (a determinism requirement: neighbour enumeration order
// feeds the per-receiver RNG draw sequence).

#ifndef MADNET_NET_SPATIAL_INDEX_H_
#define MADNET_NET_SPATIAL_INDEX_H_

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "util/geometry.h"

namespace madnet::net {

/// Dense counting-sort grid over 2-D points keyed by NodeId.
class SpatialIndex {
 public:
  /// The grid cells covering one query's bounding box, clamped to the
  /// cells that exist in the current rebuild. Two queries with equal
  /// boxes walk exactly the same buckets.
  struct CellBox {
    int64_t lo_cx = 0;
    int64_t lo_cy = 0;
    int64_t hi_cx = -1;  // Empty by default (hi < lo).
    int64_t hi_cy = -1;
    bool operator==(const CellBox& o) const {
      return lo_cx == o.lo_cx && lo_cy == o.lo_cy && hi_cx == o.hi_cx &&
             hi_cy == o.hi_cy;
    }
  };

  /// Creates an index with the given cell edge length (metres, > 0).
  /// A cell size near the query radius keeps candidate sets tight.
  explicit SpatialIndex(double cell_size);

  /// Replaces the whole index contents with the given (id, position) set.
  /// Compatibility overload for external/test callers; the hot path uses
  /// the SoA overload below.
  void Rebuild(const std::vector<std::pair<NodeId, Vec2>>& positions);

  /// SoA overload: replaces the contents with ids[i] at (xs[i], ys[i]).
  /// All three arrays must have equal length.
  void Rebuild(const std::vector<NodeId>& ids, const std::vector<double>& xs,
               const std::vector<double>& ys);

  /// Appends every id whose indexed position lies within `radius` of
  /// `center` to `out` (also returns ids *near* the ring; callers must
  /// distance-filter against live positions). `out` is not cleared.
  void QueryRange(const Vec2& center, double radius,
                  std::vector<NodeId>* out) const;

  /// The clamped cell box a QueryRange(center, radius) would walk.
  CellBox BoxFor(const Vec2& center, double radius) const;

  /// Appends every indexed (id, x, y) stored in the cells of `box`, in
  /// the same walk order QueryRange uses, without distance filtering.
  /// QueryRange ≡ CollectBox + per-point indexed-distance filter; batched
  /// callers share one CollectBox across queries with equal boxes.
  void CollectBox(const CellBox& box, std::vector<NodeId>* out_ids,
                  std::vector<double>* out_xs,
                  std::vector<double>* out_ys) const;

  /// Number of indexed points.
  size_t Size() const { return ids_.size(); }

  /// Cell coordinate of `v` on the configured (uncoarsened) grid: the
  /// coordinate a Rebuild that keeps the configured cell size files a point
  /// at `v` under. Queries walk cells in (x, y) coordinate order.
  int64_t BaseCellCoord(double v) const { return FloorCell(v, cell_size_); }

  /// True iff a Rebuild over `points` points, each within `margin` metres
  /// of a point indexed now, would keep the configured cell size.
  /// Conservative: false whenever the current grid cannot tell (empty, or
  /// already coarsened).
  bool BaseGridFitsWithin(double margin, size_t points) const;

 private:
  /// floor(v / cell) via truncating cast + negative adjustment: identical
  /// to std::floor for every finite quotient that fits in int64
  /// (coordinates are metre-scale, so quotients are nowhere near the
  /// limit), without the libm call this hot path would otherwise pay per
  /// point.
  static int64_t FloorCell(double v, double cell) {
    const double q = v / cell;
    int64_t k = static_cast<int64_t>(q);
    k -= static_cast<int64_t>(q < static_cast<double>(k));
    return k;
  }

  int64_t CellCoord(double v) const { return FloorCell(v, grid_cell_size_); }

  double cell_size_;       // Configured cell edge.
  double grid_cell_size_;  // Effective edge this rebuild (doubled from
                           // cell_size_ only when the points' bounding box
                           // would otherwise explode the dense grid).
  int64_t min_cx_ = 0;
  int64_t min_cy_ = 0;
  int64_t width_ = 0;
  int64_t height_ = 0;
  std::vector<uint32_t> cell_start_;  // width_*height_ + 1 prefix offsets.
  std::vector<NodeId> ids_;           // Grouped by cell, insertion-stable.
  std::vector<double> xs_;            // Parallel to ids_.
  std::vector<double> ys_;            // Parallel to ids_.

  // Rebuild scratch, reused across rebuilds instead of reallocating.
  mutable std::vector<int64_t> cx_scratch_;  // Pass-1 cell coords, reused by
  mutable std::vector<int64_t> cy_scratch_;  // the counting-sort pass.
  mutable std::vector<uint32_t> cell_of_scratch_;
  mutable std::vector<uint32_t> fill_scratch_;
  mutable std::vector<NodeId> compat_ids_scratch_;
  mutable std::vector<double> compat_xs_scratch_;
  mutable std::vector<double> compat_ys_scratch_;
};

}  // namespace madnet::net

#endif  // MADNET_NET_SPATIAL_INDEX_H_
