// Copyright (c) 2026 madnet authors. All rights reserved.
//
// A sampled time series: (time, value) points appended in time order, with
// helpers for rendering and for windowed aggregation. Used by the coverage
// instrumentation that demonstrates the propagation-model requirements of
// Section III (dense inside the advertising area, shrink over age).

#ifndef MADNET_STATS_TIMESERIES_H_
#define MADNET_STATS_TIMESERIES_H_

#include <string>
#include <vector>

#include "sim/event_queue.h"
#include "util/status.h"

namespace madnet::stats {

using sim::Time;

/// An append-only series of timestamped samples.
class TimeSeries {
 public:
  struct Sample {
    Time time = 0.0;
    double value = 0.0;
  };

  /// Creates a series with a label (used in rendered output).
  explicit TimeSeries(std::string label = "");

  /// Appends a sample. Times must be non-decreasing (InvalidArgument
  /// otherwise).
  Status Add(Time time, double value);

  /// Number of samples.
  size_t Size() const { return samples_.size(); }
  bool Empty() const { return samples_.empty(); }

  /// The i-th sample (0-based, time order).
  const Sample& At(size_t i) const { return samples_[i]; }

  /// All samples.
  const std::vector<Sample>& samples() const { return samples_; }

  /// Value at `time` by step interpolation (value of the latest sample at
  /// or before `time`); 0 before the first sample or when empty.
  double ValueAt(Time time) const;

  /// Mean of samples with time in [t0, t1]; 0 if none.
  double MeanOver(Time t0, Time t1) const;

  /// Largest sample value; 0 when empty.
  double MaxValue() const;

  const std::string& label() const { return label_; }

 private:
  std::string label_;
  std::vector<Sample> samples_;
};

}  // namespace madnet::stats

#endif  // MADNET_STATS_TIMESERIES_H_
