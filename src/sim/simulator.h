// Copyright (c) 2026 madnet authors. All rights reserved.
//
// The discrete-event simulator driving every madnet scenario: a virtual
// clock plus an event queue. This is the repo's substitute for ns-2's
// scheduler — protocols only ever observe Now(), Schedule*() and event
// delivery, so the semantics they need are fully provided here.

#ifndef MADNET_SIM_SIMULATOR_H_
#define MADNET_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "obs/trace.h"
#include "sim/event_queue.h"
#include "util/status.h"

namespace madnet::sim {

class Simulator;

/// Cancellation handle for a repeating event series started with
/// Simulator::SchedulePeriodic. Copyable; all copies control the same series.
class PeriodicHandle {
 public:
  /// A disengaged handle; Cancel() is a no-op.
  PeriodicHandle() = default;

  /// Stops the series before its next firing. Idempotent. Returns true if a
  /// pending firing was actually cancelled.
  bool Cancel();

  /// True while the series will keep firing.
  bool active() const;

 private:
  friend class Simulator;
  struct State;
  std::shared_ptr<State> state_;
};

/// Virtual-time event loop. Single-threaded; all callbacks run inline from
/// Run()/Step() in timestamp order (FIFO among equal timestamps).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time, seconds. Starts at 0.
  Time Now() const { return now_; }

  /// Schedules `callback` to run `delay` seconds from now. Negative delays
  /// are clamped to zero (the event runs "now", after already-queued
  /// same-time events).
  EventId Schedule(Time delay, EventQueue::Callback callback);

  /// Schedules `callback` at absolute virtual time `when`. Times in the past
  /// are clamped to Now().
  EventId ScheduleAt(Time when, EventQueue::Callback callback);

  /// Cancels a pending event; false if it already ran or was cancelled.
  bool Cancel(EventId id) { return queue_.Cancel(id); }

  /// Runs a repeating event every `period` seconds (first firing after
  /// `initial_delay`). Returning false from the callback stops the series;
  /// the returned handle also cancels it. Requires period > 0.
  PeriodicHandle SchedulePeriodic(Time initial_delay, Time period,
                                  std::function<bool()> callback);

  /// Executes the single earliest pending event. Returns false if none.
  bool Step();

  /// Runs until the queue empties or virtual time would exceed `until`
  /// (events at exactly `until` still run). Returns the number of events
  /// executed.
  uint64_t RunUntil(Time until);

  /// Runs until the queue is empty. Returns the number of events executed.
  uint64_t Run() { return RunUntil(std::numeric_limits<Time>::infinity()); }

  /// Number of pending events.
  size_t PendingEvents() const { return queue_.Size(); }

  /// Total events executed so far.
  uint64_t ExecutedEvents() const { return executed_; }

  /// Drops all pending events and resets the clock to zero. The trace sink
  /// installed via SetTrace (if any) stays installed.
  void Reset();

  /// Installs (or clears, with nullptr) the trace sink receiving one
  /// kTraceEvent record per executed event. The sink must outlive the
  /// simulator or be cleared before it dies.
  void SetTrace(obs::Trace* trace) { trace_ = trace; }

  /// Bucket upper edges for the dispatch-gap telemetry (one overflow
  /// bucket sits above the last edge; see kDispatchGapBuckets).
  static constexpr double kDispatchGapBounds[8] = {1e-6, 1e-5, 1e-4, 1e-3,
                                                   1e-2,  0.1,  1.0, 10.0};
  static constexpr size_t kDispatchGapBuckets = 9;

  /// Enables recording the virtual inter-event dispatch gap (seconds
  /// between consecutive executed events) into a fixed bucket array. A
  /// dense cluster of zero/near-zero gaps marks an event storm; long gaps
  /// mark idle phases. Purely observational; the counts accumulate inline
  /// (plain stores on the simulator's own cache lines — cheap enough for
  /// the hot loop) and are booked into a metrics histogram by the owner at
  /// the end of the run (FixedHistogram::MergeBucketCounts).
  void EnableDispatchGapTelemetry() { record_dispatch_gaps_ = true; }
  bool dispatch_gap_telemetry_enabled() const {
    return record_dispatch_gaps_;
  }
  /// kDispatchGapBuckets accumulated counts (bucket i holds gaps <=
  /// kDispatchGapBounds[i]; the last bucket is overflow).
  const uint64_t* dispatch_gap_counts() const {
    return dispatch_gap_counts_;
  }
  double dispatch_gap_sum() const { return dispatch_gap_sum_; }

  /// Stable pointer to the virtual clock, for read-only observers that
  /// must not depend on sim (e.g. util::ScopedLogClock). Valid for the
  /// simulator's lifetime.
  const Time* NowHandle() const { return &now_; }

 private:
  /// One firing of a periodic series; reschedules itself while active.
  void FirePeriodic(std::shared_ptr<PeriodicHandle::State> state, Time period,
                    std::shared_ptr<std::function<bool()>> callback);

  /// Buckets one inter-event dispatch gap.
  void RecordDispatchGap(double gap);

  EventQueue queue_;
  Time now_ = 0.0;
  uint64_t executed_ = 0;
  obs::Trace* trace_ = nullptr;
  bool record_dispatch_gaps_ = false;
  uint64_t dispatch_gap_counts_[kDispatchGapBuckets] = {};
  double dispatch_gap_sum_ = 0.0;
};

}  // namespace madnet::sim

#endif  // MADNET_SIM_SIMULATOR_H_
