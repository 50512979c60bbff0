// Copyright (c) 2026 madnet authors. All rights reserved.

#include "sim/simulator.h"

#include <cassert>

namespace madnet::sim {

struct PeriodicHandle::State {
  Simulator* simulator = nullptr;
  EventId current = kInvalidEventId;
  bool stopped = false;
};

bool PeriodicHandle::Cancel() {
  if (!state_ || state_->stopped) return false;
  state_->stopped = true;
  return state_->simulator->Cancel(state_->current);
}

bool PeriodicHandle::active() const { return state_ && !state_->stopped; }

EventId Simulator::Schedule(Time delay, EventQueue::Callback callback) {
  if (delay < 0.0) delay = 0.0;
  return queue_.Push(now_ + delay, std::move(callback));
}

EventId Simulator::ScheduleAt(Time when, EventQueue::Callback callback) {
  if (when < now_) when = now_;
  return queue_.Push(when, std::move(callback));
}

PeriodicHandle Simulator::SchedulePeriodic(Time initial_delay, Time period,
                                           std::function<bool()> callback) {
  assert(period > 0.0 && "periodic events require a positive period");
  PeriodicHandle handle;
  handle.state_ = std::make_shared<PeriodicHandle::State>();
  handle.state_->simulator = this;

  auto state = handle.state_;
  auto shared_cb = std::make_shared<std::function<bool()>>(std::move(callback));
  handle.state_->current = Schedule(initial_delay, [this, state, period,
                                                    shared_cb]() {
    FirePeriodic(state, period, shared_cb);
  });
  return handle;
}

void Simulator::FirePeriodic(std::shared_ptr<PeriodicHandle::State> state,
                             Time period,
                             std::shared_ptr<std::function<bool()>> callback) {
  if (state->stopped) return;
  if (!(*callback)()) {
    state->stopped = true;
    return;
  }
  if (state->stopped) return;  // The callback may have cancelled itself.
  state->current = Schedule(period, [this, state, period, callback]() {
    FirePeriodic(state, period, callback);
  });
}

void Simulator::RecordDispatchGap(double gap) {
  size_t bucket = 0;
  while (bucket + 1 < kDispatchGapBuckets && kDispatchGapBounds[bucket] < gap) {
    ++bucket;
  }
  ++dispatch_gap_counts_[bucket];
  dispatch_gap_sum_ += gap;
}

bool Simulator::Step() {
  if (queue_.Empty()) return false;
  auto [when, callback] = queue_.Pop();
  assert(when >= now_ && "event queue went backwards in time");
  if (record_dispatch_gaps_) RecordDispatchGap(when - now_);
  now_ = when;
  ++executed_;
  if (trace_ != nullptr && trace_->Enabled(obs::kTraceEvent)) {
    trace_->Event(now_, executed_);
  }
  callback();
  return true;
}

uint64_t Simulator::RunUntil(Time until) {
  uint64_t count = 0;
  while (!queue_.Empty() && queue_.NextTime() <= until) {
    Step();
    ++count;
  }
  // Advance the clock to the horizon so successive RunUntil calls compose.
  if (until > now_ && until != std::numeric_limits<Time>::infinity()) {
    now_ = until;
  }
  return count;
}

void Simulator::Reset() {
  queue_.Clear();
  now_ = 0.0;
  executed_ = 0;
  for (size_t i = 0; i < kDispatchGapBuckets; ++i) dispatch_gap_counts_[i] = 0;
  dispatch_gap_sum_ = 0.0;
}

}  // namespace madnet::sim
