// In-memory span recorder for the benchmark's traced pass.
//
// Every span records a name, a start and end (seconds on one steady clock),
// its parent span and, for spans opened on a worker thread, the worker. The
// spans stay in memory while the pass runs and are written out once at the
// end, so recording costs one clock read and one vector append per span.
// A span's self time is its duration minus the part of it that the union
// of its children's intervals covers (children of one parent may overlap
// when they ran on different workers).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `start`.
double SecondsSince(Clock::time_point start);

struct Span {
  std::string name;
  int parent = -1;  ///< Index of the parent span; -1 for the root.
  double start_s = 0.0;
  double end_s = 0.0;
  int worker = -1;  ///< Worker that ran the span; -1 when not on a pool.
};

/// Thread-safe: spans may be opened and closed from ParallelFor workers.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Seconds since the recorder was created.
  double Now() const { return SecondsSince(epoch_); }

  /// Opens a span now and returns its id.
  int Begin(const std::string& name, int parent, int worker = -1);

  /// Closes span `id` now.
  void End(int id);

  /// Records an already closed span.
  int Add(const std::string& name, int parent, double start_s, double end_s,
          int worker = -1);

  /// Copy of every span recorded so far.
  std::vector<Span> Snapshot() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // Guarded by mu_.
};

/// Self time of every span, indexed like `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Per-name totals: {name: {"count", "total_s", "self_s"}}.
struct SpanTotals {
  size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans);

/// Writes one JSON object per line (id, parent, name, worker, start_s,
/// end_s, self_s). Returns false when the file cannot be written.
bool WriteSpansJsonl(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
