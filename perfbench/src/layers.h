// Per-layer replays: each times calls into one layer's public functions,
// from the benchmark's own code, on inputs taken from the workload (its
// positions, its cache size and ad count, its event-queue depth).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

/// Per-layer metric name -> value. Every value comes with its unit and,
/// for timings, the number of operations it is averaged over.
struct LayerMetric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  ///< Operations or samples behind the value.
};
using LayerMetrics = std::map<std::string, LayerMetric>;

/// Runs every replay of `workload` as a child span of `root` and adds its
/// metrics. `pending_peak` sizes the event-queue replay. Replays stop
/// growing their repetition counts once `budget_s` seconds have elapsed.
void RunReplays(const Workload& workload, uint64_t seed, uint64_t pending_peak,
                double budget_s, SpanRecorder* spans, int root,
                LayerMetrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
