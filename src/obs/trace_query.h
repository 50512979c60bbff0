// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Dissemination-tree reconstruction over deliver/tx/rx trace records (the
// ad-provenance side of the trace schema; see docs/OBSERVABILITY.md).
// Shared by tools/madnet_tracequery, tools/madnet_tracestat --validate,
// bench/throughput's quality section, and the tests, so the invariants
// are checked by exactly one implementation:
//
//   * every deliver carries a non-zero ad key and a non-zero hop;
//   * a node delivers each ad at most once per run;
//   * parent-before-child: the parent either already has a deliver record
//     for the ad (earlier in the run) or is the ad's issuer (derivable
//     from the key: issuer == ad_key >> 32, in which case hop == 1);
//   * hop monotonicity: hop == parent's deliver hop + 1.
//
// Records stream in trace order; "run" headers scope state, so a merged
// multi-replication file reconstructs one forest per run.

#ifndef MADNET_OBS_TRACE_QUERY_H_
#define MADNET_OBS_TRACE_QUERY_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace_reader.h"
#include "util/json.h"
#include "util/status.h"

namespace madnet::obs {

/// One node's first receipt of one ad (a dissemination-tree edge
/// parent -> node).
struct DeliveryRecord {
  double t = 0.0;        ///< Virtual time of first receipt.
  uint32_t node = 0;     ///< Receiving node.
  uint32_t parent = 0;   ///< Node whose broadcast delivered it.
  uint32_t hop = 0;      ///< Distance from the issuer (issuer = 0).
  uint64_t tx_seq = 0;   ///< Transmit sequence of the delivering frame.
};

/// One advertisement's dissemination tree within one run.
struct AdTree {
  uint64_t ad_key = 0;
  uint32_t issuer = 0;       ///< ad_key >> 32 (AdId::Key layout).
  bool has_origin_tx = false;  ///< origin_t came from a matching tx record.
  /// Transmit time of the issuer's seed broadcast when the trace includes
  /// tx records (resolved via the first hop-1 deliver's tx_seq);
  /// otherwise the first deliver time, making latencies relative.
  double origin_t = 0.0;
  uint64_t rx_frames = 0;    ///< rx records carrying this ad (dups incl.).
  uint32_t max_hop = 0;
  std::vector<DeliveryRecord> deliveries;  ///< In trace (= time) order.

  /// Index into `deliveries` by receiving node.
  std::unordered_map<uint32_t, size_t> delivery_index;

  /// The node's delivery, or nullptr if it never got the ad.
  const DeliveryRecord* FindDelivery(uint32_t node) const;
};

/// All ads of one replication, keyed (and iterated) by ad key.
struct RunForest {
  uint64_t seed = 0;
  std::map<uint64_t, AdTree> ads;
};

/// Aggregate over every run in the file.
struct ForestStats {
  uint64_t runs = 0;
  uint64_t ads = 0;
  uint64_t deliveries = 0;
  uint64_t rx_frames = 0;       ///< Ad-carrying rx records.
  double latency_p50 = 0.0;     ///< Exact (sorted) delivery latencies.
  double latency_p99 = 0.0;
  double latency_mean = 0.0;
  /// Duplicate pressure: ad-carrying frames received per unique delivery
  /// (1.0 = no redundancy; 0 when the trace has no rx records).
  double redundancy_ratio = 0.0;
  std::map<uint32_t, uint64_t> hop_histogram;  ///< hop -> deliveries.
};

/// Streaming builder: feed every record of a trace in file order.
class DisseminationForest {
 public:
  /// Folds one parsed record in. "run" opens a new run scope; "tx"
  /// records index transmit times for latency origins; "rx" records count
  /// redundancy; "deliver" records grow a tree and are validated against
  /// the invariants in the file comment. Other categories are ignored.
  /// On error the record is not applied.
  Status Add(const TraceEvent& event);

  /// Reads a whole JSONL trace file through Add. Errors carry line
  /// numbers.
  Status AddFile(const std::string& path);

  const std::vector<RunForest>& runs() const { return runs_; }

  /// Aggregate statistics over all runs.
  ForestStats Summarize() const;

  /// Per-ad report: {"runs":[{"seed":...,"ads":[...]}],"summary":{...}}.
  /// Each ad object carries deliveries, max_hop, rx_frames, latency
  /// p50/p99, and the coverage-over-time milestones t25/t50/t75/t90
  /// (latency by which 25/50/75/90% of eventual receivers were covered).
  std::string ReportJson() const;

 private:
  std::vector<RunForest> runs_;
  /// Transmit time by tx_seq, current run only (cleared at run headers).
  std::unordered_map<uint64_t, double> tx_time_by_seq_;
};

}  // namespace madnet::obs

#endif  // MADNET_OBS_TRACE_QUERY_H_
