// Copyright (c) 2026 madnet authors. All rights reserved.
//
// Reader for the flat JSONL trace records emitted by obs::Trace. The
// repo's JsonWriter is write-only by design, so consumers (madnet_tracestat,
// madnet_heatmap, tests) share this parser instead of growing private
// ad-hoc ones. It understands exactly the flat one-object-per-line shape
// Trace produces: string and number values, no nesting, no escapes.

#ifndef MADNET_OBS_TRACE_READER_H_
#define MADNET_OBS_TRACE_READER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace madnet::obs {

/// One parsed trace record. Only the fields present on the line are set;
/// everything else keeps its default. `cat` is always set on success.
struct TraceEvent {
  std::string cat;      ///< "run", "event", "tx", "rx", "deliver",
                        ///< "suppress", "sketch", "fault".
  double t = 0.0;       ///< Virtual sim time (absent on "run" records).
  uint64_t seq = 0;     ///< Event sequence number ("event") or transmit
                        ///< sequence ("tx"/"rx"/"deliver").
  uint32_t node = 0;    ///< Acting / receiving node index.
  uint32_t from = 0;    ///< Sender index ("rx").
  double x = 0.0;       ///< Transmitter position ("tx").
  double y = 0.0;
  uint32_t bytes = 0;   ///< Packet size ("tx"/"rx").
  uint64_t ad = 0;      ///< Ad key ("rx"/"deliver"/"suppress"/"sketch").
  uint32_t hop = 0;     ///< Hop count at first receipt ("deliver").
  uint32_t parent = 0;  ///< Node whose broadcast delivered ("deliver").
  double v = 0.0;       ///< Reason-specific value ("suppress").
  uint64_t seed = 0;    ///< Replication seed ("run").
  std::string config;   ///< Config hash hex ("run").
  std::string reason;   ///< Suppression reason ("suppress").
};

/// Parses one JSONL line into `*event` (reset first). Returns
/// InvalidArgument on malformed input or an unknown "cat" value.
Status ParseTraceLine(std::string_view line, TraceEvent* event);

}  // namespace madnet::obs

#endif  // MADNET_OBS_TRACE_READER_H_
